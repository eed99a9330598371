#include "telemetry/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

namespace lps::telemetry {

Monitor::Monitor(MonitorOptions opts)
    : opts_(std::move(opts)), metrics_were_on_(enabled()) {
  if (opts_.interval_ms < 10) opts_.interval_ms = 10;
  set_enabled(true);
  const EngineMetrics& em = EngineMetrics::get();
  armed_ = {em.rounds.value(), em.messages_delivered.value()};
  thread_ = std::thread([this] { run(); });
}

Monitor::~Monitor() { stop(); }

void Monitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  set_enabled(metrics_were_on_);
}

Monitor::Progress Monitor::progress() const {
  const EngineMetrics& em = EngineMetrics::get();
  return {em.rounds.value() - armed_.rounds,
          em.messages_delivered.value() - armed_.delivered};
}

void Monitor::emit_status(const Progress& p, double msgs_per_sec) {
  if (opts_.out == nullptr) return;
  std::ostringstream line;
  line << "monitor";
  if (!opts_.label.empty()) line << "[" << opts_.label << "]";
  if (p.rounds > 0) {
    line << ": round=" << p.rounds << " msgs/s=";
    const auto old_flags = line.flags();
    line.precision(3);
    line << std::fixed << (msgs_per_sec >= 0 ? msgs_per_sec : 0.0);
    line.flags(old_flags);
    line << " delivered=" << p.delivered;
  } else {
    line << ": waiting for first round";
  }
  (*opts_.out) << line.str() << "\n";
  opts_.out->flush();
}

void Monitor::dump_stall(const Progress& p, std::uint64_t quiet_ns) {
  std::ostream& os = opts_.out != nullptr ? *opts_.out : std::cerr;
  os << "watchdog: stall detected: no progress for " << quiet_ns / 1000000
     << " ms (deadline " << opts_.stall_timeout_ms << " ms)\n";
  if (p.rounds > 0) {
    os << "watchdog: state: round=" << p.rounds << " delivered=" << p.delivered
       << "\n";
  } else {
    os << "watchdog: state: no round has completed since the monitor "
          "started\n";
  }

  // Mark the stall on the trace timeline. Only this thread's own buffer
  // is touched; nothing here reads what other threads recorded.
  Tracer& tracer = Tracer::global();
  if (tracer.recording()) {
    tracer.event(EventKind::kWatchdog, p.rounds, p.delivered);
  }

  auto& em = EngineMetrics::get();
  const auto dump_indexed = [&os](const char* name,
                                  const std::vector<std::uint64_t>& v) {
    os << "watchdog: " << name << ":";
    if (v.empty()) os << " (empty)";
    for (std::size_t i = 0; i < v.size(); ++i) os << " [" << i << "]=" << v[i];
    os << "\n";
  };
  dump_indexed("shard_exchange_ns", em.shard_exchange_ns.values());
  dump_indexed("worker_busy_ns", em.worker_busy_ns.values());
  os << "watchdog: engine totals: rounds=" << em.rounds.value()
     << " messages_delivered=" << em.messages_delivered.value() << "\n";
  os.flush();
}

void Monitor::run() {
  // Tick fast enough to honor the watchdog deadline with slack even
  // when the status interval is long.
  int tick_ms = opts_.interval_ms;
  if (opts_.stall_timeout_ms > 0)
    tick_ms = std::min(tick_ms, std::max(10, opts_.stall_timeout_ms / 4));

  Progress last;
  std::uint64_t last_progress_ns = now_ns();
  std::uint64_t last_status_ns = 0;
  std::uint64_t last_status_delivered = 0;
  bool dumped = false;

  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;

    const Progress p = progress();
    const std::uint64_t now = now_ns();

    if (p != last) {
      last_progress_ns = now;
      last = p;
      dumped = false;  // progress re-arms the watchdog
    }

    if (now - last_status_ns >=
        static_cast<std::uint64_t>(opts_.interval_ms) * 1000000ull) {
      double rate = -1.0;
      if (last_status_ns != 0 && now > last_status_ns)
        rate = static_cast<double>(p.delivered - last_status_delivered) *
               1e9 / static_cast<double>(now - last_status_ns);
      emit_status(p, rate);
      last_status_ns = now;
      last_status_delivered = p.delivered;
    }

    if (opts_.stall_timeout_ms > 0 && !dumped) {
      const std::uint64_t quiet = now - last_progress_ns;
      if (quiet >=
          static_cast<std::uint64_t>(opts_.stall_timeout_ms) * 1000000ull) {
        dump_stall(last, quiet);
        dumped = true;
        stalled_.store(true, std::memory_order_relaxed);
        if (opts_.abort_on_stall) std::_Exit(kWatchdogExitCode);
      }
    }
  }
}

}  // namespace lps::telemetry
