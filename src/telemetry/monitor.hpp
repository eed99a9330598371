// Live progress + stall watchdog (DESIGN.md §14).
//
// Monitor is a background sampler thread that reads the engine's own
// progress counters, EngineMetrics::rounds and ::messages_delivered,
// every interval. It renders a one-line status to stderr (msgs/sec
// derived from delivered deltas), and optionally arms a stall watchdog:
// when neither counter advances within the deadline, it dumps the
// progress since arming and the atomic per-shard and per-worker engine
// counters, records a `watchdog` trace instant, then either aborts the
// process with kWatchdogExitCode or latches stalled(). The dump never
// reads a recorder buffer: other threads may still be appending to
// theirs.
//
// The counters only move while metric recording is on, so arming a
// Monitor turns it on (telemetry::set_enabled) until stop(), which
// restores the state found at arming.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace lps::telemetry {

/// Exit code used when the watchdog aborts a stalled run. Distinct from
/// the tools' 0/1/2 contract so CI can tell "hung" from "failed".
inline constexpr int kWatchdogExitCode = 86;

struct MonitorOptions {
  /// Status-line period. Also the sampler tick upper bound.
  int interval_ms = 1000;
  /// Watchdog deadline: if neither progress counter advances for this
  /// long the stall dump fires. 0 disables the watchdog.
  int stall_timeout_ms = 0;
  /// After the stall dump, _Exit(kWatchdogExitCode) instead of latching
  /// stalled().
  bool abort_on_stall = false;
  /// Status-line sink; nullptr samples silently (watchdog still armed,
  /// dump goes to stderr). Defaults to stderr.
  std::ostream* out = nullptr;
  /// Prefix for status lines ("monitor[label]: ...").
  std::string label;
};

class Monitor {
 public:
  explicit Monitor(MonitorOptions opts = {});
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Stop the sampler thread and restore the metric switch
  /// (idempotent; the destructor calls it).
  void stop();

  /// True once the watchdog observed a stall (abort_on_stall=false).
  bool stalled() const noexcept {
    return stalled_.load(std::memory_order_relaxed);
  }

 private:
  /// Engine progress since arming: rounds and messages delivered.
  struct Progress {
    std::uint64_t rounds = 0;
    std::uint64_t delivered = 0;
    bool operator==(const Progress&) const = default;
  };
  Progress progress() const;
  void run();
  void emit_status(const Progress& p, double msgs_per_sec);
  void dump_stall(const Progress& p, std::uint64_t quiet_ns);

  MonitorOptions opts_;
  bool metrics_were_on_;
  Progress armed_;  // counter values at arming
  std::atomic<bool> stalled_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace lps::telemetry
