#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <ostream>

#include "util/json.hpp"

namespace lps::telemetry {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}
void set_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Stable small id for the calling thread, used to pick metric slots.
/// Ids beyond kSlots wrap — two threads may then share a slot, which
/// only costs atomic contention, never correctness.
unsigned thread_slot() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return slot;
}

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t v) noexcept {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ------------------------------------------------------------ histogram --

double HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the percentile observation, 1-based.
  const double rank =
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (static_cast<double>(seen + buckets[b]) >= rank) {
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = std::min(static_cast<double>(bucket_hi(b)),
                                 static_cast<double>(max) + 1.0);
      return std::min(lo + frac * (hi - lo), static_cast<double>(max));
    }
    seen += buckets[b];
  }
  return static_cast<double>(max);
}

HistogramSnapshot& HistogramSnapshot::operator-=(
    const HistogramSnapshot& o) noexcept {
  count -= o.count;
  sum -= o.sum;
  // max is not subtractable; keep the later (larger-window) max, which
  // upper-bounds the delta's true max.
  for (unsigned b = 0; b < kHistBuckets; ++b) buckets[b] -= o.buckets[b];
  return *this;
}

Histogram::Histogram() : slots_(new Slot[kSlots]) {}

void Histogram::record(std::uint64_t value) noexcept {
  record(value, thread_slot());
}

void Histogram::record(std::uint64_t value, unsigned slot) noexcept {
  Slot& s = slots_[slot % kSlots];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  atomic_max(s.max, value);
  s.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot out;
  for (unsigned i = 0; i < kSlots; ++i) {
    const Slot& s = slots_[i];
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (unsigned b = 0; b < kHistBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

// ------------------------------------------------------------- counters --

Counter::Counter() : slots_(new Slot[kSlots]) {}

void Counter::add(std::uint64_t delta) noexcept {
  slots_[thread_slot()].v.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kSlots; ++i) {
    total += slots_[i].v.load(std::memory_order_relaxed);
  }
  return total;
}

IndexedCounter::IndexedCounter()
    : slots_(new std::atomic<std::uint64_t>[kIndexedCapacity]) {
  for (std::size_t i = 0; i < kIndexedCapacity; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

void IndexedCounter::add(std::size_t index, std::uint64_t delta) noexcept {
  if (index >= kIndexedCapacity) {
    dropped_.fetch_add(delta, std::memory_order_relaxed);
    return;
  }
  slots_[index].fetch_add(delta, std::memory_order_relaxed);
  std::size_t mark = watermark_.load(std::memory_order_relaxed);
  while (index + 1 > mark && !watermark_.compare_exchange_weak(
                                 mark, index + 1, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> IndexedCounter::values() const {
  const std::size_t n = watermark_.load(std::memory_order_relaxed);
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = slots_[i].load(std::memory_order_relaxed);
  }
  return out;
}

// --------------------------------------------------------------- series --

void Series::push(std::uint64_t v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (values_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  values_.push_back(v);
}

std::size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_.size();
}

std::vector<std::uint64_t> Series::values_from(std::size_t from) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (from >= values_.size()) return {};
  return {values_.begin() + static_cast<std::ptrdiff_t>(from), values_.end()};
}

std::uint64_t Series::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

// ---------------------------------------------------- instrument table --

EngineMetrics& EngineMetrics::get() {
  static EngineMetrics* instance = new EngineMetrics();
  return *instance;
}

LegMetrics& LegMetrics::get() {
  static LegMetrics* instance = new LegMetrics();
  return *instance;
}

// --------------------------------------------------------------- tracer --

namespace {

// Indexed by EventKind: the instant's name, then its arg names. The
// wire names are the trace's event schema (DESIGN.md §14) —
// tools/trace_summary --check depends on them.
constexpr std::array<const char*, 1 + kMaxArgs> kKindTable[kEventKinds] = {
    {"drop", "round", "edge", "from", nullptr},
    {"dup", "round", "edge", "from", nullptr},
    {"delay", "round", "edge", "from", "rounds"},
    {"crash", "epoch", "vertex", nullptr, nullptr},
    {"revive", "epoch", "vertex", nullptr, nullptr},
    {"cut", "epoch", "u", "v", nullptr},
    {"reinsert", "epoch", "u", "v", nullptr},
    {"resync", "round", "sweep", "perturbed", nullptr},
    {"watchdog", "round", "delivered", nullptr, nullptr},
};

}  // namespace

const char* event_kind_name(EventKind k) noexcept {
  const auto i = static_cast<unsigned>(k);
  return i < kEventKinds ? kKindTable[i][0] : "unknown";
}

std::array<const char*, kMaxArgs> event_arg_names(EventKind k) noexcept {
  std::array<const char*, kMaxArgs> out{};
  const auto i = static_cast<unsigned>(k);
  if (i < kEventKinds) {
    for (unsigned a = 0; a < kMaxArgs; ++a) out[a] = kKindTable[i][a + 1];
  }
  return out;
}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();
  return *instance;
}

void Tracer::set_recording(bool on) noexcept {
  recording_.store(on, std::memory_order_relaxed);
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) buffer->events.clear();
  total_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::set_capacity(std::size_t max_events) {
  capacity_.store(max_events, std::memory_order_relaxed);
}

const char* Tracer::intern(const std::string& s) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& existing : interned_) {
    if (*existing == s) return existing->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(s));
  return interned_.back()->c_str();
}

Tracer::Buffer& Tracer::local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  }
  return *buf;
}

void Tracer::set_thread_label(const std::string& label) {
  Buffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(mutex_);
  buf.label = label;
}

void Tracer::push(const char* name, const char* cat, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, char ph, const Arg* args,
                  std::size_t argc) {
  if (!recording()) return;
  if (total_.fetch_add(1, std::memory_order_relaxed) >=
      capacity_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.ph = ph;
  e.argc = static_cast<std::uint8_t>(std::min<std::size_t>(argc, kMaxArgs));
  std::copy(args, args + e.argc, e.args.begin());
  local_buffer().events.push_back(e);
}

void Tracer::emit(const char* name, const char* cat, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, std::initializer_list<Arg> args) {
  push(name, cat, ts_ns, dur_ns, 'X', args.begin(), args.size());
}

void Tracer::instant(const char* name, const char* cat,
                     std::initializer_list<Arg> args) {
  push(name, cat, now_ns(), 0, 'i', args.begin(), args.size());
}

void Tracer::event(EventKind kind, std::uint64_t round, std::uint64_t a,
                   std::uint64_t b, std::uint64_t c) {
  const auto i = static_cast<unsigned>(kind);
  if (i >= kEventKinds) return;
  const std::uint64_t values[kMaxArgs] = {round, a, b, c};
  std::array<Arg, kMaxArgs> args{};
  std::size_t argc = 0;
  while (argc < kMaxArgs && kKindTable[i][argc + 1] != nullptr) {
    args[argc] = {kKindTable[i][argc + 1], static_cast<double>(values[argc])};
    ++argc;
  }
  push(kKindTable[i][0], "event", now_ns(), 0, 'i', args.data(), argc);
}

std::size_t Tracer::events() const noexcept {
  const std::size_t total = total_.load(std::memory_order_relaxed);
  const std::size_t dropped = dropped_.load(std::memory_order_relaxed);
  return total - std::min(total, dropped);
}

std::size_t Tracer::dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Rebase timestamps to the earliest event so `ts` stays well inside
  // double precision at nanosecond resolution.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& buffer : buffers_) {
    for (const Event& e : buffer->events) t0 = std::min(t0, e.ts_ns);
  }
  if (t0 == ~std::uint64_t{0}) t0 = 0;

  JsonRows rows(os, JsonObject().add("displayTimeUnit", "ns"), "traceEvents");
  for (const auto& buffer : buffers_) {
    const auto tid = static_cast<std::uint64_t>(buffer->tid);
    if (!buffer->label.empty()) {
      rows.push(JsonObject()
                    .add("ph", "M")
                    .add("pid", 1)
                    .add("tid", tid)
                    .add("name", "thread_name")
                    .add("args", JsonObject().add("name", buffer->label)));
    }
    for (const Event& e : buffer->events) {
      JsonObject event;
      event.add("name", e.name)
          .add("cat", e.cat)
          .add("ph", std::string_view(&e.ph, 1))
          .add("pid", 1)
          .add("tid", tid)
          .add("ts", static_cast<double>(e.ts_ns - t0) / 1000.0);
      if (e.ph == 'X') {
        event.add("dur", static_cast<double>(e.dur_ns) / 1000.0);
      }
      if (e.argc > 0) {
        JsonObject args;
        for (std::uint8_t i = 0; i < e.argc; ++i) {
          args.add(e.args[i].key, e.args[i].value);
        }
        event.add("args", args);
      }
      rows.push(event);
    }
  }
  rows.close();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return os.good();
}

}  // namespace lps::telemetry
