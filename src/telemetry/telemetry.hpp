// Telemetry: low-overhead metrics + tracing for every execution layer
// (DESIGN.md §12).
//
// Two cooperating pieces behind two independent runtime switches, and
// the only process-wide recorders in the repository:
//
//  * EngineMetrics, the round engine's fixed instrument table: counters,
//    per-index counters, a bounded series and fixed-bucket log-scale
//    latency histograms, each a named member. A member name is checked
//    by the compiler at every site that records or reads it; the live
//    Monitor and perfbench read the same members. All hot-path
//    mutation goes through cache-line-separated per-slot relaxed
//    atomics (the same pattern as the engine's per-worker stat slots);
//    merging happens only on read, so recording is lock-free and
//    wait-free. Gated by telemetry::enabled().
//  * Tracer — Chrome-trace/Perfetto recorder for spans (how long a
//    phase took) and typed event instants (what happened: fault
//    injections, crashes, resyncs, watchdog dumps — the closed
//    EventKind vocabulary below). Every record carries a static
//    name/category, a nanosecond stamp, the recording thread's stable
//    id, and up to four numeric args. Records land in per-thread
//    buffers (registered once, under a mutex, on each thread's first
//    record) and are streamed as one Chrome JSON document, one event
//    per line, through the JSON codec (util/json.hpp) on write.
//    Gated by Tracer::recording().
//
// Switch contract: both switches are always compiled in. Off (the
// default state), each instrumentation site costs one predictable
// relaxed-load branch per phase and no clock reads.
//
// A latency that only one caller times is not an instrument here: the
// runner's LCA, dynamic and fault legs keep their own exact samples and
// report them next to the leg's other fields (api/runner.hpp).
//
// Naming scheme: an instrument member is `<quantity>[_<unit>]`
// (EngineMetrics::exchange_p1_ns), and the run record's telemetry block
// names its fields after them (`phase_mean_per_round.exchange_p1_ns`).
// Span names are
// `<layer>.<step>` ("engine.round", "lca.query", "dynamic.repair"),
// with the layer as the Chrome `cat` ("engine", "lca", "dynamic",
// "api"); a solve is "solve:<solver>".
//
// Threading: recording is safe from any thread. snapshot()/write are
// meant for quiescent moments (between rounds / after a run); they
// tolerate concurrent recording but may observe a torn in-progress
// event count. Tracer::reset() must only run while no other thread is
// emitting.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lps::telemetry {

// ------------------------------------------------------------ switches --

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}
/// Master switch for metric recording and phase timing. One relaxed
/// load; hot paths branch on it once per phase.
inline bool enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turn metric recording on/off.
void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds (steady_clock). Only meaningful as a
/// difference or a span anchor; the tracer rebases on export.
std::uint64_t now_ns() noexcept;

// ------------------------------------------------------------ histogram --

/// Log-scale bucket layout: values 0..3 get exact buckets, then every
/// octave [2^k, 2^{k+1}) splits into 4 sub-buckets, so the relative
/// quantization error is at most 25% of the bucket's lower bound. 252
/// buckets cover the full uint64 range.
inline constexpr unsigned kSubBits = 2;
inline constexpr unsigned kHistBuckets = 252;
/// Per-slot arrays: threads hash onto slots so concurrent recording
/// never contends on one cache line; sums are order-independent, so
/// merged snapshots are deterministic for a fixed set of recordings.
inline constexpr unsigned kSlots = 32;

constexpr unsigned bucket_of(std::uint64_t v) noexcept {
  if (v < (std::uint64_t{1} << kSubBits)) return static_cast<unsigned>(v);
  const unsigned msb = std::bit_width(v) - 1;  // >= kSubBits
  const unsigned sub = static_cast<unsigned>(
      (v >> (msb - kSubBits)) & ((std::uint64_t{1} << kSubBits) - 1));
  return ((msb - 1) << kSubBits) | sub;
}

/// Inclusive lower bound of bucket b.
constexpr std::uint64_t bucket_lo(unsigned b) noexcept {
  if (b < (1u << kSubBits)) return b;
  const unsigned msb = (b >> kSubBits) + 1;
  const unsigned sub = b & ((1u << kSubBits) - 1);
  return (std::uint64_t{1} << msb) +
         (std::uint64_t{sub} << (msb - kSubBits));
}

/// Exclusive upper bound of bucket b.
constexpr std::uint64_t bucket_hi(unsigned b) noexcept {
  if (b + 1 >= kHistBuckets) return ~std::uint64_t{0};
  return bucket_lo(b + 1);
}

/// A merged, immutable view of a Histogram (also the unit of delta
/// arithmetic: runner snapshots before/after a phase and subtracts).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Percentile in [0, 100], linearly interpolated inside the bucket
  /// containing the rank and clamped to the observed max.
  double percentile(double p) const noexcept;

  HistogramSnapshot& operator-=(const HistogramSnapshot& o) noexcept;
};

class Histogram {
 public:
  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Record one value on the calling thread's slot. Lock-free.
  void record(std::uint64_t value) noexcept;
  /// Record on an explicit slot (workers with stable indices).
  void record(std::uint64_t value, unsigned slot) noexcept;

  HistogramSnapshot snapshot() const noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  };
  std::unique_ptr<Slot[]> slots_;
};

// ------------------------------------------------------------- counters --

class Counter {
 public:
  Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) noexcept;
  std::uint64_t value() const noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::unique_ptr<Slot[]> slots_;
};

/// A dense array of counters addressed by small index (shard id, worker
/// id). Capacity matches the engine's shard clamp.
inline constexpr std::size_t kIndexedCapacity = 4096;

class IndexedCounter {
 public:
  IndexedCounter();
  IndexedCounter(const IndexedCounter&) = delete;
  IndexedCounter& operator=(const IndexedCounter&) = delete;

  /// Indices >= kIndexedCapacity are dropped (counted in dropped()).
  void add(std::size_t index, std::uint64_t delta) noexcept;
  /// Values [0, watermark): watermark = highest index ever added + 1.
  std::vector<std::uint64_t> values() const;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::atomic<std::size_t> watermark_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// An append-only bounded series (one value per engine round). Pushes
/// take a mutex — callers push at round granularity, never per message.
class Series {
 public:
  explicit Series(std::size_t capacity = 1 << 16) : capacity_(capacity) {}
  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  void push(std::uint64_t v);
  std::size_t size() const;
  /// Copy of entries [from, size()).
  std::vector<std::uint64_t> values_from(std::size_t from) const;
  std::uint64_t dropped() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> values_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------- instrument table --

/// The engine's instruments (SyncNetwork is a template; one process-wide
/// table keeps lookups out of the round loop). All durations ns.
/// `rounds` and `messages_delivered` are also the live progress the
/// Monitor samples.
struct EngineMetrics {
  Counter rounds;
  Counter messages_delivered;
  Histogram round_ns;        // whole run_round
  Histogram exchange_p1_ns;  // boundary exchange: bin by dest shard
  Histogram exchange_p2_ns;  // per shard: sort by receiver + scatter
  Histogram inbox_sort_ns;   // per shard: per-receiver incidence sort
  Histogram step_ns;         // active-set step loop
  IndexedCounter shard_exchange_ns;  // phase-2 ns by shard id
  IndexedCounter worker_busy_ns;     // step-loop ns by worker id
  Series messages_per_round;         // delivered per round

  static EngineMetrics& get();
};

// --------------------------------------------------------------- tracer --

/// One numeric span argument. Keys must be string literals (stored by
/// pointer).
struct Arg {
  const char* key;
  double value;
};

/// The closed event vocabulary (DESIGN.md §14). Each kind is recorded
/// as a `"ph":"i"` instant with `cat:"event"`, named by
/// event_kind_name, whose args are the kind's event_arg_names. The
/// first arg is always the clock the fact happened on: the engine round
/// for message faults, resyncs and watchdog dumps, the fault epoch for
/// the graph-fault kinds. tools/trace_summary --check audits exactly
/// this vocabulary.
enum class EventKind : std::uint8_t {
  kDrop,      // round, edge, from
  kDup,       // round, edge, from
  kDelay,     // round, edge, from, rounds
  kCrash,     // epoch, vertex
  kRevive,    // epoch, vertex
  kCut,       // epoch, u, v (adversarial deletion of a matched edge)
  kReinsert,  // epoch, u, v
  kResync,    // round, sweep, perturbed
  kWatchdog,  // round, delivered
};
inline constexpr unsigned kEventKinds = 9;
static_assert(static_cast<unsigned>(EventKind::kWatchdog) + 1 == kEventKinds);
inline constexpr unsigned kMaxArgs = 4;

/// Stable wire name of a kind ("crash", ...); "unknown" out of range.
const char* event_kind_name(EventKind k) noexcept;
/// Arg names of a kind, packed to the front; unused slots are nullptr.
std::array<const char*, kMaxArgs> event_arg_names(EventKind k) noexcept;

class Tracer {
 public:
  static Tracer& global();

  bool recording() const noexcept {
    return recording_.load(std::memory_order_relaxed);
  }
  /// Start/stop collection. Starting does NOT clear prior events; call
  /// reset() for a fresh trace.
  void set_recording(bool on) noexcept;

  /// Drop all recorded events (buffers stay registered). Only call
  /// while no other thread is emitting.
  void reset();
  /// Event cap across all threads; beyond it events are dropped and
  /// counted. Default 1M.
  void set_capacity(std::size_t max_events);

  /// Copy a dynamic string into tracer-owned storage, returning a
  /// pointer usable as a span name/category for the tracer's lifetime.
  const char* intern(const std::string& s);

  /// Label the calling thread in the exported trace ("worker-3").
  /// Registers the thread's buffer even while not recording, so labels
  /// set at thread spawn survive into later traces.
  void set_thread_label(const std::string& label);

  /// Record a complete span ("ph":"X"). `name` and `cat` must outlive
  /// the tracer (string literals or intern()ed). At most kMaxArgs args
  /// kept.
  void emit(const char* name, const char* cat, std::uint64_t ts_ns,
            std::uint64_t dur_ns, std::initializer_list<Arg> args = {});
  /// Record an instant event ("ph":"i").
  void instant(const char* name, const char* cat,
               std::initializer_list<Arg> args = {});
  /// Record one vocabulary event as a `cat:"event"` instant: `round`
  /// fills the kind's first arg, a/b/c the following ones (slots the
  /// kind does not name are ignored). Callers gate on recording() once
  /// per round or pass, not per event.
  void event(EventKind kind, std::uint64_t round, std::uint64_t a = 0,
             std::uint64_t b = 0, std::uint64_t c = 0);

  std::size_t events() const noexcept;
  std::size_t dropped() const noexcept;

  /// Fold all buffers into one Chrome-trace JSON document
  /// (Perfetto-loadable: {"traceEvents": [...], ...}; ts/dur in
  /// microseconds, rebased to the earliest event).
  void write_chrome_trace(std::ostream& os) const;
  /// Returns false (and writes nothing) when the file cannot open.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
    char ph;  // 'X' or 'i'
    std::uint8_t argc;
    std::array<Arg, kMaxArgs> args;
  };
  struct Buffer {
    std::uint32_t tid = 0;
    std::string label;
    std::vector<Event> events;
  };

  Tracer() = default;
  Buffer& local_buffer();
  void push(const char* name, const char* cat, std::uint64_t ts_ns,
            std::uint64_t dur_ns, char ph, const Arg* args, std::size_t argc);

  std::atomic<bool> recording_{false};
  std::atomic<std::size_t> total_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> capacity_{1u << 20};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::unique_ptr<std::string>> interned_;
};

}  // namespace lps::telemetry
