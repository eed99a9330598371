// Live progress + stall watchdog (DESIGN.md §14).
//
// Two pieces:
//
//  * ProgressBoard — a seqlock-style snapshot (current round, cumulative
//    delivered messages, active-set size, last-heartbeat ns) the engine
//    publishes once per round. The write path is advisory and never
//    blocks: a try-exchange writer flag skips the publish when another
//    writer holds the board, and all fields are relaxed atomics so the
//    seqlock is data-race-free under TSan. Readers retry on a torn or
//    in-progress sequence. Gated by publishing(), one relaxed load per
//    round, like telemetry::enabled().
//
//  * Monitor — a background sampler thread that reads the board every
//    interval, renders a one-line status to stderr (msgs/sec derived
//    from delivered deltas), and optionally arms a stall watchdog: when
//    neither the round nor the delivered count advances within the
//    deadline, it dumps the board state and the atomic per-shard and
//    per-worker engine counters, records a `watchdog` trace instant —
//    then either aborts the process with kWatchdogExitCode or latches
//    stalled(). The dump never reads a recorder buffer: other threads
//    may still be appending to theirs.
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

struct ProgressSnapshot {
  std::uint64_t round = 0;
  std::uint64_t delivered_total = 0;  // cumulative messages delivered
  std::uint64_t active_nodes = 0;     // nodes stepped last round
  std::uint64_t heartbeat_ns = 0;     // now_ns at publish
};

class ProgressBoard {
 public:
  static ProgressBoard& global();

  bool publishing() const noexcept {
    return publishing_.load(std::memory_order_relaxed);
  }
  /// Arm/disarm the board. Monitor arms it on construction; publish()
  /// callers gate on publishing() once per round.
  void set_publishing(bool on) noexcept;

  /// Publish a snapshot. Never blocks: if another writer is mid-publish
  /// the call is dropped (the next round's publish supersedes it).
  void publish(std::uint64_t round, std::uint64_t delivered_total,
               std::uint64_t active_nodes, std::uint64_t heartbeat_ns) noexcept;

  /// Read a consistent snapshot. Returns false when nothing has been
  /// published yet or a consistent read could not be obtained.
  bool read(ProgressSnapshot& out) const noexcept;

 private:
  ProgressBoard() = default;

  // Seqlock: seq_ is odd while a write is in flight; readers accept a
  // snapshot only when seq_ is even and unchanged across the field
  // reads. writer_busy_ serializes writers without ever blocking them.
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<bool> writer_busy_{false};
  std::atomic<std::uint64_t> round_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> publishing_{false};
};

struct MonitorOptions {
  /// Status-line period. Also the sampler tick upper bound.
  int interval_ms = 1000;
  /// Watchdog deadline: if no snapshot field advances for this long the
  /// stall dump fires. 0 disables the watchdog.
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

  /// Stop the sampler thread (idempotent; the destructor calls it).
  void stop();

  /// True once the watchdog observed a stall (abort_on_stall=false).
  bool stalled() const noexcept {
    return stalled_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void emit_status(const ProgressSnapshot& snap, bool have_snap,
                   double msgs_per_sec);
  void dump_stall(const ProgressSnapshot& snap, bool have_snap,
                  std::uint64_t quiet_ns);

  MonitorOptions opts_;
  std::atomic<bool> stalled_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace lps::telemetry
