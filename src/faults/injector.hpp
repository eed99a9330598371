// Message-fault injector: the engine-side half of the fault layer.
//
// The SyncNetwork consults one injector at its channel exchange. Every
// message's fate — drop, duplicate, or bounded delay — is a pure
// function of (injector seed, channel arc, sender, delivery round), so
// the injected schedule is bit-identical across thread counts and
// shard counts: the adversary is seeded, not scheduled. Inbox
// reordering likewise derives a per-(receiver, round) generator, so
// the same permutation is applied no matter which shard sorts the
// inbox.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "faults/fault_plan.hpp"
#include "graph/storage.hpp"
#include "util/rng.hpp"

namespace lps::faults {

/// Fate of one in-flight message. At most one fault applies per
/// message (one uniform draw against cumulative probabilities), so
/// drop/delay/dup rates compose without correlation surprises.
struct MessageFate {
  bool drop = false;
  bool dup = false;
  std::uint32_t delay = 0;  // extra rounds to hold the message; 0 = deliver
};

/// Injection counters, readable after a run for reporting.
struct InjectorCounters {
  std::uint64_t decided = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered_inboxes = 0;
};

class MessageFaultInjector {
 public:
  MessageFaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(splitmix64(seed ^ kFateSalt)) {}

  bool message_faults() const noexcept { return plan_.message_faults(); }
  bool reorder() const noexcept { return plan_.reorder; }
  const FaultPlan& plan() const noexcept { return plan_; }

  /// Fate of the message travelling on channel `edge` from `from`, due
  /// for delivery in `round`. Called serially by the engine (once per
  /// message, at its first delivery attempt; a delayed message is not
  /// re-decided when it is released).
  MessageFate decide(EdgeId edge, NodeId from, std::uint64_t round) noexcept {
    ++counters_.decided;
    MessageFate fate;
    Rng rng = Rng::substream(seed_, std::uint64_t{edge} << 32 | from, round);
    const double u = rng.uniform01();
    double acc = plan_.drop;
    if (u < acc) {
      fate.drop = true;
      ++counters_.dropped;
      return fate;
    }
    if (plan_.delay_rounds > 0) {
      acc += plan_.delay_p;
      if (u < acc) {
        fate.delay = 1 + static_cast<std::uint32_t>(rng.below(plan_.delay_rounds));
        ++counters_.delayed;
        return fate;
      }
    }
    if (u < acc + plan_.dup) {
      fate.dup = true;
      ++counters_.duplicated;
    }
    return fate;
  }

  /// Deterministic generator for shuffling `receiver`'s inbox in
  /// `round`; depends on neither thread nor shard assignment.
  Rng reorder_rng(NodeId receiver, std::uint64_t round) const noexcept {
    return Rng::substream(seed_, kReorderSalt ^ receiver, round);
  }

  /// Count one shuffled inbox (called from shard-parallel delivery).
  void note_reordered() noexcept {
    reordered_.fetch_add(1, std::memory_order_relaxed);
  }

  InjectorCounters counters() const {
    InjectorCounters c = counters_;
    c.reordered_inboxes = reordered_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  static constexpr std::uint64_t kFateSalt = 0xfa17'1e55'c0de'd00dULL;
  static constexpr std::uint64_t kReorderSalt = 0x5bu ^ 0x9e3779b97f4a7c15ULL;

  FaultPlan plan_;
  std::uint64_t seed_;
  InjectorCounters counters_;  // mutated serially in decide()
  std::atomic<std::uint64_t> reordered_{0};
};

/// Parse `spec` (a registered preset name or an explicit plan; see
/// scenarios.hpp) and build an injector when the plan carries
/// message-layer faults. Returns nullptr for the empty spec and for
/// plans with graph faults only; malformed specs throw.
std::unique_ptr<MessageFaultInjector> make_message_injector(
    const std::string& spec, std::uint64_t seed);

}  // namespace lps::faults
