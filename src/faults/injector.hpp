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
//
// The injector keeps no counters: deciding a fate writes nothing, and
// what happened to each message is recorded once, as the engine's
// `drop`, `dup` and `delay` trace instants (DESIGN.md §13).
#pragma once

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

class MessageFaultInjector {
 public:
  MessageFaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(splitmix64(seed ^ kFateSalt)) {}

  bool message_faults() const noexcept { return plan_.message_faults(); }
  bool reorder() const noexcept { return plan_.reorder; }
  const FaultPlan& plan() const noexcept { return plan_; }

  /// Fate of the message travelling on channel `edge` from `from`, due
  /// for delivery in `round`. The engine asks once per message, at its
  /// first delivery attempt; a delayed message is not re-decided when
  /// it is released.
  MessageFate decide(EdgeId edge, NodeId from,
                     std::uint64_t round) const noexcept {
    MessageFate fate;
    Rng rng = Rng::substream(seed_, std::uint64_t{edge} << 32 | from, round);
    const double u = rng.uniform01();
    double acc = plan_.drop;
    if (u < acc) {
      fate.drop = true;
      return fate;
    }
    if (plan_.delay_rounds > 0) {
      acc += plan_.delay_p;
      if (u < acc) {
        fate.delay = 1 + static_cast<std::uint32_t>(rng.below(plan_.delay_rounds));
        return fate;
      }
    }
    fate.dup = u < acc + plan_.dup;
    return fate;
  }

  /// Deterministic generator for shuffling `receiver`'s inbox in
  /// `round`; depends on neither thread nor shard assignment.
  Rng reorder_rng(NodeId receiver, std::uint64_t round) const noexcept {
    return Rng::substream(seed_, kReorderSalt ^ receiver, round);
  }

 private:
  static constexpr std::uint64_t kFateSalt = 0xfa17'1e55'c0de'd00dULL;
  static constexpr std::uint64_t kReorderSalt = 0x5bu ^ 0x9e3779b97f4a7c15ULL;

  FaultPlan plan_;
  std::uint64_t seed_;
};

/// Parse `spec` (a registered preset name or an explicit plan; see
/// scenarios.hpp) and build an injector when the plan carries
/// message-layer faults. Returns nullptr for the empty spec and for
/// plans with graph faults only; malformed specs throw.
std::unique_ptr<MessageFaultInjector> make_message_injector(
    const std::string& spec, std::uint64_t seed);

}  // namespace lps::faults
