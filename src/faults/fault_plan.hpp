// Fault plans: the parsed form of a fault-injection spec string.
//
// A plan is written like a generator spec — `name:key=value,...` — and
// describes two independent fault families:
//
//   * message-layer faults, applied at the round engine's channel
//     exchange (drop / duplicate / bounded delay / inbox reorder);
//   * graph-layer faults, applied through the dynamic maintainers
//     (vertex crash/recover flaps and an adaptive adversary deleting
//     currently-matched edges), organized into `epochs` fault epochs.
//
// Plans only describe faults; injection lives in injector.hpp (message
// layer) and recovery.hpp (graph layer + recovery protocol).
#pragma once

#include <cstdint>
#include <string>

namespace lps::faults {

/// Parsed fault-injection plan. All probabilities are per-message
/// (message layer) or per-epoch fractions (graph layer).
struct FaultPlan {
  std::string name = "none";

  // --- message layer (engine channel exchange) ---
  /// Probability a message is silently dropped.
  double drop = 0.0;
  /// Probability a message is delivered twice in the same round.
  double dup = 0.0;
  /// Probability a message is delayed (only when delay_rounds > 0).
  double delay_p = 0.0;
  /// Maximum extra rounds a delayed message is held (uniform in
  /// [1, delay_rounds]).
  std::uint32_t delay_rounds = 0;
  /// Shuffle each receiver's inbox deterministically every round.
  bool reorder = false;

  // --- graph layer (fault epochs through the dynamic maintainers) ---
  /// Fraction of live vertices crashed per epoch (>0 crashes >=1).
  double flap = 0.0;
  /// Epochs a crashed vertex stays down before it is revived.
  std::uint32_t down_epochs = 1;
  /// Fraction of currently-matched edges the adaptive adversary
  /// deletes per epoch (>0 deletes >=1 while the matching is nonempty).
  double adversarial = 0.0;
  /// Number of fault epochs the recovery session runs.
  std::uint32_t epochs = 0;

  /// Any fault the engine's message exchange must apply.
  bool message_faults() const noexcept {
    return drop > 0.0 || dup > 0.0 || (delay_rounds > 0 && delay_p > 0.0) ||
           reorder;
  }
  /// Any fault the graph-layer recovery session must drive.
  bool graph_faults() const noexcept {
    return flap > 0.0 || adversarial > 0.0;
  }
  bool any() const noexcept { return message_faults() || graph_faults(); }

  /// Canonical spec string that re-parses to this plan.
  std::string to_spec() const;
};

/// Parse an explicit `name:key=value,...` plan. Keys: drop, dup, delay
/// (max extra rounds), delay_p, reorder, flap, down, adversarial,
/// epochs. Throws std::invalid_argument on unknown keys or values out
/// of range (probabilities must lie in [0,1] and drop+delay_p+dup <= 1
/// so one uniform draw decides each message's fate).
FaultPlan parse_fault_plan(const std::string& spec);

}  // namespace lps::faults
