// Accounting for synchronous executions: round counts and message/bit
// meters. These numbers are what the benches compare against the paper's
// O(log n) round and O(log n)-bit message claims.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace lps {

struct NetStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;

  void note_message(std::uint64_t bits) noexcept {
    ++messages;
    total_bits += bits;
    max_message_bits = std::max(max_message_bits, bits);
  }

  /// `count` messages of `bits` each.
  void note_messages(std::uint64_t count, std::uint64_t bits) noexcept {
    if (count == 0) return;
    messages += count;
    total_bits += count * bits;
    max_message_bits = std::max(max_message_bits, bits);
  }

  /// Combine counters (parallel workers, or algorithm phases).
  void merge(const NetStats& other) noexcept {
    rounds += other.rounds;
    messages += other.messages;
    total_bits += other.total_bits;
    max_message_bits = std::max(max_message_bits, other.max_message_bits);
  }

  /// Merge message counters but scale the round cost: used when an
  /// overlay round (e.g. one MIS round on the conflict graph C_M(l))
  /// costs `multiplier` physical rounds on G (Lemma 3.3).
  void merge_scaled_rounds(const NetStats& other,
                           std::uint64_t multiplier) noexcept {
    rounds += other.rounds * multiplier;
    messages += other.messages;
    total_bits += other.total_bits;
    max_message_bits = std::max(max_message_bits, other.max_message_bits);
  }
};

// Per-round traces live in src/telemetry (Tracer spans + the
// engine.messages_per_round series); the old RoundTrace struct that sat
// here is subsumed by that layer.

}  // namespace lps
