// Arbitrary-precision unsigned counter.
//
// Algorithm 3 of the paper counts augmenting paths per edge; Lemma 3.6
// bounds the counts by Delta^{ceil(d/2)}, which overflows any fixed-width
// integer for even modest Delta and path length. The paper's CONGEST
// implementation (Lemma 3.7) transmits these counts as a pipeline of
// O(log Delta)-bit chunks, most significant first. `BigCounter` is the
// in-memory representation plus exactly that chunked wire format.
//
// Supported operations are the ones the algorithms need: addition,
// subtraction (for weighted-bucket sampling), comparison, chunked
// (de)serialization, logarithms (for order-statistics sampling of the
// token values in the MIS emulation), and uniform sampling below a bound.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace lps {

class BigCounter {
 public:
  /// Zero.
  BigCounter() = default;

  /// From a 64-bit value.
  BigCounter(std::uint64_t v);  // NOLINT(google-explicit-constructor)

  BigCounter& operator+=(const BigCounter& rhs);
  friend BigCounter operator+(BigCounter lhs, const BigCounter& rhs) {
    lhs += rhs;
    return lhs;
  }

  /// Subtraction; requires *this >= rhs (checked).
  BigCounter& operator-=(const BigCounter& rhs);
  friend BigCounter operator-(BigCounter lhs, const BigCounter& rhs) {
    lhs -= rhs;
    return lhs;
  }

  /// Shift left by `bits` in [0, 63].
  BigCounter& shift_left(int bits);

  std::strong_ordering operator<=>(const BigCounter& rhs) const;
  bool operator==(const BigCounter& rhs) const { return limbs_ == rhs.limbs_; }

  bool is_zero() const { return limbs_.empty(); }

  /// Set to zero, keeping the limb capacity for reuse.
  void clear() noexcept { limbs_.clear(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_size() const;

  /// log2 of the value; returns -infinity for zero.
  double log2() const;

  /// Nearest double (may be +inf for huge values).
  double to_double() const;

  /// True iff the value fits in uint64_t.
  bool fits_u64() const { return limbs_.size() <= 1; }

  /// Value as uint64_t; requires fits_u64() (checked).
  std::uint64_t to_u64() const;

  /// Decimal string.
  std::string to_string() const;

  /// Serialize to exactly `num_chunks` chunks of `chunk_bits` bits each,
  /// most significant chunk first (the paper's pipelined wire order).
  /// Requires num_chunks * chunk_bits >= bit_size(). chunk_bits in [1,32].
  std::vector<std::uint32_t> to_chunks(int chunk_bits,
                                       std::size_t num_chunks) const;

  /// Inverse of to_chunks.
  static BigCounter from_chunks(const std::vector<std::uint32_t>& chunks,
                                int chunk_bits);

  /// Uniform random value in [0, bound); requires bound > 0 (checked).
  static BigCounter sample_below(const BigCounter& bound, Rng& rng);

 private:
  void normalize();
  /// Extract `count` (<= 32) bits starting at bit `pos` (LSB order).
  std::uint32_t get_bits(std::size_t pos, int count) const;

  // Little-endian limbs; normalized: no trailing zero limbs, empty == 0.
  std::vector<std::uint64_t> limbs_;
};

}  // namespace lps
