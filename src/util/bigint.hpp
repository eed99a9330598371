// Arbitrary-precision unsigned counter.
//
// Algorithm 3 of the paper counts augmenting paths per edge; Lemma 3.6
// bounds the counts by Delta^{ceil(d/2)}, which overflows any fixed-width
// integer for even modest Delta and path length. The paper's CONGEST
// implementation (Lemma 3.7) transmits these counts as a pipeline of
// O(log Delta)-bit chunks, most significant first. `BigCounter` is the
// in-memory representation plus exactly that chunked wire format.
//
// The first 64-bit limb lives inline; only longer values spill to the
// heap. Lemma 3.6's bound fits in one limb while ceil(d/2) * log2(Delta)
// < 64, and at the degrees and path lengths the benchmarks run (Delta <=
// 17, augmenting paths of at most 5 edges, so n_v <= 17^3) every count
// does. Such a count owns no heap block, and construction from a word,
// one-limb additions that do not carry and bit_size() are inline. (The
// counting pass sends a count as one word, not as a BigCounter: see
// core/bipartite_counting.cpp.)
//
// Supported operations are the ones the algorithms need: addition,
// subtraction (for weighted-bucket sampling), comparison, chunked
// (de)serialization, logarithms (for order-statistics sampling of the
// token values in the MIS emulation), and uniform sampling below a bound.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace lps {

class BigCounter {
 public:
  /// Zero.
  BigCounter() = default;

  /// From a 64-bit value.
  BigCounter(std::uint64_t v) {  // NOLINT(google-explicit-constructor)
    if (v != 0) limbs_.push_back(v);
  }

  BigCounter& operator+=(const BigCounter& rhs) {
    if (limbs_.size() <= 1 && rhs.limbs_.size() <= 1) {
      const std::uint64_t a = low();
      const std::uint64_t sum = a + rhs.low();
      if (sum >= a) {  // no carry: the sum stays in one limb
        limbs_.clear();
        if (sum != 0) limbs_.push_back(sum);
        return *this;
      }
    }
    return add(rhs);
  }
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

  /// Set to zero, keeping a spilled value's heap block for reuse.
  void clear() noexcept { limbs_.clear(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_size() const noexcept {
    if (limbs_.empty()) return 0;
    return 64 * (limbs_.size() - 1) +
           static_cast<std::size_t>(std::bit_width(limbs_.back()));
  }

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
  /// The std::vector operations BigCounter uses, over a small buffer:
  /// capacity 1 is the inline limb, a larger capacity is a heap block.
  /// Shrinking and clear() keep the block; only growth past the capacity
  /// reallocates. A moved-from store is empty and inline.
  class Limbs {
   public:
    Limbs() noexcept = default;
    Limbs(const Limbs& o) { *this = o; }
    Limbs(Limbs&& o) noexcept : size_(o.size_), cap_(o.cap_) {
      if (o.spilled()) {
        heap_ = o.heap_;
        o.inline_ = 0;
        o.cap_ = 1;
      } else {
        inline_ = o.inline_;
      }
      o.size_ = 0;
    }
    Limbs& operator=(const Limbs& o) {
      if (this != &o) {
        reserve(o.size_);
        std::copy_n(o.data(), o.size_, data());
        size_ = o.size_;
      }
      return *this;
    }
    Limbs& operator=(Limbs&& o) noexcept {
      if (this == &o) return *this;
      if (o.spilled()) {
        release();
        heap_ = o.heap_;
        cap_ = o.cap_;
        o.inline_ = 0;
        o.cap_ = 1;
      } else if (o.size_ != 0) {
        data()[0] = o.inline_;  // keeps this store's heap block, if any
      }
      size_ = o.size_;
      o.size_ = 0;
      return *this;
    }
    ~Limbs() { release(); }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::uint64_t* data() noexcept { return spilled() ? heap_ : &inline_; }
    const std::uint64_t* data() const noexcept {
      return spilled() ? heap_ : &inline_;
    }
    std::uint64_t* begin() noexcept { return data(); }
    std::uint64_t* end() noexcept { return data() + size_; }
    const std::uint64_t* begin() const noexcept { return data(); }
    const std::uint64_t* end() const noexcept { return data() + size_; }
    std::uint64_t& operator[](std::size_t i) noexcept { return data()[i]; }
    std::uint64_t operator[](std::size_t i) const noexcept {
      return data()[i];
    }
    std::uint64_t& back() noexcept { return data()[size_ - 1]; }
    std::uint64_t back() const noexcept { return data()[size_ - 1]; }

    void clear() noexcept { size_ = 0; }
    void pop_back() noexcept { --size_; }
    void push_back(std::uint64_t limb) {
      reserve(std::size_t{size_} + 1);
      data()[size_++] = limb;
    }
    /// New limbs are zero, as with std::vector::resize.
    void resize(std::size_t n) {
      reserve(n);
      if (n > size_) std::fill(data() + size_, data() + n, 0);
      size_ = static_cast<std::uint32_t>(n);
    }

    friend bool operator==(const Limbs& a, const Limbs& b) noexcept {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    bool spilled() const noexcept { return cap_ > 1; }
    void release() noexcept {
      if (spilled()) delete[] heap_;
    }
    void reserve(std::size_t n) {
      if (n <= cap_) return;
      if (n > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("BigCounter: too many limbs");
      }
      const std::size_t grown = std::min<std::size_t>(
          std::max<std::size_t>(n, 2 * std::size_t{cap_}),
          std::numeric_limits<std::uint32_t>::max());
      auto* block = new std::uint64_t[grown];
      std::copy_n(data(), size_, block);
      release();
      heap_ = block;
      cap_ = static_cast<std::uint32_t>(grown);
    }

    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 1;
    union {
      std::uint64_t inline_ = 0;  // active while cap_ == 1
      std::uint64_t* heap_;       // active while cap_ > 1
    };
  };

  /// The general addition, for sums past one limb.
  BigCounter& add(const BigCounter& rhs);
  /// The lowest limb (0 for zero).
  std::uint64_t low() const noexcept {
    return limbs_.empty() ? 0 : limbs_[0];
  }
  void normalize();
  /// Extract `count` (<= 32) bits starting at bit `pos` (LSB order).
  std::uint32_t get_bits(std::size_t pos, int count) const;

  // Little-endian limbs; normalized: no trailing zero limbs, empty == 0.
  Limbs limbs_;
};

}  // namespace lps
