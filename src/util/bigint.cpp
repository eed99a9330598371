#include "util/bigint.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lps {

BigCounter::BigCounter(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigCounter::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigCounter& BigCounter::operator+=(const BigCounter& rhs) {
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  limbs_.resize(n);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned __int128 sum = carry + limbs_[i];
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) limbs_.push_back(static_cast<std::uint64_t>(carry));
  return *this;
}

BigCounter& BigCounter::operator-=(const BigCounter& rhs) {
  if (*this < rhs) {
    throw std::invalid_argument("BigCounter subtraction would underflow");
  }
  unsigned __int128 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const unsigned __int128 sub =
        borrow + (i < rhs.limbs_.size() ? rhs.limbs_[i] : 0);
    if (limbs_[i] >= sub) {
      limbs_[i] -= static_cast<std::uint64_t>(sub);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(1) << 64) + limbs_[i] - sub);
      borrow = 1;
    }
  }
  normalize();
  return *this;
}

std::strong_ordering BigCounter::operator<=>(const BigCounter& rhs) const {
  if (limbs_.size() != rhs.limbs_.size()) {
    return limbs_.size() <=> rhs.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigCounter& BigCounter::shift_left(int bits) {
  assert(bits >= 0 && bits < 64);
  if (bits == 0 || limbs_.empty()) return *this;
  std::uint64_t carry = 0;
  for (auto& limb : limbs_) {
    const std::uint64_t next_carry = limb >> (64 - bits);
    limb = (limb << bits) | carry;
    carry = next_carry;
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

std::size_t BigCounter::bit_size() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

double BigCounter::log2() const {
  if (limbs_.empty()) return -std::numeric_limits<double>::infinity();
  // Use the top two limbs for ~128 bits of mantissa information.
  const std::size_t k = limbs_.size();
  long double top = static_cast<long double>(limbs_[k - 1]);
  if (k >= 2) {
    top = top * 18446744073709551616.0L +  // 2^64
          static_cast<long double>(limbs_[k - 2]);
    return static_cast<double>(std::log2(top)) +
           64.0 * static_cast<double>(k - 2);
  }
  return static_cast<double>(std::log2(top));
}

double BigCounter::to_double() const {
  double d = 0.0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    d = d * 18446744073709551616.0 + static_cast<double>(limbs_[i]);
    if (std::isinf(d)) return d;
  }
  return d;
}

std::uint64_t BigCounter::to_u64() const {
  if (!fits_u64()) {
    throw std::overflow_error("BigCounter does not fit in uint64_t");
  }
  return limbs_.empty() ? 0 : limbs_[0];
}

std::string BigCounter::to_string() const {
  if (limbs_.empty()) return "0";
  // Repeated division by 10^9.
  std::vector<std::uint64_t> work(limbs_.begin(), limbs_.end());
  std::string out;
  while (!work.empty()) {
    std::uint64_t rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      const unsigned __int128 cur =
          (static_cast<unsigned __int128>(rem) << 64) | work[i];
      work[i] = static_cast<std::uint64_t>(cur / 1000000000u);
      rem = static_cast<std::uint64_t>(cur % 1000000000u);
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    // The chunk is 9 decimal digits unless it is the most significant one.
    std::string digits = std::to_string(rem);
    if (!work.empty()) digits.insert(0, 9 - digits.size(), '0');
    out.insert(0, digits);
  }
  return out;
}

std::uint32_t BigCounter::get_bits(std::size_t pos, int count) const {
  assert(count >= 1 && count <= 32);
  std::uint64_t result = 0;
  const std::size_t limb = pos / 64;
  const int offset = static_cast<int>(pos % 64);
  if (limb < limbs_.size()) {
    result = limbs_[limb] >> offset;
    if (offset + count > 64 && limb + 1 < limbs_.size()) {
      result |= limbs_[limb + 1] << (64 - offset);
    }
  }
  const std::uint64_t mask =
      (count == 64) ? ~0ULL : ((std::uint64_t{1} << count) - 1);
  return static_cast<std::uint32_t>(result & mask);
}

std::vector<std::uint32_t> BigCounter::to_chunks(
    int chunk_bits, std::size_t num_chunks) const {
  assert(chunk_bits >= 1 && chunk_bits <= 32);
  if (num_chunks * static_cast<std::size_t>(chunk_bits) < bit_size()) {
    throw std::invalid_argument("BigCounter::to_chunks: too few chunks");
  }
  std::vector<std::uint32_t> chunks(num_chunks);
  // chunks[0] is most significant.
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t pos = (num_chunks - 1 - c) *
                            static_cast<std::size_t>(chunk_bits);
    chunks[c] = get_bits(pos, chunk_bits);
  }
  return chunks;
}

BigCounter BigCounter::from_chunks(const std::vector<std::uint32_t>& chunks,
                                   int chunk_bits) {
  assert(chunk_bits >= 1 && chunk_bits <= 32);
  BigCounter result;
  for (const std::uint32_t chunk : chunks) {
    result.shift_left(chunk_bits);
    result += BigCounter(chunk);
  }
  return result;
}

BigCounter BigCounter::sample_below(const BigCounter& bound, Rng& rng) {
  if (bound.is_zero()) {
    throw std::invalid_argument("BigCounter::sample_below: zero bound");
  }
  const std::size_t bits = bound.bit_size();
  const std::size_t full_limbs = bits / 64;
  const int top_bits = static_cast<int>(bits % 64);
  for (;;) {
    BigCounter candidate;
    candidate.limbs_.resize(full_limbs + (top_bits ? 1 : 0));
    for (std::size_t i = 0; i < full_limbs; ++i) candidate.limbs_[i] = rng();
    if (top_bits != 0) {
      candidate.limbs_.back() = rng() >> (64 - top_bits);
    }
    candidate.normalize();
    if (candidate < bound) return candidate;
  }
}

}  // namespace lps
