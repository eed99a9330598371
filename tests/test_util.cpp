// Unit and property tests for src/util: RNG, BigCounter, statistics,
// tables, CLI options.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bigint.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace lps {
namespace {

// ---------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t x = rng.below(10);
    ASSERT_LT(x, 10u);
    ++buckets[x];
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 10 * 0.15);
  }
}

TEST(Rng, BelowPowerOfTwo) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(64), 64u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const double y = rng.uniform01_open();
    EXPECT_GT(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(Rng, UniformIntCoversClosedRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, SubstreamIndependentOfCallOrder) {
  const Rng a = Rng::substream(9, 4u, 7u);
  const Rng b = Rng::substream(9, 4u, 7u);
  Rng c = a, d = b;
  EXPECT_EQ(c(), d());
  // Different salts give different streams.
  Rng e = Rng::substream(9, 4u, 8u);
  Rng f = a;
  EXPECT_NE(e(), f());
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

// --------------------------------------------------------- BigCounter --

TEST(BigCounter, ZeroProperties) {
  BigCounter z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_size(), 0u);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.to_u64(), 0u);
  EXPECT_EQ(z.to_double(), 0.0);
  EXPECT_TRUE(std::isinf(z.log2()));
}

TEST(BigCounter, SmallArithmeticMatchesU64) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng() >> 2, b = rng() >> 2;
    BigCounter x(a), y(b);
    EXPECT_EQ((x + y).to_string(), std::to_string(a + b));
    if (a >= b) {
      EXPECT_EQ((x - y).to_u64(), a - b);
    } else {
      EXPECT_THROW(x - y, std::invalid_argument);
    }
    EXPECT_EQ(x < y, a < b);
    EXPECT_EQ(x == y, a == b);
  }
}

TEST(BigCounter, CarryChains) {
  BigCounter x(~0ULL);
  BigCounter one(1);
  BigCounter sum = x + one;  // 2^64: the first value past one limb
  EXPECT_EQ(sum.bit_size(), 65u);
  EXPECT_EQ(sum.to_string(), "18446744073709551616");
  EXPECT_FALSE(sum.fits_u64());
  EXPECT_THROW(sum.to_u64(), std::overflow_error);
  const BigCounter back = sum - one;
  EXPECT_EQ(back, x);
  EXPECT_TRUE(back.fits_u64());
  EXPECT_EQ(back.to_u64(), ~0ULL);
  // One-limb sums: zero stays the empty value, and a counter may add
  // itself, with and without a carry.
  BigCounter zero;
  zero += BigCounter(0);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero, BigCounter());
  BigCounter twice(3);
  twice += twice;
  EXPECT_EQ(twice, BigCounter(6));
  BigCounter wraps(std::uint64_t{1} << 63);
  wraps += wraps;
  EXPECT_EQ(wraps, sum);
}

TEST(BigCounter, LargeAdditionAgainstInt128) {
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a_lo = rng(), b_lo = rng();
    const std::uint64_t a_hi = rng() >> 33, b_hi = rng() >> 33;
    unsigned __int128 a = (static_cast<unsigned __int128>(a_hi) << 64) | a_lo;
    unsigned __int128 b = (static_cast<unsigned __int128>(b_hi) << 64) | b_lo;
    BigCounter x(a_lo);
    BigCounter hi_part(a_hi);
    for (int s = 0; s < 64; s += 32) hi_part.shift_left(32);
    x += hi_part;
    BigCounter y(b_lo);
    BigCounter hi_b(b_hi);
    for (int s = 0; s < 64; s += 32) hi_b.shift_left(32);
    y += hi_b;
    const unsigned __int128 sum = a + b;
    BigCounter z = x + y;
    // Compare via chunked decomposition.
    const auto chunks = z.to_chunks(32, 5);
    unsigned __int128 recon = 0;
    bool overflow_past_128 = false;
    for (std::uint32_t c : chunks) {
      if (recon >> 96 != 0) overflow_past_128 = true;
      recon = (recon << 32) | c;
    }
    ASSERT_FALSE(overflow_past_128);
    EXPECT_TRUE(recon == sum);
  }
}

TEST(BigCounter, ChunksRoundTrip) {
  Rng rng(31);
  for (int bits : {1, 3, 8, 16, 31, 32}) {
    for (int i = 0; i < 200; ++i) {
      BigCounter x(rng());
      x.shift_left(static_cast<int>(rng.below(40)));
      x += BigCounter(rng());
      const std::size_t chunks_needed =
          (x.bit_size() + bits - 1) / static_cast<std::size_t>(bits) + 1;
      const auto chunks = x.to_chunks(bits, chunks_needed);
      EXPECT_EQ(BigCounter::from_chunks(chunks, bits), x)
          << "bits=" << bits;
    }
  }
}

TEST(BigCounter, ChunksTooFewThrows) {
  BigCounter x(255);
  EXPECT_THROW(x.to_chunks(4, 1), std::invalid_argument);
  EXPECT_NO_THROW(x.to_chunks(4, 2));
}

TEST(BigCounter, ChunksMostSignificantFirst) {
  BigCounter x(0xABCD);
  const auto chunks = x.to_chunks(4, 4);
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0xA, 0xB, 0xC, 0xD}));
}

TEST(BigCounter, Log2Accuracy) {
  BigCounter x(1);
  EXPECT_DOUBLE_EQ(x.log2(), 0.0);
  BigCounter y(1024);
  EXPECT_DOUBLE_EQ(y.log2(), 10.0);
  // 2^200.
  BigCounter big(1);
  for (int i = 0; i < 200; i += 50) {
    BigCounter tmp = big;
    for (int s = 0; s < 50; s += 25) tmp.shift_left(25);
    big = tmp;
  }
  EXPECT_NEAR(big.log2(), 200.0, 1e-9);
}

TEST(BigCounter, ToDoubleMatchesForExactRange) {
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng() >> 12;  // < 2^52: exactly representable
    EXPECT_EQ(BigCounter(v).to_double(), static_cast<double>(v));
  }
}

TEST(BigCounter, SampleBelowInRangeAndCoversSmallCases) {
  Rng rng(41);
  BigCounter bound(6);
  std::map<std::uint64_t, int> hist;
  for (int i = 0; i < 6000; ++i) {
    BigCounter s = BigCounter::sample_below(bound, rng);
    ASSERT_TRUE(s < bound);
    ++hist[s.to_u64()];
  }
  for (std::uint64_t v = 0; v < 6; ++v) {
    EXPECT_GT(hist[v], 700) << v;  // roughly uniform (expected 1000)
  }
}

TEST(BigCounter, SampleBelowHuge) {
  Rng rng(43);
  BigCounter bound(1);
  for (int s = 0; s < 150; s += 30) bound.shift_left(30);  // 2^150
  for (int i = 0; i < 50; ++i) {
    BigCounter s = BigCounter::sample_below(bound, rng);
    EXPECT_TRUE(s < bound);
  }
  EXPECT_THROW(BigCounter::sample_below(BigCounter{}, rng),
               std::invalid_argument);
}

TEST(BigCounter, DecimalStringKnownValues) {
  EXPECT_EQ(BigCounter(123456789).to_string(), "123456789");
  BigCounter x(10);
  // 10 * 2^64 + 5
  x.shift_left(32);
  x.shift_left(32);
  x += BigCounter(5);
  EXPECT_EQ(x.to_string(), "184467440737095516165");
}

// A one-limb count is one 16-byte value that owns no heap block, and a
// column of counts (the counting pass's totals) moves rather than copies
// them when it grows (vector growth moves only nothrow-movable elements).
static_assert(sizeof(BigCounter) <= 16);
static_assert(std::is_nothrow_move_constructible_v<BigCounter>);
static_assert(std::is_nothrow_move_assignable_v<BigCounter>);

/// The counter whose little-endian 64-bit limbs are `limbs`.
BigCounter from_limbs(const std::vector<std::uint64_t>& limbs) {
  BigCounter x;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    x.shift_left(32);
    x.shift_left(32);
    x += BigCounter(limbs[i]);
  }
  return x;
}

TEST(BigCounter, ShiftAcrossTheLimbBoundaryAndBack) {
  BigCounter x((std::uint64_t{1} << 63) | 1);
  x.shift_left(1);  // 2^64 + 2
  EXPECT_EQ(x.bit_size(), 65u);
  EXPECT_FALSE(x.fits_u64());
  EXPECT_EQ(x.to_string(), "18446744073709551618");
  x -= BigCounter(~0ULL);
  EXPECT_EQ(x, BigCounter(3));
  EXPECT_TRUE(x.fits_u64());
  x.shift_left(63);  // 3 * 2^63 = 2^64 + 2^63
  EXPECT_EQ(x, from_limbs({std::uint64_t{1} << 63, 1}));
  x -= BigCounter(std::uint64_t{1} << 63);
  x -= BigCounter(std::uint64_t{1} << 63);
  EXPECT_EQ(x.to_u64(), std::uint64_t{1} << 63);
}

TEST(BigCounter, CopyAndMoveBetweenInlineAndSpilled) {
  const BigCounter small(42);
  const BigCounter big = from_limbs({6, 1});      // 2^64 + 6
  const BigCounter huge = from_limbs({0, 0, 1});  // 2^128
  for (const BigCounter& value : {small, big}) {
    for (const BigCounter& target : {BigCounter(5), huge}) {
      SCOPED_TRACE(value.to_string() + " into " + target.to_string());
      const BigCounter copied(value);
      EXPECT_EQ(copied, value);
      BigCounter copy_assigned = target;
      copy_assigned = value;
      EXPECT_EQ(copy_assigned, value);

      BigCounter source = value;
      BigCounter moved(std::move(source));
      EXPECT_EQ(moved, value);
      EXPECT_TRUE(source.is_zero());
      BigCounter move_assigned = target;
      move_assigned = std::move(moved);
      EXPECT_EQ(move_assigned, value);
      EXPECT_TRUE(moved.is_zero());

      // A moved-from counter takes new values, inline or spilled.
      source += BigCounter(3);
      EXPECT_EQ(source, BigCounter(3));
      moved = huge;
      EXPECT_EQ(moved, huge);
    }
  }
  EXPECT_EQ(big.to_string(), "18446744073709551622");  // sources unchanged
}

TEST(BigCounter, SelfAssignmentKeepsTheValue) {
  for (const BigCounter& value : {BigCounter(42), from_limbs({6, 1})}) {
    BigCounter x = value;
    BigCounter& alias = x;
    x = alias;
    EXPECT_EQ(x, value);
    x = std::move(alias);
    EXPECT_EQ(x, value);
  }
}

TEST(BigCounter, ClearedSpilledCounterIsZeroAndReusable) {
  BigCounter x = from_limbs({0, 0, 1});
  x.clear();
  EXPECT_TRUE(x.is_zero());
  EXPECT_EQ(x.bit_size(), 0u);
  EXPECT_EQ(x, BigCounter{});
  x += BigCounter(5);
  EXPECT_EQ(x, BigCounter(5));
  EXPECT_TRUE(x.fits_u64());
  x.shift_left(63);
  x.shift_left(63);  // 5 * 2^126
  EXPECT_EQ(x, from_limbs({0, std::uint64_t{1} << 62, 1}));
}

/// Little-endian limb comparison: a < b.
bool limbs_less(const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

/// sample_below over plain limb vectors: fill ceil(bits/64) limbs from
/// rng(), shift the top limb right by 64 - (bits mod 64), and reject
/// values >= bound. The counter's sampler must draw exactly these.
std::vector<std::uint64_t> reference_sample_below(
    const std::vector<std::uint64_t>& bound, Rng& rng) {
  const std::size_t bits =
      64 * (bound.size() - 1) + std::bit_width(bound.back());
  const std::size_t full_limbs = bits / 64;
  const int top_bits = static_cast<int>(bits % 64);
  for (;;) {
    std::vector<std::uint64_t> candidate(full_limbs + (top_bits ? 1 : 0));
    for (std::size_t i = 0; i < full_limbs; ++i) candidate[i] = rng();
    if (top_bits != 0) candidate.back() = rng() >> (64 - top_bits);
    while (!candidate.empty() && candidate.back() == 0) candidate.pop_back();
    if (limbs_less(candidate, bound)) return candidate;
  }
}

TEST(BigCounter, SampleBelowDrawsTheReferenceSequence) {
  const std::vector<std::vector<std::uint64_t>> bounds = {
      {6},
      {(std::uint64_t{1} << 63) + 5},
      {~0ULL},
      {3, 1},                       // 2^64 + 3
      {0, std::uint64_t{1} << 36},  // 2^100
  };
  for (const auto& bound_limbs : bounds) {
    const BigCounter bound = from_limbs(bound_limbs);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed), ref_rng(seed);
      for (int i = 0; i < 200; ++i) {
        const BigCounter s = BigCounter::sample_below(bound, rng);
        ASSERT_EQ(s, from_limbs(reference_sample_below(bound_limbs, ref_rng)))
            << bound.to_string() << " seed " << seed << " draw " << i;
      }
      EXPECT_EQ(rng(), ref_rng()) << "the streams must stay in step";
    }
  }
}

// -------------------------------------------------------------- Stats --

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, MergeEqualsSequential) {
  Rng rng(47);
  StreamingStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10 - 5;
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Percentile, NearestRankMatchesTheFormulaItReplaced) {
  // The one percentile over exact samples replaced two copies of one
  // formula (fault recovery's and trace_summary's): the sample at rank
  // round(p * (n - 1)), clamped to the last.
  const auto old_formula = [](const std::vector<std::uint64_t>& sorted,
                              double p) {
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  };
  Rng rng(2026);
  for (const std::size_t n : {1u, 2u, 5u, 100u}) {
    std::vector<std::uint64_t> sorted(n);
    for (std::uint64_t& v : sorted) v = rng.below(1000000);
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(percentile(sorted, p), old_formula(sorted, p))
          << "n=" << n << " p=" << p;
    }
  }
  const std::vector<std::uint64_t> five = {10, 20, 30, 40, 50};
  EXPECT_EQ(percentile(five, 0.50), 30u);
  EXPECT_EQ(percentile(five, 0.99), 50u);
  EXPECT_EQ(percentile(std::vector<std::uint64_t>{7, 9}, 0.50), 9u);
  EXPECT_EQ(percentile(std::vector<double>{}, 0.5), 0.0);
}

TEST(Samples, QuantilesAndExtremes) {
  Samples s;
  for (int i = 10; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
  EXPECT_NEAR(s.mean(), 5.5, 1e-12);
  EXPECT_THROW(s.quantile(1.5), std::invalid_argument);
  Samples empty;
  EXPECT_THROW(empty.quantile(0.5), std::logic_error);
}

// -------------------------------------------------------------- Table --

TEST(Table, MarkdownLayout) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("b").cell(std::size_t{42});
  std::ostringstream os;
  t.print_markdown(os);
  const std::string expect =
      "| name  | value |\n"
      "|-------|-------|\n"
      "| alpha | 1.5   |\n"
      "| b     | 42    |\n";
  EXPECT_EQ(os.str(), expect);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.row().cell("x,y").cell("quote\"inside");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"quote\"\"inside\"\n");
}

TEST(Table, IncompleteRowThrows) {
  Table t({"a", "b"});
  t.row().cell("only-one");
  EXPECT_THROW(t.row(), std::logic_error);
  Table t2({"a"});
  EXPECT_THROW(t2.cell("no-row"), std::logic_error);
}

// ------------------------------------------------------------ Options --

TEST(Options, ParsesAllForms) {
  // Note: a bare `--flag` followed by a non-dashed token would consume
  // it as the flag's value, so positionals go before valueless flags.
  const char* argv[] = {"prog", "positional", "--alpha=3", "--beta", "7",
                        "--gamma=x y", "--flag"};
  Options opts(7, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("alpha", 0), 3);
  EXPECT_EQ(opts.get_int("beta", 0), 7);
  EXPECT_TRUE(opts.get_bool("flag", false));
  EXPECT_EQ(opts.get("gamma", ""), "x y");
  EXPECT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "positional");
  EXPECT_EQ(opts.get_int("missing", -1), -1);
  EXPECT_DOUBLE_EQ(opts.get_double("missing", 2.5), 2.5);
}

/// The message check_flags() throws, or "" when it accepts.
std::string check_message(const Options& opts) {
  try {
    opts.check_flags();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Options, MalformedValuesAreRefusedAtTheCheck) {
  // Each getter hands back its fallback; check_flags() names the first
  // malformed value read, ahead of an unknown flag.
  const char* argv[] = {"prog",        "--typo=1",  "--flag=maybe",
                        "--n=x",       "--r=1.5q",  "--count=-1"};
  Options opts(6, const_cast<char**>(argv));
  EXPECT_FALSE(opts.get_bool("flag", false));
  EXPECT_EQ(opts.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(opts.get_double("r", 2.0), 2.0);
  EXPECT_EQ(opts.get_count("count", 3), 3u);
  EXPECT_EQ(check_message(opts), "bad boolean for '--flag': 'maybe'");

  const auto count_message = [](const char* arg) {
    const char* one[] = {"prog", arg};
    Options o(2, const_cast<char**>(one));
    o.get_count("v", 5, 8);
    return check_message(o);
  };
  EXPECT_EQ(count_message("--v=abc"), "bad integer for '--v': 'abc'");
  EXPECT_EQ(count_message("--v=3x"), "bad integer for '--v': '3x'");
  EXPECT_EQ(count_message("--v="), "bad integer for '--v': ''");
  EXPECT_EQ(count_message("--v=-1"), "bad count for '--v': '-1' (negative)");
  EXPECT_EQ(count_message("--v=9"), "bad count for '--v': '9' (at most 8)");
  EXPECT_EQ(count_message("--v=0"), "");
  EXPECT_EQ(count_message("--v=8"), "");
}

TEST(Options, UnreadFlagsAreUnknown) {
  const char* argv[] = {"prog", "--trace=t.json", "--trcae", "x"};
  Options opts(4, const_cast<char**>(argv));
  EXPECT_EQ(opts.get("trace", ""), "t.json");
  EXPECT_EQ(check_message(opts), "unknown flag '--trcae'");
  EXPECT_EQ(opts.get("trcae", ""), "x");  // read with any getter counts
  EXPECT_NO_THROW(opts.check_flags());
}

TEST(Options, RunMainTurnsSpecErrorsIntoExitTwo) {
  const char* argv[] = {"/some/dir/prog", "--n=3"};
  const auto run = [&](int (*body)(const Options&)) {
    return run_main(2, const_cast<char**>(argv), body);
  };
  EXPECT_EQ(run([](const Options& o) {
              return static_cast<int>(o.get_int("n", 0));
            }),
            3);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run([](const Options&) -> int {
              throw std::invalid_argument("unknown solver 'x'");
            }),
            2);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "prog: unknown solver 'x'\n");
  // A broken invariant is not a bad input: it still escapes.
  EXPECT_THROW(run([](const Options&) -> int {
                 throw std::logic_error("invariant");
               }),
               std::logic_error);
}

// --------------------------------------------------------------- JSON --

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(parse_json(text, v, &error)) << error << " in " << text;
  return v;
}

TEST(Json, WriterRoundTripsThroughTheParser) {
  std::string control;
  for (char c = 1; c < 0x20; ++c) control += c;
  const std::vector<std::string> strings = {
      "", "plain", "quote \" inside", "back\\slash", control,
      "h\xc3\xa9llo \xe2\x9c\x93 \xf0\x9d\x84\x9e", "\x7f del"};
  const std::uint64_t two53 = std::uint64_t{1} << 53;
  const std::vector<double> doubles = {
      0.1, 1e-300, 5e-324, DBL_MAX, -0.0, 1.0 / 3.0, 123456.789, -2.5e17};

  JsonObject o;
  JsonObject keyed;  // the strings as keys
  for (std::size_t i = 0; i < strings.size(); ++i) {
    o.add(std::to_string(i) + "s", strings[i]);
    keyed.add(strings[i], strings[i]);
  }
  JsonArray nums;
  for (const double d : doubles) nums.push(d);
  o.add("keyed", keyed)
      .add("doubles", nums)
      .add("u53", two53)
      .add("i53", -static_cast<std::int64_t>(two53))
      .add("int", -7)
      .add("yes", true)
      .add("no", false)
      .add("nan", std::numeric_limits<double>::quiet_NaN())
      .add("inf", std::numeric_limits<double>::infinity())
      .add("ninf", -std::numeric_limits<double>::infinity())
      .add("nested", JsonObject().add("inner", JsonObject().add("k", 1)));
  const std::string text = o.str();
  EXPECT_EQ(text.find('\n'), std::string::npos);  // one line
  const JsonValue v = parse_ok(text);
  ASSERT_TRUE(v.is_object());

  for (std::size_t i = 0; i < strings.size(); ++i) {
    const JsonValue* s = v.find(std::to_string(i) + "s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->string, strings[i]);
    const auto& [key, value] = v.find("keyed")->object.at(i);
    EXPECT_EQ(key, strings[i]);  // keys are escaped too
    EXPECT_EQ(value.string, strings[i]);
  }
  const JsonValue* ds = v.find("doubles");
  ASSERT_NE(ds, nullptr);
  ASSERT_EQ(ds->array.size(), doubles.size());
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ds->array[i].number),
              std::bit_cast<std::uint64_t>(doubles[i]))
        << doubles[i];
  }
  EXPECT_EQ(v.find("u53")->number, static_cast<double>(two53));
  EXPECT_EQ(v.find("i53")->number, -static_cast<double>(two53));
  EXPECT_EQ(v.find("int")->number, -7.0);
  EXPECT_TRUE(v.find("yes")->boolean);
  EXPECT_EQ(v.find("no")->kind, JsonValue::Kind::Bool);
  EXPECT_FALSE(v.find("no")->boolean);
  for (const char* key : {"nan", "inf", "ninf"}) {
    EXPECT_EQ(v.find(key)->kind, JsonValue::Kind::Null) << key;
  }
  EXPECT_EQ(v.find("nested")->find("inner")->find("k")->number, 1.0);
}

TEST(Json, NumbersRenderAsTheShortestRoundTrip) {
  EXPECT_EQ(JsonObject().add("x", 0.1).str(), "{\"x\": 0.1}");
  EXPECT_EQ(JsonObject().add("x", 4.0).str(), "{\"x\": 4}");
  EXPECT_EQ(JsonObject().add("x", -0.0).str(), "{\"x\": -0}");
  EXPECT_EQ(JsonArray().push(0.5).push(std::uint64_t{18446744073709551615u})
                .str(),
            "[0.5, 18446744073709551615]");
  EXPECT_EQ(JsonObject().add("t\x01z", "\t").str(),
            "{\"t\\u0001z\": \"\\t\"}");
}

TEST(Json, RowsStreamOneObjectPerLine) {
  std::ostringstream top;
  {
    JsonRows rows(top);
    rows.push(JsonObject().add("a", 1)).push(JsonObject().add("a", 2));
  }  // the destructor closes an unclosed document
  EXPECT_EQ(top.str(), "[\n{\"a\": 1},\n{\"a\": 2}\n]\n");
  EXPECT_EQ(parse_ok(top.str()).array.size(), 2u);

  std::ostringstream member;
  JsonRows rows(member, JsonObject().add("schema", "v"), "results");
  rows.push(JsonObject().add("n", 3));
  rows.close();
  EXPECT_EQ(member.str(),
            "{\"schema\": \"v\", \"results\": [\n{\"n\": 3}\n]}\n");
  EXPECT_EQ(parse_ok(member.str()).find("results")->array.size(), 1u);

  std::ostringstream empty;
  JsonRows(empty, JsonObject(), "rows").close();
  EXPECT_EQ(empty.str(), "{\"rows\": []}\n");
  EXPECT_TRUE(parse_ok(empty.str()).find("rows")->array.empty());
}

TEST(Json, ParserFollowsTheGrammarAndNamesTheByte) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\": 1,}", "01", "1.", ".5", "1e", "-", "+1",
        "1e400", "tru", "nul", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"",
        "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"raw\ttab\"", "[1] 2",
        "{1: 2}", "\"open"}) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parse_json(bad, v, &error)) << bad;
    EXPECT_EQ(error.rfind("at byte ", 0), 0u) << bad << ": " << error;
  }
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\" 1}", v, &error));
  EXPECT_EQ(error, "at byte 5: expected ':'");
  EXPECT_FALSE(parse_json(std::string(300, '['), v, &error));
  EXPECT_EQ(error, "at byte 256: nesting deeper than 256");

  EXPECT_EQ(parse_ok("\"\\ud834\\udd1e \\u00e9\\/\"").string,
            "\xf0\x9d\x84\x9e \xc3\xa9/");
  EXPECT_EQ(parse_ok(" [0, -0.5e-2, 1E+2] ").array.at(2).number, 100.0);
  EXPECT_EQ(parse_ok("null").kind, JsonValue::Kind::Null);
}

}  // namespace
}  // namespace lps
