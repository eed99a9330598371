// Tests for the Section 3.2 bipartite CONGEST engine: Algorithm 3
// counting (against the Figure 1 instance and brute-force oracles,
// including the Lemma 3.6 bound), the token selection of Lemma 3.7, the
// Aug subroutine's maximality, and the Theorem 3.8 driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "core/bipartite_counting.hpp"
#include "core/bipartite_mcm.hpp"
#include "graph/generators.hpp"
#include "seq/greedy.hpp"
#include "seq/hopcroft_karp.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

using lps::testing::make_fig1;
using lps::testing::sweep_seeds;

// ------------------------------------------- Algorithm 3 counting -----

TEST(BipartiteCounting, Fig1InstanceExactCounts) {
  const auto fig = make_fig1();
  const CountingResult res =
      count_augmenting_paths(fig.graph, fig.side, fig.matching, 3, {});

  // Depths: free X at 0; first Y layer at 1; matched X at 2; free Y at 3.
  const std::vector<std::uint32_t> expect_depth = {0, 0, 1, 1, 1, 2, 2, 3, 3};
  EXPECT_EQ(res.depth, expect_depth);

  // Totals (hand-computed layer by layer, as in the paper's Figure 1).
  EXPECT_EQ(res.total[2].to_u64(), 1u);  // y0 <- x0
  EXPECT_EQ(res.total[3].to_u64(), 2u);  // y1 <- x0, x1
  EXPECT_EQ(res.total[4].to_u64(), 1u);  // y2 <- x1 (length-1 path!)
  EXPECT_EQ(res.total[5].to_u64(), 1u);  // x2 <- mate y0
  EXPECT_EQ(res.total[6].to_u64(), 2u);  // x3 <- mate y1
  EXPECT_EQ(res.total[7].to_u64(), 3u);  // y3 <- x2 (1) + x3 (2)
  EXPECT_EQ(res.total[8].to_u64(), 2u);  // y4 <- x3 (2)

  // Free-Y endpoints are exactly y2, y3, y4.
  EXPECT_TRUE(res.is_path_endpoint(4));
  EXPECT_TRUE(res.is_path_endpoint(7));
  EXPECT_TRUE(res.is_path_endpoint(8));
  EXPECT_FALSE(res.is_path_endpoint(2));  // matched

  // Cross-check against the brute-force path enumerator.
  EXPECT_EQ(count_paths_oracle(fig.graph, fig.side, fig.matching, 7, 3, {}),
            3u);
  EXPECT_EQ(count_paths_oracle(fig.graph, fig.side, fig.matching, 8, 3, {}),
            2u);
  EXPECT_EQ(count_paths_oracle(fig.graph, fig.side, fig.matching, 4, 1, {}),
            1u);
}

TEST(BipartiteCounting, MessageBitsStayLogarithmicInDelta) {
  // CONGEST claim: counting messages are O(l log Delta) bits.
  Rng rng(7);
  const auto bg = random_bipartite(60, 60, 0.08, rng);
  Matching m(bg.graph.num_nodes());
  const CountingResult res =
      count_augmenting_paths(bg.graph, bg.side, m, 5, {});
  const double log_delta = std::log2(bg.graph.max_degree() + 1.0);
  EXPECT_LE(res.stats.max_message_bits,
            static_cast<std::uint64_t>(8 * (5 * log_delta + 8)));
}

TEST(BipartiteCounting, Lemma36UpperBound) {
  // n_v <= Delta^{ceil(d(v)/2)}.
  Rng rng(11);
  for (std::uint64_t seed : sweep_seeds(6, 100)) {
    Rng local(seed);
    const auto bg = random_bipartite(25, 25, 0.15, local);
    // A partial matching (greedy over half the edges).
    Matching m(bg.graph.num_nodes());
    for (EdgeId e = 0; e < bg.graph.num_edges(); e += 2) {
      const Edge& ed = bg.graph.edge(e);
      if (m.is_free(ed.u) && m.is_free(ed.v)) m.add(bg.graph, e);
    }
    const CountingResult res =
        count_augmenting_paths(bg.graph, bg.side, m, 7, {});
    const double delta = bg.graph.max_degree();
    for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
      if (res.depth[v] == kUnreached || res.total[v].is_zero()) continue;
      const double bound =
          std::pow(delta, std::ceil(res.depth[v] / 2.0)) + 0.5;
      EXPECT_LE(res.total[v].to_double(), bound)
          << "v=" << v << " d=" << res.depth[v];
    }
  }
  (void)rng;
}

TEST(BipartiteCounting, CountsMatchOracleAtShortestDepth) {
  // Lemma 3.6 equality holds for endpoints at the globally shortest
  // augmenting-path length (see the lemma's no-shorter-paths premise).
  for (std::uint64_t seed : sweep_seeds(8, 777)) {
    Rng rng(seed);
    const auto bg = random_bipartite(20, 20, 0.12, rng);
    Matching m = greedy_mcm(bg.graph);
    // Drop one matched edge to create augmenting paths of length >= 3
    // sometimes.
    auto ids = m.edge_ids(bg.graph);
    if (ids.size() >= 2) m.remove(bg.graph, ids[ids.size() / 2]);
    const int cap = 7;
    const CountingResult res =
        count_augmenting_paths(bg.graph, bg.side, m, cap, {});
    // Find the shortest endpoint depth.
    std::uint32_t shortest = kUnreached;
    for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
      if (bg.side[v] == 1 && m.is_free(v) && res.depth[v] != kUnreached &&
          !res.total[v].is_zero()) {
        shortest = std::min(shortest, res.depth[v]);
      }
    }
    if (shortest == kUnreached) continue;
    for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
      if (bg.side[v] != 1 || !m.is_free(v) || res.depth[v] != shortest) {
        continue;
      }
      const std::uint64_t oracle = count_paths_oracle(
          bg.graph, bg.side, m, v, static_cast<int>(shortest), {});
      EXPECT_EQ(res.total[v].to_u64(), oracle) << "v=" << v;
    }
  }
}

TEST(BipartiteCounting, RespectsActiveEdgeMask) {
  const auto fig = make_fig1();
  // Deactivate the edge x3-y3 (6,7): y3's count drops to 1.
  std::vector<char> mask(fig.graph.num_edges(), 1);
  mask[fig.graph.find_edge(6, 7)] = 0;
  const CountingResult res =
      count_augmenting_paths(fig.graph, fig.side, fig.matching, 3, mask);
  EXPECT_EQ(res.total[7].to_u64(), 1u);
  EXPECT_EQ(res.total[8].to_u64(), 2u);
}

TEST(BipartiteCounting, RejectsBadArguments) {
  const auto fig = make_fig1();
  EXPECT_THROW(
      count_augmenting_paths(fig.graph, fig.side, fig.matching, 2, {}),
      std::invalid_argument);
  EXPECT_THROW(count_augmenting_paths(fig.graph, {0, 1}, fig.matching, 3, {}),
               std::invalid_argument);
  // The edge mask must have one entry per edge: a short one would be
  // read out of bounds, a long one belongs to another graph.
  const std::size_t m = fig.graph.num_edges();
  EXPECT_THROW(count_augmenting_paths(fig.graph, fig.side, fig.matching, 3,
                                      std::vector<char>(m - 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(count_augmenting_paths(fig.graph, fig.side, fig.matching, 3,
                                      std::vector<char>(m + 1, 1)),
               std::invalid_argument);
}

TEST(BipartiteCounting, ReusedResultMatchesFreshPasses) {
  // One result object across passes whose matchings and masks change
  // must equal a fresh pass every time: the reuse clears exactly the
  // state the previous pass left behind.
  Rng rng(5);
  const auto bg = random_bipartite(40, 40, 0.1, rng);
  const Graph& g = bg.graph;
  Matching m(g.num_nodes());
  CountingResult reused;
  for (int pass = 0; pass < 6; ++pass) {
    std::vector<char> mask;
    if (pass % 2 == 1) {
      mask.resize(g.num_edges());
      for (char& c : mask) c = rng.coin() ? 1 : 0;
    }
    const int len = 2 * (pass % 3) + 3;
    count_augmenting_paths(g, bg.side, m, len, mask, reused);
    const CountingResult fresh =
        count_augmenting_paths(g, bg.side, m, len, mask);
    EXPECT_EQ(reused.depth, fresh.depth) << "pass " << pass;
    EXPECT_EQ(reused.counts, fresh.counts) << "pass " << pass;
    EXPECT_EQ(reused.total, fresh.total) << "pass " << pass;
    EXPECT_EQ(reused.endpoint, fresh.endpoint) << "pass " << pass;
    EXPECT_EQ(reused.reached, fresh.reached) << "pass " << pass;
    EXPECT_EQ(reused.stats.total_bits, fresh.stats.total_bits);
    // Grow the matching between passes so the sources change.
    AugOptions opts;
    opts.seed = 100 + pass;
    opts.max_iterations = 1;
    bipartite_aug(g, bg.side, m, 3, {}, opts);
  }

  // One more input: a result (and an Aug scratch) last used on another
  // graph with as many nodes and edges, whose k=1 matching the first pass
  // counted over. Nothing of that graph may carry over.
  Rng pair_rng(21);
  for (int pair = 0; pair < 3; ++pair) {
    SCOPED_TRACE("pair " + std::to_string(pair));
    const auto a = random_bipartite(30, 30, 0.1, pair_rng);
    auto b = random_bipartite(30, 30, 0.1, pair_rng);
    while (b.graph.num_edges() != a.graph.num_edges()) {
      b = random_bipartite(30, 30, 0.1, pair_rng);
    }
    BipartiteMcmOptions k1;
    k1.k = 1;
    const Matching ma = bipartite_mcm(a.graph, a.side, k1).matching;
    const Matching mb(b.graph.num_nodes());
    CountingResult across;
    count_augmenting_paths(a.graph, a.side, ma, 3, {}, across);
    count_augmenting_paths(b.graph, b.side, mb, 3, {}, across);
    const CountingResult fresh =
        count_augmenting_paths(b.graph, b.side, mb, 3, {});
    EXPECT_EQ(across.depth, fresh.depth);
    EXPECT_EQ(across.counts, fresh.counts);
    EXPECT_EQ(across.total, fresh.total);
    EXPECT_EQ(across.endpoint, fresh.endpoint);
    EXPECT_EQ(across.reached, fresh.reached);
    EXPECT_EQ(across.stats.total_bits, fresh.stats.total_bits);

    AugScratch scratch;
    AugOptions opts;
    opts.seed = 7 + pair;
    Matching on_a = ma;
    bipartite_aug(a.graph, a.side, on_a, 3, {}, opts, scratch);
    Matching reused_m = mb;
    Matching fresh_m = mb;
    const AugResult r = bipartite_aug(b.graph, b.side, reused_m, 3, {}, opts,
                                      scratch);
    const AugResult f = bipartite_aug(b.graph, b.side, fresh_m, 3, {}, opts);
    EXPECT_EQ(reused_m, fresh_m);
    EXPECT_EQ(r.iterations, f.iterations);
    EXPECT_EQ(r.stats.total_bits, f.stats.total_bits);
  }
}

/// A layered ladder whose path counts outgrow one 64-bit limb: layers
/// 0..61 of 8 nodes (node layer*8 + j), even layers on side X, complete
/// bipartite blocks between layers 2t and 2t+1, and matched pairs j<->j
/// between layers 2t+1 and 2t+2. Layer 0 is the only free X layer and
/// layer 61 the only free Y layer, so every augmenting path has 61 edges
/// and n_v at depth d is exactly 8^ceil(d/2).
struct SpillLadder {
  static constexpr NodeId kWidth = 8;
  static constexpr NodeId kLayers = 62;
  Graph graph;
  std::vector<std::uint8_t> side;
  Matching matching;
};

SpillLadder make_spill_ladder() {
  constexpr NodeId w = SpillLadder::kWidth;
  constexpr NodeId layers = SpillLadder::kLayers;
  std::vector<Edge> edges;
  std::vector<std::pair<NodeId, NodeId>> matched;
  for (NodeId layer = 0; layer + 1 < layers; ++layer) {
    for (NodeId i = 0; i < w; ++i) {
      const NodeId u = layer * w + i;
      if (layer % 2 == 0) {
        for (NodeId j = 0; j < w; ++j) edges.push_back({u, u - i + w + j});
      } else {
        edges.push_back({u, u + w});
        matched.emplace_back(u, u + w);
      }
    }
  }
  SpillLadder ladder{Graph(layers * w, std::move(edges)), {}, {}};
  ladder.side.resize(layers * w);
  for (NodeId v = 0; v < layers * w; ++v) {
    ladder.side[v] = static_cast<std::uint8_t>((v / w) % 2);
  }
  std::vector<EdgeId> ids;
  for (const auto& [u, v] : matched) ids.push_back(ladder.graph.find_edge(u, v));
  ladder.matching = Matching::from_edges(ladder.graph, ids);
  return ladder;
}

BigCounter power_of_two(int e) {
  BigCounter x(1);
  for (; e > 0; e -= 32) x.shift_left(std::min(e, 32));
  return x;
}

TEST(BipartiteCounting, CountsSpillPastOneLimbOnTheLadder) {
  // Counts past 2^64 exercise the counter's heap path inside a real
  // counting pass and a real Aug solve, across threads. (The ladder's
  // 496 nodes fit one shard of the minimum 1024 vertices.)
  const SpillLadder ladder = make_spill_ladder();
  const Graph& g = ladder.graph;
  constexpr NodeId w = SpillLadder::kWidth;
  ThreadPool pool4(4);
  CountingResult base_count;
  Matching base_matching;
  AugResult base_aug;
  bool have_base = false;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
    SCOPED_TRACE(pool ? "threads=4" : "threads=1");
    const CountingResult res = count_augmenting_paths(
        g, ladder.side, ladder.matching, 61, {}, pool);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const int d = static_cast<int>(v / w);
      ASSERT_EQ(res.depth[v], static_cast<std::uint32_t>(d)) << "v=" << v;
      ASSERT_EQ(res.total[v], power_of_two(3 * ((d + 1) / 2))) << "v=" << v;
      EXPECT_EQ(res.is_path_endpoint(v), d == 61) << "v=" << v;
    }
    const BigCounter& endpoint_paths = res.total[61 * w];
    EXPECT_EQ(endpoint_paths, power_of_two(93));
    EXPECT_FALSE(endpoint_paths.fits_u64());
    // The depth-60 forwarders send 2^90: 91 bits plus 2.
    EXPECT_EQ(res.stats.max_message_bits, 93u);

    Matching m = ladder.matching;
    AugOptions opts;
    opts.seed = 17;
    opts.pool = pool;
    const AugResult aug = bipartite_aug(g, ladder.side, m, 61, {}, opts);
    EXPECT_TRUE(aug.converged);
    EXPECT_EQ(m.size(), 248u);  // perfect
    EXPECT_TRUE(is_valid_matching(g, m.edge_ids(g)));

    if (!have_base) {
      base_count = res;
      base_matching = m;
      base_aug = aug;
      have_base = true;
      continue;
    }
    EXPECT_EQ(res.counts, base_count.counts);
    EXPECT_EQ(res.stats.messages, base_count.stats.messages);
    EXPECT_EQ(res.stats.total_bits, base_count.stats.total_bits);
    EXPECT_EQ(m, base_matching);
    EXPECT_EQ(aug.iterations, base_aug.iterations);
    EXPECT_EQ(aug.paths_applied, base_aug.paths_applied);
    EXPECT_EQ(aug.stats.total_bits, base_aug.stats.total_bits);
  }
}

// --------------------------------------------- Aug (Lemma 3.7 etc.) ---

class AugSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AugSweep, ProducesMaximalSetOfShortPaths) {
  Rng rng(GetParam());
  const auto bg = random_bipartite(30, 30, 0.1, rng);
  Matching m(bg.graph.num_nodes());
  for (const int l : {1, 3, 5}) {
    AugOptions opts;
    opts.seed = GetParam() * 7 + l;
    const AugResult res = bipartite_aug(bg.graph, bg.side, m, l, {}, opts);
    EXPECT_TRUE(res.converged);
    // Maximality: no augmenting path of length <= l remains.
    EXPECT_FALSE(has_augmenting_path_leq(bg.graph, m, l)) << "l=" << l;
    EXPECT_TRUE(is_valid_matching(bg.graph, m.edge_ids(bg.graph)));
  }
}

TEST_P(AugSweep, IterationCountStaysLogarithmic) {
  Rng rng(GetParam() ^ 0xbeef);
  const auto bg = random_bipartite(100, 100, 0.04, rng);
  Matching m(bg.graph.num_nodes());
  AugOptions opts;
  opts.seed = GetParam();
  const AugResult res = bipartite_aug(bg.graph, bg.side, m, 3, {}, opts);
  EXPECT_TRUE(res.converged);
  // W.h.p. O(log N); the auto cap is 64 + 16 log N, assert well within.
  EXPECT_LE(res.iterations, 120u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugSweep,
                         ::testing::Values(31u, 37u, 41u, 43u, 47u));

TEST(BipartiteAug, LengthOneEqualsMaximalMatchingOnFreePairs) {
  const Graph g = complete_bipartite(6, 6);
  std::vector<std::uint8_t> side(12, 0);
  for (NodeId v = 6; v < 12; ++v) side[v] = 1;
  Matching m(12);
  AugOptions opts;
  opts.seed = 3;
  const AugResult res = bipartite_aug(g, side, m, 1, {}, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(m.size(), 6u);  // maximal on K_{6,6} = perfect
}

TEST(BipartiteAug, AppliedPathsAreCountedAndDisjoint) {
  const auto fig = make_fig1();
  Matching m = fig.matching;
  AugOptions opts;
  opts.seed = 5;
  const AugResult res = bipartite_aug(fig.graph, fig.side, m, 3, {}, opts);
  EXPECT_TRUE(res.converged);
  // The instance supports at most 2 disjoint augmenting paths of length
  // <= 3 (x2,x3 are shared bottlenecks); final matching size is 4:
  // the two original matched edges rewired plus both free X matched.
  EXPECT_EQ(m.size(), 4u);
  EXPECT_GE(res.paths_applied, 2u);
  EXPECT_FALSE(has_augmenting_path_leq(fig.graph, m, 3));
}

TEST(BipartiteAug, RejectsMaskOfWrongSize) {
  const auto fig = make_fig1();
  Matching m = fig.matching;
  EXPECT_THROW(bipartite_aug(fig.graph, fig.side, m, 3,
                             std::vector<char>(fig.graph.num_edges() - 1, 1)),
               std::invalid_argument);
}

TEST(BipartiteAug, ReusedScratchMatchesFreshCalls) {
  // general_mcm's call pattern: one scratch across Aug calls on one
  // general graph whose 2-coloring, Ĝ and matching change every call
  // (and here the path cap too). Each call must be bit-identical to a
  // call over a fresh scratch, and Ĝ given as masks must run exactly as
  // Ĝ given as general_mcm's on-demand view, sequentially and from four
  // threads.
  Rng rng(9);
  const Graph g = erdos_renyi(120, 0.05, rng);
  const NodeId n = g.num_nodes();
  constexpr std::uint64_t kColorSeed = 77;
  ThreadPool pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
    SCOPED_TRACE(pool ? "threads=4" : "threads=1");
    Matching reused_m(n);
    Matching fresh_m(n);
    Matching view_m(n);
    AugScratch scratch;
    AugScratch view_scratch;
    std::vector<NodeId> free(n);
    std::iota(free.begin(), free.end(), NodeId{0});
    std::vector<std::uint8_t> color(n);
    std::vector<char> in_v_hat(n);
    std::vector<char> mask(g.num_edges());
    for (int call = 0; call < 12; ++call) {
      // Algorithm 4's Ĝ: V̂ = free or bichromatically matched vertices,
      // Ê = bichromatic edges inside V̂.
      for (NodeId v = 0; v < n; ++v) {
        color[v] = Rng::substream(kColorSeed, call, std::uint64_t{v}).coin();
      }
      const auto bichromatic = [&](EdgeId e) {
        return color[g.edge(e).u] != color[g.edge(e).v];
      };
      for (NodeId v = 0; v < n; ++v) {
        const EdgeId me = reused_m.matched_edge(v);
        in_v_hat[v] = me == kInvalidEdge || bichromatic(me);
      }
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge ed = g.edge(e);
        mask[e] = bichromatic(e) && in_v_hat[ed.u] && in_v_hat[ed.v];
      }
      const BichromaticSubgraph h(g, view_m, kColorSeed, call);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(h.side(v), color[v]) << "v=" << v;
        ASSERT_EQ(h.in_v_hat(v, color[v]), in_v_hat[v] != 0) << "v=" << v;
      }
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        ASSERT_EQ(h.active(e), mask[e] != 0) << "e=" << e;
      }

      AugOptions opts;
      opts.seed = 1000 + call;
      opts.pool = pool;
      const int l = (call % 3 == 2) ? 1 : 2 * (call % 3) + 3;
      const AugResult a =
          bipartite_aug(g, color, reused_m, l, mask, opts, scratch);
      const AugResult b = bipartite_aug(g, color, fresh_m, l, mask, opts);
      const AugResult c =
          bipartite_aug(g, h, view_m, l, free, opts, view_scratch);
      const auto expect_same = [&](const AugResult& other,
                                   const Matching& m, const char* name) {
        SCOPED_TRACE(std::string(name) + " call " + std::to_string(call));
        ASSERT_EQ(reused_m, m);
        EXPECT_EQ(a.paths_applied, other.paths_applied);
        EXPECT_EQ(a.iterations, other.iterations);
        EXPECT_EQ(a.converged, other.converged);
        EXPECT_EQ(a.stats.rounds, other.stats.rounds);
        EXPECT_EQ(a.stats.messages, other.stats.messages);
        EXPECT_EQ(a.stats.total_bits, other.stats.total_bits);
        EXPECT_EQ(a.stats.max_message_bits, other.stats.max_message_bits);
      };
      expect_same(b, fresh_m, "fresh");
      expect_same(c, view_m, "view");
    }
    EXPECT_GT(reused_m.size(), 0u);
  }
}

TEST(BichromaticSubgraph, ColorIsTheSubstreamCoin) {
  // The closed form against Rng::substream(seed, iter, v).coin() on
  // 10^5 random triples, plus the small values general_mcm starts from.
  Rng rng(61);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t seed = i < 1000 ? i % 10 : rng();
    const std::uint64_t iter = i < 1000 ? i / 10 : rng();
    const NodeId v = static_cast<NodeId>(i < 1000 ? i : rng());
    ASSERT_EQ(BichromaticSubgraph::color(seed, iter, v),
              Rng::substream(seed, iter, std::uint64_t{v}).coin() ? 1 : 0)
        << "seed=" << seed << " iter=" << iter << " v=" << v;
  }
}

// ----------------------------------------- Theorem 3.8 driver ---------

class BipartiteMcmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BipartiteMcmSweep, ApproximationGuarantee) {
  Rng rng(GetParam());
  const auto bg = random_bipartite(50, 50, 0.07, rng);
  BipartiteMcmOptions opts;
  opts.k = 3;
  opts.seed = GetParam() + 1;
  const BipartiteMcmResult res = bipartite_mcm(bg.graph, bg.side, opts);
  EXPECT_TRUE(res.converged);
  const std::size_t opt = hopcroft_karp(bg.graph, bg.side).size();
  // After phases l = 1,3,5: no augmenting path <= 5 => >= (1 - 1/4) opt
  // (Lemma 3.5 with shortest path >= 7 => k = 3 ... 1-1/(k+1) = 3/4).
  EXPECT_GE(4 * res.matching.size(), 3 * opt);
  EXPECT_FALSE(has_augmenting_path_leq(bg.graph, res.matching, 5));
}

TEST_P(BipartiteMcmSweep, CongestMessageBound) {
  Rng rng(GetParam() ^ 0x99);
  const auto bg = random_bipartite(40, 40, 0.1, rng);
  BipartiteMcmOptions opts;
  opts.k = 2;
  opts.seed = GetParam();
  const BipartiteMcmResult res = bipartite_mcm(bg.graph, bg.side, opts);
  // Messages: counts of O(l log Delta) bits + token values (64) + ids.
  const double log_delta = std::log2(bg.graph.max_degree() + 1.0);
  const double bound = 8 * (3 * log_delta + 64 + 16);
  EXPECT_LE(res.stats.max_message_bits, static_cast<std::uint64_t>(bound));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartiteMcmSweep,
                         ::testing::Values(51u, 53u, 59u, 61u));

TEST(BipartiteMcm, PerfectOnCompleteBipartite) {
  const Graph g = complete_bipartite(8, 8);
  std::vector<std::uint8_t> side(16, 0);
  for (NodeId v = 8; v < 16; ++v) side[v] = 1;
  BipartiteMcmOptions opts;
  opts.k = 2;
  opts.seed = 77;
  const BipartiteMcmResult res = bipartite_mcm(g, side, opts);
  // K_{8,8} has no augmenting path longer than 1 at a maximal matching
  // short of perfect; phases to l=3 suffice for perfection.
  EXPECT_EQ(res.matching.size(), 8u);
}

TEST(BipartiteMcm, EmptyGraph) {
  const BipartiteMcmResult res = bipartite_mcm(Graph(4, {}), {0, 0, 1, 1});
  EXPECT_EQ(res.matching.size(), 0u);
  EXPECT_TRUE(res.converged);
}

TEST(BipartiteMcm, LargeKGivesExactOptimum) {
  // With k large enough that 2k-1 exceeds every augmenting-path length,
  // the phase ladder terminates with NO augmenting path at all — i.e.,
  // the exact maximum matching (Berge). Strong end-to-end check.
  for (const std::uint64_t seed : {3u, 5u, 8u}) {
    Rng rng(seed);
    const auto bg = random_bipartite(18, 18, 0.15, rng);
    BipartiteMcmOptions opts;
    opts.k = 10;  // paths up to length 19 > any in a 36-node graph here
    opts.seed = seed;
    const BipartiteMcmResult res = bipartite_mcm(bg.graph, bg.side, opts);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.matching.size(), hopcroft_karp(bg.graph, bg.side).size());
  }
}

TEST(BipartiteAug, TightnessLadderIsExact) {
  // On the tight chain, an engine capped at 2k-1 is stuck at exactly
  // k/(k+1) of the optimum; the cap 2k+1 solves the instance. This is
  // the Lemma 3.5 boundary realized as an input.
  for (const int k : {2, 3}) {
    const TightChain chain = tight_bipartite_chain(k, 8);
    Matching stuck = Matching::from_edges(chain.graph, chain.matched);
    AugOptions o;
    o.seed = 3;
    for (int l = 1; l <= 2 * k - 1; l += 2) {
      const AugResult res =
          bipartite_aug(chain.graph, chain.side, stuck, l, {}, o);
      EXPECT_TRUE(res.converged);
      EXPECT_EQ(res.paths_applied, 0u);  // nothing visible below 2k+1
    }
    EXPECT_EQ(stuck.size(), 8u * k);
    Matching solved = Matching::from_edges(chain.graph, chain.matched);
    const AugResult res =
        bipartite_aug(chain.graph, chain.side, solved, 2 * k + 1, {}, o);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(solved.size(), 8u * (k + 1));  // perfect
  }
}

}  // namespace
}  // namespace lps
