// Tests for Hoepman's deterministic distributed 1/2-MWM (reference [11]
// of the paper).
#include <gtest/gtest.h>

#include "core/hoepman_mwm.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "seq/exact_small.hpp"
#include "seq/greedy.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

TEST(Hoepman, TrivialAndEmptyGraphs) {
  EXPECT_EQ(hoepman_mwm(WeightedGraph{Graph(0, {}), {}}).matching.size(), 0u);
  EXPECT_EQ(hoepman_mwm(WeightedGraph{Graph(3, {}), {}}).matching.size(), 0u);
  const WeightedGraph single = make_weighted(path_graph(2), {5.0});
  const HoepmanResult res = hoepman_mwm(single);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.matching.size(), 1u);
}

TEST(Hoepman, DeterministicNoSeedNeeded) {
  Rng rng(3);
  Graph g = erdos_renyi(60, 0.1, rng);
  auto w = uniform_weights(g.num_edges(), 1.0, 10.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  const HoepmanResult a = hoepman_mwm(wg);
  const HoepmanResult b = hoepman_mwm(wg);
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
}

TEST(Hoepman, EqualsGreedyOnDistinctWeights) {
  // With all-distinct weights, locally-heaviest selection = sorted
  // greedy; Hoepman's protocol computes exactly that matching.
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    Graph g = erdos_renyi(40, 0.1, rng);
    std::vector<double> w(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      w[e] = 1.0 + static_cast<double>(e) * 0.01;
    }
    rng.shuffle(w);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    const HoepmanResult res = hoepman_mwm(wg);
    EXPECT_TRUE(res.converged);
    EXPECT_DOUBLE_EQ(res.matching.weight(wg), greedy_mwm(wg).weight(wg));
  }
}

TEST(Hoepman, HandlesEqualWeightsViaIdTieBreak) {
  // Ties are broken by edge id, so edges are ranked by the strict order
  // (weight desc, id asc) that greedy_mwm sorts by, and the locally
  // heaviest edges under a strict order are exactly greedy's picks:
  // with ties, Hoepman must still return greedy's matching edge for
  // edge. Two weightings: all weights equal, and three integer levels.
  Rng rng(7);
  for (int t = 0; t < 40; ++t) {
    Graph g = erdos_renyi(200, 0.03, rng);
    const EdgeId m = g.num_edges();
    std::vector<double> w = t % 2 == 0 ? std::vector<double>(m, 2.0)
                                       : integer_weights(m, 3, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    const HoepmanResult res = hoepman_mwm(wg);
    EXPECT_TRUE(res.converged) << "trial " << t;
    EXPECT_TRUE(is_maximal_matching(wg.graph, res.matching)) << "trial " << t;
    EXPECT_EQ(res.matching, greedy_mwm(wg)) << "trial " << t;
  }
}

class HoepmanSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HoepmanSweep, HalfApproximationAndMaximality) {
  Rng rng(GetParam());
  for (int t = 0; t < 8; ++t) {
    Graph g = erdos_renyi(16, 0.25, rng);
    if (g.num_edges() == 0) continue;
    auto w = integer_weights(g.num_edges(), 30, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    const HoepmanResult res = hoepman_mwm(wg);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(is_maximal_matching(wg.graph, res.matching));
    const double opt = exact_mwm_small(wg).weight(wg);
    EXPECT_GE(res.matching.weight(wg) + 1e-9, 0.5 * opt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HoepmanSweep,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u));

TEST(Hoepman, IncreasingPathIsTheLinearTimeWorstCase) {
  // Weights 1 < 2 < ... force matches to resolve one by one from the
  // heavy end: rounds scale linearly with n (the O(n) in the paper's
  // related-work table), unlike the O(log n) randomized algorithms.
  const HoepmanResult small = hoepman_mwm(increasing_path(64));
  const HoepmanResult large = hoepman_mwm(increasing_path(256));
  EXPECT_TRUE(small.converged);
  EXPECT_TRUE(large.converged);
  // The matching is the unique locally-heaviest one: edges n-2, n-4, ...
  EXPECT_EQ(large.matching.size(), 128u);
  // Linear growth: quadrupling n at least triples the rounds.
  EXPECT_GE(large.stats.rounds, 3 * small.stats.rounds);
  EXPECT_GE(large.stats.rounds, 256u / 2);
}

TEST(Hoepman, MessagesAreConstantWidth) {
  Rng rng(11);
  Graph g = erdos_renyi(80, 0.08, rng);
  auto w = uniform_weights(g.num_edges(), 1.0, 5.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  const HoepmanResult res = hoepman_mwm(wg);
  EXPECT_LE(res.stats.max_message_bits, 2u);
}

}  // namespace
}  // namespace lps
