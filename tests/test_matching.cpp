// Tests for the Matching type and the augmenting-path / symmetric
// difference oracles in src/graph/matching.*, which everything else
// (including the Lemma 3.4/3.5 validations) relies on.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/generators.hpp"
#include "graph/matching.hpp"
#include "seq/greedy.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

TEST(Matching, AddRemoveAndQueries) {
  Graph g = path_graph(5);  // edges 0:0-1, 1:1-2, 2:2-3, 3:3-4
  Matching m(5);
  EXPECT_EQ(m.size(), 0u);
  m.add(g, 0);
  EXPECT_TRUE(m.contains(g, 0));
  EXPECT_FALSE(m.is_free(0));
  EXPECT_EQ(m.mate(g, 0), 1u);
  EXPECT_EQ(m.mate(g, 2), kInvalidNode);
  EXPECT_THROW(m.add(g, 1), std::invalid_argument);  // endpoint 1 taken
  m.add(g, 2);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.edge_ids(g), (std::vector<EdgeId>{0, 2}));
  m.remove(g, 0);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_THROW(m.remove(g, 0), std::invalid_argument);
}

TEST(Matching, FromEdgesValidates) {
  Graph g = path_graph(4);
  EXPECT_NO_THROW(Matching::from_edges(g, {0, 2}));
  EXPECT_THROW(Matching::from_edges(g, {0, 1}), std::invalid_argument);
}

TEST(Matching, SymmetricDifferenceAugmentsPath) {
  Graph g = path_graph(4);  // 0-1, 1-2, 2-3
  Matching m = Matching::from_edges(g, {1});
  m.symmetric_difference(g, {0, 1, 2});  // flip the augmenting path
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(g, 0));
  EXPECT_TRUE(m.contains(g, 2));
  EXPECT_FALSE(m.contains(g, 1));
}

TEST(Matching, SymmetricDifferenceRejectsNonMatching) {
  Graph g = path_graph(4);
  Matching m(4);
  EXPECT_THROW(m.symmetric_difference(g, {0, 1}), std::invalid_argument);
  EXPECT_THROW(m.symmetric_difference(g, {0, 0}), std::invalid_argument);

  // On a non-empty matching a rejected call changes nothing, however far
  // the update got before the check failed.
  const Graph p = path_graph(8);  // edge i joins i and i+1
  const Matching base = Matching::from_edges(p, {1, 3, 5});
  const std::vector<std::vector<EdgeId>> rejected = {
      {1, 1},                    // a matched edge twice
      {1, 0, 0},                 // an added edge twice
      {6, 1},                    // 6 meets matched 5, after 1 dropped
      {1, 0, 2},                 // 2 meets matched 3, after 0 was added
      {1, 3, 5, 0, 2, 4, 6, 2},  // the whole path flipped, then a repeat
      {1, 0, 7},                 // out of range (p has edges 0..6)
      {kInvalidEdge},
  };
  for (const std::vector<EdgeId>& s : rejected) {
    Matching m2 = base;
    EXPECT_THROW(m2.symmetric_difference(p, s), std::invalid_argument)
        << ::testing::PrintToString(s);
    EXPECT_EQ(m2.size(), base.size()) << ::testing::PrintToString(s);
    for (NodeId v = 0; v < p.num_nodes(); ++v) {
      EXPECT_EQ(m2.matched_edge(v), base.matched_edge(v))
          << ::testing::PrintToString(s) << " at node " << v;
    }
  }
  Matching flipped = base;
  flipped.symmetric_difference(p, {1, 3, 5, 0, 2, 4, 6});
  EXPECT_EQ(flipped.edge_ids(p), (std::vector<EdgeId>{0, 2, 4, 6}));
  EXPECT_EQ(flipped.size(), 4u);
}

TEST(Matching, WeightSumsMatchedEdges) {
  WeightedGraph wg = make_weighted(path_graph(4), {1.0, 10.0, 100.0});
  Matching m = Matching::from_edges(wg.graph, {0, 2});
  EXPECT_DOUBLE_EQ(m.weight(wg), 101.0);
}

TEST(MatchingOracles, ValidityChecker) {
  Graph g = cycle_graph(6);
  EXPECT_TRUE(is_valid_matching(g, {0, 2, 4}));
  EXPECT_FALSE(is_valid_matching(g, {0, 1}));
  EXPECT_FALSE(is_valid_matching(g, {0, 99}));
  EXPECT_FALSE(is_valid_matching(g, {0, 0}));
}

TEST(MatchingOracles, MaximalityChecker) {
  Graph g = path_graph(5);
  EXPECT_FALSE(is_maximal_matching(g, Matching(5)));
  EXPECT_TRUE(is_maximal_matching(g, Matching::from_edges(g, {1, 3})));
  // {0-1} leaves 2-3 and 3-4 free-free.
  EXPECT_FALSE(is_maximal_matching(g, Matching::from_edges(g, {0})));
}

TEST(AugmentingSearch, FindsShortestLengths) {
  // Path of 6: M = {1-2, 3-4}: augmenting path is the whole path (len 5).
  Graph g = path_graph(6);
  Matching m = Matching::from_edges(g, {1, 3});
  EXPECT_FALSE(has_augmenting_path_leq(g, m, 3));
  EXPECT_TRUE(has_augmenting_path_leq(g, m, 5));
  EXPECT_EQ(shortest_augmenting_path_length(g, m, 9), 5);

  // Empty matching: single edges are length-1 augmenting paths.
  EXPECT_EQ(shortest_augmenting_path_length(g, Matching(6), 9), 1);

  // Perfect matching: no augmenting path at all.
  Matching perfect = Matching::from_edges(g, {0, 2, 4});
  EXPECT_EQ(shortest_augmenting_path_length(g, perfect, 11), -1);
}

TEST(AugmentingSearch, ReturnedPathIsValidAndApplies) {
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = erdos_renyi(24, 0.12, rng);
    Matching m = greedy_mcm(g);
    // Remove one edge to open augmenting opportunities sometimes.
    auto ids = m.edge_ids(g);
    if (!ids.empty()) m.remove(g, ids[0]);
    auto p = find_augmenting_path_bounded(g, m, 7);
    if (!p) continue;
    const std::size_t before = m.size();
    apply_augmenting_path(g, m, *p);  // validates alternation internally
    EXPECT_EQ(m.size(), before + 1);
  }
}

TEST(AugmentingSearch, ApplyRejectsBadPaths) {
  Graph g = path_graph(4);
  Matching m = Matching::from_edges(g, {1});
  EXPECT_THROW(apply_augmenting_path(g, m, {}), std::invalid_argument);
  EXPECT_THROW(apply_augmenting_path(g, m, {0, 1}), std::invalid_argument);
  EXPECT_THROW(apply_augmenting_path(g, m, {1}), std::invalid_argument);
  // Non-alternating: 0,2 are not adjacent edges.
  EXPECT_THROW(apply_augmenting_path(g, m, {0, 2, 1}), std::invalid_argument);
}

TEST(SymmetricDifferenceDecomposition, PathsAndCycles) {
  // Cycle of 6 with two disjoint perfect matchings = one alternating
  // 6-cycle.
  Graph g = cycle_graph(6);
  Matching a = Matching::from_edges(g, {0, 2, 4});
  // Edge ids: cycle_graph edges are 0:0-1,1:1-2,...,4:4-5,5:0-5.
  Matching b = Matching::from_edges(g, {1, 3, 5});
  auto comps = decompose_symmetric_difference(g, a, b);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].kind, AlternatingComponent::Kind::kCycle);
  EXPECT_EQ(comps[0].edges.size(), 6u);

  // Path of 4: a={0-1}, b={1-2}: symmetric difference is a 2-edge path.
  Graph p = path_graph(4);
  Matching pa = Matching::from_edges(p, {0});
  Matching pb = Matching::from_edges(p, {1});
  auto pcomps = decompose_symmetric_difference(p, pa, pb);
  ASSERT_EQ(pcomps.size(), 1u);
  EXPECT_EQ(pcomps[0].kind, AlternatingComponent::Kind::kPath);
  EXPECT_EQ(pcomps[0].edges.size(), 2u);
  EXPECT_EQ(pcomps[0].nodes.size(), 3u);
}

TEST(SymmetricDifferenceDecomposition, IdenticalMatchingsEmpty) {
  Graph g = path_graph(6);
  Matching m = Matching::from_edges(g, {0, 2});
  EXPECT_TRUE(decompose_symmetric_difference(g, m, m).empty());
}

class SymDiffSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymDiffSweep, ComponentsPartitionSymmetricDifference) {
  Rng rng(GetParam());
  Graph g = erdos_renyi(40, 0.08, rng);
  Matching a = greedy_mcm(g);
  // Second matching from a different edge order: use weights shuffle.
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  Matching b(g.num_nodes());
  for (EdgeId e : order) {
    const Edge& ed = g.edge(e);
    if (b.is_free(ed.u) && b.is_free(ed.v)) b.add(g, e);
  }
  auto comps = decompose_symmetric_difference(g, a, b);
  std::size_t total_edges = 0;
  for (const auto& c : comps) {
    total_edges += c.edges.size();
    // Every component alternates between a-edges and b-edges.
    for (std::size_t i = 0; i + 1 < c.edges.size(); ++i) {
      const bool in_a1 = a.contains(g, c.edges[i]);
      const bool in_a2 = a.contains(g, c.edges[i + 1]);
      EXPECT_NE(in_a1, in_a2);
    }
    if (c.kind == AlternatingComponent::Kind::kPath) {
      EXPECT_EQ(c.nodes.size(), c.edges.size() + 1);
    } else {
      EXPECT_EQ(c.nodes.size(), c.edges.size());
      EXPECT_EQ(c.edges.size() % 2, 0u);  // alternating cycles are even
    }
  }
  // Total = |A ⊕ B|.
  std::set<EdgeId> sym;
  for (EdgeId e : a.edge_ids(g)) sym.insert(e);
  for (EdgeId e : b.edge_ids(g)) {
    if (!sym.insert(e).second) sym.erase(e);
  }
  EXPECT_EQ(total_edges, sym.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymDiffSweep,
                         ::testing::Values(3u, 7u, 11u, 19u, 23u));

}  // namespace
}  // namespace lps
