// Tests for src/graph: Graph/CSR integrity, bipartition, components,
// subgraphs, generators (parameterized sweeps), weights, IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/matching.hpp"
#include "graph/weights.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

// -------------------------------------------------------------- Graph --

TEST(Graph, BasicConstructionAndAdjacency) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  // Every incidence is symmetric and consistent.
  for (NodeId v = 0; v < 4; ++v) {
    for (const auto& inc : g.neighbors(v)) {
      EXPECT_EQ(g.other_endpoint(inc.edge, v), inc.to);
      bool found = false;
      for (const auto& back : g.neighbors(inc.to)) {
        found |= (back.to == v && back.edge == inc.edge);
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(Graph, NormalizesEndpointOrder) {
  Graph g(3, {{2, 0}});
  EXPECT_EQ(g.edge(0).u, 0u);
  EXPECT_EQ(g.edge(0).v, 2u);
}

TEST(Graph, RejectsBadInput) {
  EXPECT_THROW(Graph(2, {{0, 0}}), std::invalid_argument);   // self-loop
  EXPECT_THROW(Graph(2, {{0, 2}}), std::invalid_argument);   // range
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 0}}), std::invalid_argument);  // dup
}

TEST(Graph, FindEdge) {
  Graph g(5, {{0, 1}, {1, 2}, {0, 4}});
  EXPECT_EQ(g.find_edge(1, 0), 0u);
  EXPECT_EQ(g.find_edge(4, 0), 2u);
  EXPECT_EQ(g.find_edge(2, 3), kInvalidEdge);
}

TEST(Graph, IncidenceListsSortedByNeighborRegardlessOfEdgeOrder) {
  // Deliberately scrambled edge input: the CSR construction must still
  // deliver each incidence list sorted by neighbor id (the documented
  // invariant behind binary-search find_edge and canonical inbox order).
  Graph g(6, {{4, 2}, {0, 5}, {3, 0}, {2, 0}, {5, 2}, {1, 0}});
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1].to, nbrs[i].to) << "vertex " << v;
    }
  }
  // Binary-search find_edge agrees with a linear scan on every pair.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EdgeId expect = kInvalidEdge;
      for (const auto& inc : g.neighbors(u)) {
        if (inc.to == v) expect = inc.edge;
      }
      EXPECT_EQ(g.find_edge(u, v), expect) << u << "-" << v;
    }
  }
}

TEST(Graph, FindEdgeFuzzAgainstLinearScan) {
  Rng rng(41);
  const Graph g = erdos_renyi(60, 0.15, rng);
  for (int trial = 0; trial < 500; ++trial) {
    const NodeId u = static_cast<NodeId>(rng.below(60));
    const NodeId v = static_cast<NodeId>(rng.below(60));
    EdgeId expect = kInvalidEdge;
    for (const auto& inc : g.neighbors(u)) {
      if (inc.to == v) expect = inc.edge;
    }
    EXPECT_EQ(g.find_edge(u, v), expect);
  }
}

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.bipartition().has_value());
}

// --------------------------------------------- reverse-arc table --

/// rev_slot()'s definition, checked arc by arc against a binary search
/// of the receiver's sorted row.
void expect_rev_slot_definition(const GraphStore& s) {
  const std::vector<std::uint32_t>& rev = s.rev_slot();
  ASSERT_EQ(rev.size(), s.adj_to.size());
  for (NodeId v = 0; v < s.n; ++v) {
    for (std::uint64_t a = s.offsets[v]; a < s.offsets[v + 1]; ++a) {
      const NodeId to = s.adj_to[a];
      const NodeId* row = s.adj_to.data() + s.offsets[to];
      const NodeId* hit =
          std::lower_bound(row, s.adj_to.data() + s.offsets[to + 1], v);
      ASSERT_EQ(rev[a], static_cast<std::uint32_t>(hit - row))
          << "arc " << v << " -> " << to;
      ASSERT_EQ(s.adj_to[s.offsets[to] + rev[a]], v);
    }
  }
}

TEST(GraphStore, RevSlotMatchesDefinition) {
  Rng rng(3);
  expect_rev_slot_definition(erdos_renyi(500, 0.02, rng).store());
  expect_rev_slot_definition(
      random_bipartite(200, 150, 0.03, rng).graph.store());
  // A star: the hub's row is every sender's target.
  std::vector<Edge> star;
  for (NodeId v = 1; v <= 2000; ++v) star.push_back({v, 0});
  expect_rev_slot_definition(Graph(2001, star).store());
  // Isolated vertices interleaved with a triangle and a pair.
  expect_rev_slot_definition(
      Graph(50, {{40, 3}, {7, 40}, {3, 7}, {10, 11}}).store());
  expect_rev_slot_definition(Graph(0, {}).store());
}

TEST(GraphStore, RevSlotOnCompactedDynamicStore) {
  Rng rng(8);
  dynamic::DynamicGraph dg =
      dynamic::DynamicGraph::from_graph(erdos_renyi(300, 0.03, rng));
  for (EdgeId e = 0; e < 60; e += 3) dg.delete_edge(e);
  dg.remove_vertex(17);
  for (NodeId v = 0; v + 5 < 300; v += 7) {
    if (v != 17 && v + 5 != 17 && dg.find_edge(v, v + 5) == kInvalidEdge) {
      dg.insert_edge(v, v + 5);
    }
  }
  // The snapshot's store is what a mutated dynamic graph hands the
  // solvers and the engine.
  const dynamic::Snapshot snap = dg.snapshot();
  ASSERT_EQ(snap.graph.num_nodes(), 299u);
  expect_rev_slot_definition(snap.graph.store());
}

TEST(GraphStore, RevSlotRejectsUnsortedRow) {
  // Path 1 - 0 - 2 with vertex 0's row stored as {2, 1}: a binary
  // search would silently return a wrong slot here. GraphStore::build
  // never makes such a store, so it is assembled by hand.
  GraphStore s;
  s.n = 3;
  s.offsets = {0, 2, 3, 4};
  s.adj_to = {2, 1, 0, 0};
  s.adj_edge = {1, 0, 0, 1};
  s.edge_u = {0, 0};
  s.edge_v = {1, 2};
  EXPECT_THROW(s.rev_slot(), std::logic_error);
  EXPECT_THROW(s.rev_slot(), std::logic_error);  // and on every call
}

TEST(GraphStore, RevSlotIsBuiltOnceAndNeverCopied) {
  Rng rng(4);
  const Graph g = erdos_renyi(200, 0.05, rng);
  const std::uint32_t* table = g.store().rev_slot().data();
  EXPECT_EQ(g.store().rev_slot().data(), table);  // built once
  const GraphStore copy = g.store();  // builds a table of its own
  EXPECT_EQ(copy.rev_slot(), g.store().rev_slot());
  EXPECT_NE(copy.rev_slot().data(), table);
}

TEST(Graph, BipartitionEvenCycleYesOddCycleNo) {
  EXPECT_TRUE(cycle_graph(8).bipartition().has_value());
  EXPECT_FALSE(cycle_graph(9).bipartition().has_value());
  const auto side = cycle_graph(8).bipartition();
  const Graph g = cycle_graph(8);
  for (const Edge& e : g.edges()) {
    EXPECT_NE((*side)[e.u], (*side)[e.v]);
  }
}

TEST(Graph, ComponentsCountsIslands) {
  // Two triangles and an isolated vertex.
  Graph g(7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const auto comp = g.components();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[6], comp[0]);
  EXPECT_NE(comp[6], comp[3]);
}

TEST(Graph, InducedSubgraphMapsBack) {
  Graph g = complete_graph(5);
  std::vector<char> keep_node(5, 1);
  keep_node[2] = 0;
  Subgraph s = induced_subgraph(g, keep_node, {});
  EXPECT_EQ(s.graph.num_nodes(), 4u);
  EXPECT_EQ(s.graph.num_edges(), 6u);  // K4
  for (EdgeId e = 0; e < s.graph.num_edges(); ++e) {
    const Edge& sub = s.graph.edge(e);
    const Edge& parent = g.edge(s.edge_to_parent[e]);
    EXPECT_EQ(s.node_to_parent[sub.u], parent.u);
    EXPECT_EQ(s.node_to_parent[sub.v], parent.v);
  }
  EXPECT_EQ(s.parent_to_node[2], kInvalidNode);
}

TEST(Graph, InducedSubgraphEdgeMask) {
  Graph g = path_graph(4);  // edges 0-1,1-2,2-3
  std::vector<char> keep_edge(3, 0);
  keep_edge[1] = 1;
  Subgraph s = induced_subgraph(g, {}, keep_edge);
  EXPECT_EQ(s.graph.num_nodes(), 4u);
  EXPECT_EQ(s.graph.num_edges(), 1u);
  EXPECT_EQ(s.edge_to_parent[0], 1u);
}

TEST(WeightedGraph, MakeWeightedValidates) {
  Graph g = path_graph(3);
  EXPECT_THROW(make_weighted(g, {1.0}), std::invalid_argument);
  EXPECT_THROW(make_weighted(g, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(make_weighted(g, {1.0, -2.0}), std::invalid_argument);
  auto wg = make_weighted(g, {1.0, 2.5});
  EXPECT_DOUBLE_EQ(wg.weight(1), 2.5);
}

// --------------------------------------------------- fixed generators --

TEST(Generators, FixedTopologies) {
  EXPECT_EQ(path_graph(6).num_edges(), 5u);
  EXPECT_EQ(cycle_graph(6).num_edges(), 6u);
  EXPECT_EQ(complete_graph(7).num_edges(), 21u);
  EXPECT_EQ(star_graph(9).num_edges(), 8u);
  EXPECT_EQ(star_graph(9).max_degree(), 8u);
  EXPECT_EQ(grid_graph(3, 4).num_edges(), 3u * 3 + 2u * 4);
  EXPECT_EQ(binary_tree(15).num_edges(), 14u);
  EXPECT_EQ(complete_bipartite(3, 4).num_edges(), 12u);
  EXPECT_THROW(cycle_graph(2), std::invalid_argument);
}

TEST(Generators, CompleteBipartiteIsBipartiteWithSides) {
  const Graph g = complete_bipartite(4, 5);
  const auto side = g.bipartition();
  ASSERT_TRUE(side.has_value());
  for (const Edge& e : g.edges()) EXPECT_NE((*side)[e.u], (*side)[e.v]);
}

// ------------------------------------------- parameterized generators --

class GeneratorSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSweep, ErdosRenyiEdgeCountConcentration) {
  Rng rng(GetParam());
  const NodeId n = 200;
  const double p = 0.05;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(g.num_edges(), expected, 5 * std::sqrt(expected) + 10);
  // Validity is enforced by the Graph constructor (no dups/loops).
}

TEST_P(GeneratorSweep, ErdosRenyiExtremes) {
  Rng rng(GetParam());
  EXPECT_EQ(erdos_renyi(50, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng).num_edges(), 190u);
}

TEST_P(GeneratorSweep, RandomBipartiteRespectsSides) {
  Rng rng(GetParam());
  const auto bg = random_bipartite(30, 40, 0.1, rng);
  EXPECT_EQ(bg.graph.num_nodes(), 70u);
  for (const Edge& e : bg.graph.edges()) {
    EXPECT_LT(e.u, 30u);
    EXPECT_GE(e.v, 30u);
    EXPECT_NE(bg.side[e.u], bg.side[e.v]);
  }
  const double expected = 0.1 * 30 * 40;
  EXPECT_NEAR(bg.graph.num_edges(), expected, 5 * std::sqrt(expected) + 10);
}

TEST_P(GeneratorSweep, RandomBipartiteRegularLeftDegrees) {
  Rng rng(GetParam());
  const auto bg = random_bipartite_regular_left(20, 30, 5, rng);
  for (NodeId x = 0; x < 20; ++x) EXPECT_EQ(bg.graph.degree(x), 5u);
  EXPECT_EQ(bg.graph.num_edges(), 100u);
}

TEST_P(GeneratorSweep, RandomTreeIsTree) {
  Rng rng(GetParam());
  for (NodeId n : {2u, 3u, 10u, 97u}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.num_edges(), n - 1);
    const auto comp = g.components();
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(comp[v], 0u);  // connected
  }
}

TEST_P(GeneratorSweep, RandomRegularDegrees) {
  Rng rng(GetParam());
  const Graph g = random_regular(40, 4, rng);
  for (NodeId v = 0; v < 40; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);  // odd nd
  EXPECT_THROW(random_regular(4, 4, rng), std::invalid_argument);  // d >= n
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Generators, TightBipartiteChainStructure) {
  for (const int k : {1, 2, 4}) {
    const TightChain chain = tight_bipartite_chain(k, 3);
    const NodeId stride = static_cast<NodeId>(2 * k + 2);
    EXPECT_EQ(chain.graph.num_nodes(), 3 * stride);
    EXPECT_EQ(chain.graph.num_edges(), 3u * (stride - 1));
    EXPECT_EQ(chain.matched.size(), 3u * k);
    // The pre-matching is valid, leaves exactly the copy endpoints
    // free, and the shortest augmenting path has length exactly 2k+1.
    const Matching m = Matching::from_edges(chain.graph, chain.matched);
    for (NodeId c = 0; c < 3; ++c) {
      EXPECT_TRUE(m.is_free(c * stride));
      EXPECT_TRUE(m.is_free(c * stride + stride - 1));
    }
    EXPECT_EQ(shortest_augmenting_path_length(chain.graph, m, 2 * k + 1),
              2 * k + 1);
    EXPECT_FALSE(has_augmenting_path_leq(chain.graph, m, 2 * k - 1));
    // Side labels 2-color every edge.
    for (const Edge& e : chain.graph.edges()) {
      EXPECT_NE(chain.side[e.u], chain.side[e.v]);
    }
  }
  EXPECT_THROW(tight_bipartite_chain(0, 2), std::invalid_argument);
}

// ------------------------------------------------------------ weights --

TEST(Weights, UniformBoundsAndValidation) {
  Rng rng(51);
  const auto w = uniform_weights(1000, 2.0, 5.0, rng);
  for (double x : w) {
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 5.0);
  }
  EXPECT_THROW(uniform_weights(10, 0.0, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(uniform_weights(10, 3.0, 2.0, rng), std::invalid_argument);
}

TEST(Weights, IntegerRange) {
  Rng rng(53);
  const auto w = integer_weights(2000, 7, rng);
  std::set<double> seen(w.begin(), w.end());
  for (double x : w) {
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 7.0);
    EXPECT_EQ(x, std::floor(x));
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit with 2000 draws
}

TEST(Weights, PowerOfTwoLevels) {
  Rng rng(57);
  const auto w = power_of_two_weights(500, 4, rng);
  for (double x : w) {
    EXPECT_TRUE(x == 1.0 || x == 2.0 || x == 4.0 || x == 8.0) << x;
  }
}

TEST(Weights, GreedyTrapStructure) {
  const WeightedGraph wg = greedy_trap_path(3, 0.01);
  EXPECT_EQ(wg.graph.num_nodes(), 12u);
  EXPECT_EQ(wg.graph.num_edges(), 9u);
  double total = 0;
  for (double x : wg.weights) total += x;
  EXPECT_NEAR(total, 3 * (2 + 1.01), 1e-12);
}

TEST(Weights, IncreasingPath) {
  const WeightedGraph wg = increasing_path(5);
  EXPECT_EQ(wg.weights, (std::vector<double>{1, 2, 3, 4}));
}

// ----------------------------------------------------------------- IO --

TEST(Io, UnweightedRoundTrip) {
  Rng rng(59);
  const Graph g = erdos_renyi(40, 0.1, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  const ParsedGraph back = read_edge_list(ss);
  EXPECT_EQ(back.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.graph.num_edges(), g.num_edges());
  EXPECT_FALSE(back.weights.has_value());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.graph.edge(e), g.edge(e));
  }
}

TEST(Io, WeightedRoundTripBitExact) {
  Rng rng(61);
  Graph g = erdos_renyi(30, 0.15, rng);
  auto w = uniform_weights(g.num_edges(), 0.001, 1000.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  std::stringstream ss;
  write_edge_list(ss, wg);
  const ParsedGraph back = read_edge_list(ss);
  ASSERT_TRUE(back.weights.has_value());
  EXPECT_EQ(*back.weights, wg.weights);
}

// The writer must produce a faithful serialization no matter what
// formatting state the caller's stream carries: a stream left in
// std::fixed used to collapse small weights to "0.000...0" (the read
// then threw on the non-positive weight), and hexfloat produced output
// operator>> cannot parse at all.
TEST(Io, WeightedRoundTripIgnoresStreamFormattingState) {
  const WeightedGraph wg =
      make_weighted(Graph(4, {{2, 1}, {0, 3}, {0, 1}}), {1e-20, 0.1, 5e-324});
  for (const auto* mode : {"fixed", "scientific", "hexfloat", "precision2"}) {
    std::stringstream ss;
    if (std::string(mode) == "fixed") ss << std::fixed;
    if (std::string(mode) == "scientific") ss << std::scientific;
    if (std::string(mode) == "hexfloat") ss << std::hexfloat;
    if (std::string(mode) == "precision2") ss << std::setprecision(2);
    const auto flags_before = ss.flags();
    const auto precision_before = ss.precision();
    write_edge_list(ss, wg);
    // The writer restores whatever state it changed.
    EXPECT_EQ(ss.flags(), flags_before) << mode;
    EXPECT_EQ(ss.precision(), precision_before) << mode;
    const ParsedGraph back = read_edge_list(ss);
    ASSERT_TRUE(back.weights.has_value()) << mode;
    EXPECT_EQ(*back.weights, wg.weights) << mode;
    // Reading re-establishes the sorted-incidence invariant.
    for (NodeId v = 0; v < back.graph.num_nodes(); ++v) {
      const auto nbrs = back.graph.neighbors(v);
      for (std::size_t i = 1; i < nbrs.size(); ++i) {
        EXPECT_LT(nbrs[i - 1].to, nbrs[i].to) << mode;
      }
    }
    for (EdgeId e = 0; e < wg.graph.num_edges(); ++e) {
      EXPECT_EQ(back.graph.edge(e), wg.graph.edge(e)) << mode;
    }
  }
}

TEST(Io, MalformedInputThrows) {
  std::stringstream empty;
  EXPECT_THROW(read_edge_list(empty), std::invalid_argument);
  std::stringstream truncated("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(truncated), std::invalid_argument);
  std::stringstream missing_weight("2 1 w\n0 1\n");
  EXPECT_THROW(read_edge_list(missing_weight), std::invalid_argument);
  // Malformed input throws a diagnostic that names what is wrong.
  const auto expect_refused = [](const std::string& text,
                                 const std::string& what) {
    std::stringstream in(text);
    try {
      read_edge_list(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  // The header is exactly `n m` or `n m w`; a `W` flag must not read as
  // unweighted and drop the weights.
  expect_refused("2 1 W\n0 1 5.0\n", "'W'");
  expect_refused("2 1 w extra\n0 1 5.0\n", "'extra'");
  expect_refused("2 x\n", "'x'");
  expect_refused("-2 1\n0 1\n", "'-2'");
  // Anything but whitespace after the m-th edge is refused.
  expect_refused("2 1\n0 1 7 8 9\n", "'7'");
  expect_refused("2 1 w\n0 1 5.0 6\n", "'6'");
  expect_refused("3 1\n0 1\n1 2\n", "'1'");
  std::stringstream trailing_space("2 1\n0 1\n \n\t\n");
  EXPECT_EQ(read_edge_list(trailing_space).graph.num_edges(), 1u);
  // A weight that is not a finite number is named as such, with its
  // edge.
  for (const std::string w : {"nan", "inf", "-inf", "1e999", "abc"}) {
    expect_refused("3 2 w\n0 1 2.5\n1 2 " + w + "\n",
                   "edge 1's weight '" + w + "' is not a finite number");
  }
  // A vertex id is a whole unsigned decimal token: a sign, a hex prefix
  // or a fraction is named with its edge, not wrapped, dropped or
  // reported as a truncated list.
  for (const std::string id : {"-1", "+1", "0x1", "1.5"}) {
    expect_refused("3 1\n" + id + " 2\n",
                   "edge 0's endpoint '" + id + "' is not a vertex id");
  }
  // Counts and ids past the u32 id range are refused, never narrowed:
  // n = 2^32 is not an empty graph, a vertex 2^32 is not vertex 0,
  // n = 2^32 + 3 is not 3, and m = 2^64 - 1 is not a reservation.
  for (const char* text : {"4294967296 0", "3 1\n4294967296 1",
                           "4294967299 1\n0 1", "2 18446744073709551615"}) {
    std::stringstream in(text);
    EXPECT_THROW(read_edge_list(in), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace lps
