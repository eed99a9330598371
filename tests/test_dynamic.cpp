// Tests for src/dynamic: the DynamicGraph rows (O(deg) updates,
// sorted-incidence invariant, id recycling, snapshots), the two
// matching maintainers (validity after every update, greedy
// 2-approximation against the exact oracle, repair augmentation and
// registry escalation), the update-stream generators, the switch
// traffic adapter, and the runner's dynamic leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/matcher.hpp"
#include "dynamic/stream.hpp"
#include "dynamic/switch_adapter.hpp"
#include "graph/generators.hpp"
#include "run_record.hpp"
#include "util/rng.hpp"

namespace lps::dynamic {
namespace {

std::size_t exact_mcm_size(const DynamicGraph& g) {
  const Snapshot snap = g.snapshot();
  const api::SolveResult solved = api::SolverRegistry::global().at("blossom").solve(
      api::Instance::unweighted(snap.graph), api::SolverConfig());
  return solved.matching.size();
}

/// No live edge may have both endpoints free (maximality).
void expect_maximal(const DynamicMatcher& m) {
  const DynamicGraph& g = m.graph();
  for (EdgeId e = 0; e < g.edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    const Edge ed = g.edge(e);
    EXPECT_FALSE(m.is_free(ed.u) && m.is_free(ed.v))
        << "edge " << e << " = (" << ed.u << ", " << ed.v << ") uncovered";
  }
}

// ------------------------------------------------------- DynamicGraph --

TEST(DynamicGraph, InsertDeleteFindAndInvariants) {
  DynamicGraph g(5);
  EXPECT_EQ(g.num_live_nodes(), 5u);
  const EdgeId e01 = g.insert_edge(0, 1);
  const EdgeId e31 = g.insert_edge(3, 1, 2.5);
  const EdgeId e24 = g.insert_edge(4, 2);  // normalized to (2, 4)
  g.check_invariants();
  EXPECT_EQ(g.num_live_edges(), 3u);
  EXPECT_EQ(g.find_edge(1, 0), e01);
  EXPECT_EQ(g.find_edge(1, 3), e31);
  EXPECT_EQ(g.edge(e24).u, 2u);
  EXPECT_EQ(g.edge(e24).v, 4u);
  EXPECT_DOUBLE_EQ(g.weight(e31), 2.5);
  EXPECT_EQ(g.degree(1), 2u);
  // Sorted incidence: node 1 sees 0 then 3.
  ASSERT_EQ(g.neighbors(1).size(), 2u);
  EXPECT_EQ(g.neighbors(1)[0].to, 0u);
  EXPECT_EQ(g.neighbors(1)[1].to, 3u);

  EXPECT_THROW(g.insert_edge(0, 1), std::invalid_argument);  // duplicate
  EXPECT_THROW(g.insert_edge(2, 2), std::invalid_argument);  // self-loop
  EXPECT_THROW(g.insert_edge(0, 9), std::invalid_argument);  // unknown
  EXPECT_THROW(g.insert_edge(0, 2, -1.0), std::invalid_argument);

  g.delete_edge(e01);
  g.check_invariants();
  EXPECT_EQ(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_THROW(g.delete_edge(e01), std::invalid_argument);  // already dead
  EXPECT_EQ(g.num_live_edges(), 2u);
}

TEST(DynamicGraph, EdgeIdRecyclingBoundsTheTable) {
  DynamicGraph g(4);
  const EdgeId first = g.insert_edge(0, 1);
  g.delete_edge(first);
  const EdgeId second = g.insert_edge(2, 3);
  EXPECT_EQ(second, first);  // recycled
  EXPECT_EQ(g.edge_slots(), 1u);
  for (int i = 0; i < 100; ++i) {
    const EdgeId e = g.insert_edge(0, 1);
    g.delete_edge(e);
  }
  EXPECT_LE(g.edge_slots(), 2u);
  g.check_invariants();
}

TEST(DynamicGraph, VertexAddRemove) {
  DynamicGraph g(3);
  const NodeId v = g.add_vertex();
  EXPECT_EQ(v, 3u);
  g.insert_edge(0, v);
  g.insert_edge(1, v);
  g.insert_edge(0, 1);
  g.remove_vertex(v);
  g.check_invariants();
  EXPECT_FALSE(g.node_alive(v));
  EXPECT_EQ(g.num_live_edges(), 1u);  // (0, 1) survives
  EXPECT_EQ(g.find_edge(0, v), kInvalidEdge);
  EXPECT_THROW(g.remove_vertex(v), std::invalid_argument);
  EXPECT_THROW(g.insert_edge(0, v), std::invalid_argument);
  // Vertex ids are not recycled.
  EXPECT_EQ(g.add_vertex(), 4u);
}

TEST(DynamicGraph, SnapshotCompactsAndMapsBack) {
  DynamicGraph g(4);
  g.insert_edge(0, 1, 2.0);
  const EdgeId e12 = g.insert_edge(1, 2, 3.0);
  g.insert_edge(2, 3, 4.0);
  g.remove_vertex(0);  // kills (0,1); snapshot must skip dead slot 0
  const Snapshot snap = g.snapshot();
  EXPECT_EQ(snap.graph.num_nodes(), 3u);
  EXPECT_EQ(snap.graph.num_edges(), 2u);
  ASSERT_EQ(snap.node_to_dynamic.size(), 3u);
  EXPECT_EQ(snap.node_to_dynamic[0], 1u);
  EXPECT_EQ(snap.dynamic_to_node[0], kInvalidNode);
  EXPECT_EQ(snap.edge_to_dynamic[0], e12);
  EXPECT_DOUBLE_EQ(snap.weights[0], 3.0);
  // Snapshot edges reference compacted ids and keep the invariant.
  const Graph& sg = snap.graph;
  for (NodeId v = 0; v < sg.num_nodes(); ++v) {
    const auto nbrs = sg.neighbors(v);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1].to, nbrs[i].to);
    }
  }
}

/// Column-for-column equality of two stores (the reverse-arc table
/// aside, which depends on the columns alone).
void expect_same_columns(const GraphStore& a, const GraphStore& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.max_degree, b.max_degree);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.adj_to, b.adj_to);
  EXPECT_EQ(a.adj_edge, b.adj_edge);
  EXPECT_EQ(a.edge_u, b.edge_u);
  EXPECT_EQ(a.edge_v, b.edge_v);
}

TEST(DynamicGraph, SnapshotIsTheGraphOfTheLiveEdges) {
  // Whatever a stream did to the rows, snapshot() is the Graph of the
  // live vertices (renumbered in id order) and the live edges in
  // dynamic-id order, and its three id maps round-trip.
  for (const char* spec :
       {"churn:n=32,m0=60,updates=500,vertex=0.1,reweight=0.05,wlo=1,whi=9",
        "window:n=32,updates=400,window=40", "pa:n0=4,updates=150,attach=3",
        "adversarial:n=32,m0=50,updates=400"}) {
    SCOPED_TRACE(spec);
    const StreamSpec stream = make_update_stream(spec, 5);
    GreedyDynamicMatcher m{DynamicGraph(stream.initial_nodes)};
    m.apply_trace(stream.trace);
    const DynamicGraph& g = m.graph();
    const Snapshot snap = g.snapshot();

    std::vector<NodeId> rank(g.node_slots(), kInvalidNode);
    NodeId live_n = 0;
    for (NodeId v = 0; v < g.node_slots(); ++v) {
      if (g.node_alive(v)) rank[v] = live_n++;
    }
    std::vector<Edge> live;
    std::vector<EdgeId> live_ids;
    std::vector<double> live_w;
    for (EdgeId e = 0; e < g.edge_slots(); ++e) {
      if (!g.edge_alive(e)) continue;
      live.push_back({rank[g.edge(e).u], rank[g.edge(e).v]});
      live_ids.push_back(e);
      live_w.push_back(g.weight(e));
    }
    expect_same_columns(snap.graph.store(), Graph(live_n, live).store());
    EXPECT_EQ(snap.weights, live_w);
    EXPECT_EQ(snap.edge_to_dynamic, live_ids);

    ASSERT_EQ(snap.node_to_dynamic.size(), live_n);
    ASSERT_EQ(snap.dynamic_to_node.size(), g.node_slots());
    for (NodeId i = 0; i < live_n; ++i) {
      EXPECT_EQ(snap.dynamic_to_node[snap.node_to_dynamic[i]], i);
    }
    for (NodeId v = 0; v < g.node_slots(); ++v) {
      EXPECT_EQ(snap.dynamic_to_node[v], rank[v]);
    }
    for (EdgeId i = 0; i < snap.graph.num_edges(); ++i) {
      const Edge se = snap.graph.edge(i);
      const Edge de = g.edge(snap.edge_to_dynamic[i]);
      EXPECT_EQ(snap.node_to_dynamic[se.u], de.u);
      EXPECT_EQ(snap.node_to_dynamic[se.v], de.v);
    }
  }
}

TEST(DynamicGraph, FromGraphPreservesIdsAndWeights) {
  // Edges given out of order: ids follow the list, rows follow the ids.
  Rng rng(6);
  const Graph er = erdos_renyi(200, 0.03, rng);
  for (const Graph& g : {Graph(5, {{3, 4}, {1, 0}, {2, 1}}), er}) {
    std::vector<double> w(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) w[e] = 1.0 + e % 7;
    const DynamicGraph dg = DynamicGraph::from_graph(g, &w);
    dg.check_invariants();
    ASSERT_EQ(dg.num_live_edges(), g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(dg.edge(e), g.edge(e));
      EXPECT_DOUBLE_EQ(dg.weight(e), w[e]);
    }
    // A snapshot of the untouched graph hands back g's columns, w and
    // identity id maps.
    const Snapshot snap = dg.snapshot();
    expect_same_columns(snap.graph.store(), g.store());
    EXPECT_EQ(snap.weights, w);
    std::vector<NodeId> nodes(g.num_nodes());
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    std::vector<EdgeId> edges(g.num_edges());
    std::iota(edges.begin(), edges.end(), EdgeId{0});
    EXPECT_EQ(snap.node_to_dynamic, nodes);
    EXPECT_EQ(snap.dynamic_to_node, nodes);
    EXPECT_EQ(snap.edge_to_dynamic, edges);
  }
}

// ----------------------------------------------------------- streams --

TEST(UpdateStream, DeterministicForFixedSeed) {
  const char* specs[] = {
      "churn:n=64,m0=100,updates=400,vertex=0.05,reweight=0.1,wlo=1,whi=9",
      "window:n=64,updates=300,window=80",
      "pa:n0=8,updates=200,attach=2",
      "adversarial:n=48,m0=80,updates=300",
  };
  for (const char* spec : specs) {
    const StreamSpec a = make_update_stream(spec, 17);
    const StreamSpec b = make_update_stream(spec, 17);
    ASSERT_EQ(a.trace.size(), b.trace.size()) << spec;
    EXPECT_EQ(a.initial_nodes, b.initial_nodes) << spec;
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].kind, b.trace[i].kind) << spec << " @" << i;
      EXPECT_EQ(a.trace[i].u, b.trace[i].u) << spec << " @" << i;
      EXPECT_EQ(a.trace[i].v, b.trace[i].v) << spec << " @" << i;
      EXPECT_DOUBLE_EQ(a.trace[i].weight, b.trace[i].weight) << spec;
    }
    // A different seed gives a different trace (overwhelmingly likely).
    const StreamSpec c = make_update_stream(spec, 18);
    bool differs = c.trace.size() != a.trace.size();
    for (std::size_t i = 0; !differs && i < a.trace.size(); ++i) {
      differs = a.trace[i].u != c.trace[i].u || a.trace[i].v != c.trace[i].v ||
                a.trace[i].kind != c.trace[i].kind;
    }
    EXPECT_TRUE(differs) << spec;
  }
}

TEST(UpdateStream, TracesApplyCleanly) {
  // Every generated trace must apply without throwing: inserts of
  // absent edges, deletes of live edges, removals of live vertices.
  for (const char* spec :
       {"churn:n=32,m0=60,updates=500,vertex=0.1,reweight=0.05",
        "window:n=32,updates=400,window=40", "pa:n0=4,updates=150,attach=3",
        "adversarial:n=32,m0=50,updates=400"}) {
    const StreamSpec stream = make_update_stream(spec, 5);
    DynamicGraph g(stream.initial_nodes);
    GreedyDynamicMatcher m{DynamicGraph(stream.initial_nodes)};
    EXPECT_NO_THROW(m.apply_trace(stream.trace)) << spec;
    (void)g;
  }
}

TEST(UpdateStream, WindowBoundsLiveEdges) {
  const StreamSpec stream = make_update_stream(
      "window:n=64,updates=500,window=50", 3);
  DynamicGraph g(stream.initial_nodes);
  GreedyDynamicMatcher m{std::move(g)};
  std::uint64_t max_live = 0;
  for (const Update& up : stream.trace) {
    m.apply(up);
    max_live = std::max<std::uint64_t>(max_live, m.graph().num_live_edges());
  }
  EXPECT_LE(max_live, 51u);  // insert lands before the FIFO eviction
  EXPECT_GE(max_live, 50u);
}

TEST(UpdateStream, PreferentialAttachmentGrows) {
  const StreamSpec stream = make_update_stream("pa:n0=8,updates=100,attach=2", 9);
  GreedyDynamicMatcher m{DynamicGraph(stream.initial_nodes)};
  m.apply_trace(stream.trace);
  EXPECT_EQ(m.graph().num_live_nodes(), 108u);
  EXPECT_GT(m.graph().num_live_edges(), 100u);  // ~2 per new vertex
}

TEST(UpdateStream, RejectsUnknownFamiliesAndKeys) {
  EXPECT_THROW(make_update_stream("nope:n=4", 1), std::invalid_argument);
  EXPECT_THROW(make_update_stream("churn:n=16,typo=3,updates=5", 1),
               std::invalid_argument);
  EXPECT_THROW(make_update_stream("churn:updates=5", 1), std::invalid_argument);
}

// --------------------------------------------------------- maintainers --

TEST(GreedyMatcher, MatchesOnInsertAndRematchesOnDelete) {
  GreedyDynamicMatcher m{DynamicGraph(6)};
  m.apply({UpdateKind::kInsertEdge, 0, 1});
  EXPECT_EQ(m.matching_size(), 1u);
  m.apply({UpdateKind::kInsertEdge, 1, 2});  // 1 taken: no match
  m.apply({UpdateKind::kInsertEdge, 2, 3});  // both free: match
  EXPECT_EQ(m.matching_size(), 2u);
  // Deleting matched (0,1) frees 0 and 1; 1 rematches to 2? 2 is
  // matched to 3 — no partner for either. Maximality still holds.
  m.apply({UpdateKind::kDeleteEdge, 0, 1});
  EXPECT_EQ(m.matching_size(), 1u);
  expect_maximal(m);
  // Now delete matched (2,3): 2 should rematch to free 1.
  m.apply({UpdateKind::kDeleteEdge, 2, 3});
  EXPECT_EQ(m.matching_size(), 1u);
  EXPECT_EQ(m.mate(1), 2u);
  expect_maximal(m);
  m.check_matching();
}

TEST(GreedyMatcher, VertexRemovalRematchesTheWidow) {
  GreedyDynamicMatcher m{DynamicGraph(4)};
  m.apply({UpdateKind::kInsertEdge, 0, 1});
  m.apply({UpdateKind::kInsertEdge, 1, 2});
  m.apply({UpdateKind::kRemoveVertex, 0});
  // 1 lost its mate 0 and must pick up 2.
  EXPECT_EQ(m.mate(1), 2u);
  expect_maximal(m);
  m.check_matching();
}

TEST(RepairMatcher, AugmentsThroughAlternatingPaths) {
  // Greedy would lock (1,2) and stay at size 1; the repair pass must
  // find the augmenting path 0 - 1 - 2 - 3 and reach the optimum 2.
  auto m = make_matcher("repair", DynamicGraph(4), {{"interval", "1"}});
  m->apply({UpdateKind::kInsertEdge, 1, 2});
  m->apply({UpdateKind::kInsertEdge, 0, 1});
  m->apply({UpdateKind::kInsertEdge, 2, 3});
  m->flush();
  EXPECT_EQ(m->matching_size(), 2u);
  EXPECT_GT(m->stats().augmentations, 0u);
  m->check_matching();
}

TEST(RepairMatcher, PathCapFollowsEps) {
  RepairDynamicMatcher tight{DynamicGraph(2), {0.5, 8, "", 0.25}};
  EXPECT_EQ(tight.path_cap(), 1);  // k = 1: only direct matches
  RepairDynamicMatcher loose{DynamicGraph(2), {0.1, 8, "", 0.25}};
  EXPECT_EQ(loose.path_cap(), 17);  // k = 9
  EXPECT_THROW((RepairDynamicMatcher{DynamicGraph(2), {0.0, 8, "", 0.25}}),
               std::invalid_argument);
  EXPECT_THROW((RepairDynamicMatcher{DynamicGraph(2), {0.2, 0, "", 0.25}}),
               std::invalid_argument);
}

TEST(RepairMatcher, EscalatesToRegistryRebuild) {
  auto m = make_matcher(
      "repair", DynamicGraph(32),
      {{"interval", "8"}, {"rebuild", "greedy_mcm"}, {"rebuild_frac", "0.0"}});
  const StreamSpec stream =
      make_update_stream("churn:n=32,m0=60,updates=200", 11);
  for (const Update& up : stream.trace) m->apply(up);
  m->flush();
  EXPECT_GT(m->stats().rebuilds, 0u);
  m->check_matching();
  m->graph().check_invariants();
}

TEST(ScratchMatcher, TracksTheRegistrySolveExactly) {
  auto m = make_matcher("scratch", DynamicGraph(16), {{"solver", "greedy_mcm"}});
  const StreamSpec stream =
      make_update_stream("churn:n=16,m0=20,updates=60", 23);
  for (const Update& up : stream.trace) {
    m->apply(up);
    m->check_matching();
    // After every update the scratch maintainer's matching must be the
    // one an independent registry solve of the same snapshot produces.
    const Snapshot snap = m->graph().snapshot();
    api::SolverConfig config;
    config.seed(1);  // the factory's default scratch seed
    const api::SolveResult solved =
        api::SolverRegistry::global().at("greedy_mcm").solve(
            api::Instance::unweighted(snap.graph), config);
    ASSERT_EQ(m->matching_size(), solved.matching.size());
  }
  EXPECT_EQ(m->stats().rebuilds, m->stats().updates + 1);  // +1: seeding solve
}

TEST(Matcher, RejectsBadUpdatesAndConfigs) {
  GreedyDynamicMatcher m{DynamicGraph(4)};
  EXPECT_THROW(m.apply({UpdateKind::kDeleteEdge, 0, 1}), std::invalid_argument);
  EXPECT_THROW(m.apply({UpdateKind::kRemoveVertex, 9}), std::invalid_argument);
  EXPECT_THROW(m.apply({UpdateKind::kSetWeight, 0, 1, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(make_matcher("nope", DynamicGraph(2)), std::invalid_argument);
  EXPECT_THROW(make_matcher("greedy", DynamicGraph(2), {{"eps", "0.1"}}),
               std::invalid_argument);
  EXPECT_THROW(make_matcher("repair", DynamicGraph(2), {{"typo", "1"}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- soak --

/// The acceptance soak: >= 10k mixed updates (inserts, deletes, vertex
/// add/remove, reweights), every structural and matching invariant
/// checked after every single update, and the greedy maintainer's
/// 2-approximation audited against the exact blossom oracle at regular
/// checkpoints. Runs for both maintainers.
TEST(DynamicSoak, MixedChurn10kInvariantCheckedEveryUpdate) {
  const StreamSpec stream = make_update_stream(
      "churn:n=96,m0=300,updates=10000,insert=0.55,vertex=0.04,reweight=0.02,"
      "wlo=1,whi=16",
      7);
  ASSERT_GE(stream.trace.size(), 10000u);
  for (const char* name : {"greedy", "repair"}) {
    auto m = make_matcher(
        name, DynamicGraph(stream.initial_nodes),
        name == std::string("repair")
            ? std::map<std::string, std::string>{{"interval", "16"},
                                                 {"eps", "0.25"}}
            : std::map<std::string, std::string>{});
    std::uint64_t i = 0;
    for (const Update& up : stream.trace) {
      ASSERT_NO_THROW(m->apply(up)) << name << " @" << i;
      // Structural + matching audit after *every* update: live edges
      // only, no shared endpoints, consistent tables.
      ASSERT_NO_THROW(m->graph().check_invariants()) << name << " @" << i;
      ASSERT_NO_THROW(m->check_matching()) << name << " @" << i;
      if (name == std::string("greedy") && i % 250 == 0) {
        // Maximality => vertex-cover guard => 2-approximation.
        expect_maximal(*m);
        const std::size_t opt = exact_mcm_size(m->graph());
        ASSERT_GE(2 * m->matching_size(), opt) << name << " @" << i;
      }
      ++i;
    }
    m->flush();
    m->check_matching();
    m->graph().check_invariants();
    const std::size_t opt = exact_mcm_size(m->graph());
    EXPECT_GE(2 * m->matching_size(), opt) << name;
    if (name == std::string("repair")) {
      // After the final repair pass the lazy maintainer must also be
      // within its bound (empirically far closer to opt).
      EXPECT_GE(4 * m->matching_size(), 3 * opt) << "repair quality";
    }
  }
}

TEST(DynamicSoak, AdversarialDeleteMatchedStaysValid) {
  const StreamSpec stream =
      make_update_stream("adversarial:n=64,m0=128,updates=3000", 13);
  auto m = make_matcher("greedy", DynamicGraph(stream.initial_nodes));
  std::uint64_t i = 0;
  for (const Update& up : stream.trace) {
    m->apply(up);
    ASSERT_NO_THROW(m->check_matching()) << i;
    ++i;
  }
  expect_maximal(*m);
  // The adversary really does hit matched edges: recourse per update
  // must be well above the uniform-churn baseline's.
  EXPECT_GT(static_cast<double>(m->stats().recourse) /
                static_cast<double>(m->stats().updates),
            0.5);
}

// ------------------------------------------------------ switch adapter --

TEST(SwitchAdapter, ServesTrafficAndStaysConsistent) {
  SwitchReplayConfig config;
  config.ports = 8;
  config.slots = 3000;
  config.load = 0.6;
  config.seed = 5;
  for (const char* name : {"greedy", "repair"}) {
    auto m = make_matcher(
        name, make_port_graph(config.ports),
        name == std::string("repair")
            ? std::map<std::string, std::string>{{"interval", "4"}}
            : std::map<std::string, std::string>{});
    const SwitchReplayMetrics metrics = replay_switch(*m, config);
    EXPECT_GT(metrics.arrived, 0u);
    // A maximal matching over 8 ports at load 0.6 keeps up with nearly
    // all traffic; anything below 0.9 means the adapter lost cells.
    EXPECT_GT(metrics.normalized_throughput, 0.9) << name;
    EXPECT_GT(metrics.updates, 0u);
    m->check_matching();
    m->graph().check_invariants();
  }
}

TEST(SwitchAdapter, DeterministicAndShapeChecked) {
  SwitchReplayConfig config;
  config.ports = 4;
  config.slots = 500;
  config.load = 0.5;
  auto a = make_matcher("greedy", make_port_graph(config.ports));
  auto b = make_matcher("greedy", make_port_graph(config.ports));
  const SwitchReplayMetrics ma = replay_switch(*a, config);
  const SwitchReplayMetrics mb = replay_switch(*b, config);
  EXPECT_EQ(ma.arrived, mb.arrived);
  EXPECT_EQ(ma.delivered, mb.delivered);
  EXPECT_EQ(ma.updates, mb.updates);
  EXPECT_EQ(ma.recourse, mb.recourse);

  auto wrong = make_matcher("greedy", DynamicGraph(3));
  EXPECT_THROW(replay_switch(*wrong, config), std::invalid_argument);
}

// --------------------------------------------------------- runner leg --

TEST(RunnerDynamicLeg, EmitsThroughputRecourseAndRatio) {
  api::RunSpec spec;
  spec.generator = "path:n=2";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.dynamic = "repair";
  spec.dynamic_stream = "churn:n=128,m0=256,updates=2000";
  spec.dynamic_config = "interval=16";
  spec.dynamic_checkpoints = 4;
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.dynamic_maintainer, "repair");
  // The m0 = 256 build inserts are warm-up; only the churn phase is
  // measured.
  EXPECT_EQ(res.dynamic_bootstrap_updates, 256u);
  EXPECT_EQ(res.dynamic_updates, 2000u);
  EXPECT_GT(res.dynamic_updates_per_sec, 0.0);
  EXPECT_TRUE(res.dynamic_valid);
  EXPECT_EQ(res.dynamic_baseline, "blossom");  // n <= 400: exact oracle
  EXPECT_GT(res.dynamic_ratio, 0.8);
  EXPECT_GT(res.dynamic_ratio_min, 0.5);
  EXPECT_LE(res.dynamic_ratio_min, res.dynamic_ratio + 1e-12);
  const JsonValue rec = testing::parse_record(res.to_json());
  using testing::field;
  EXPECT_EQ(field(rec, "dynamic_maintainer").string, "repair");
  EXPECT_EQ(field(rec, "dynamic_stream").string, spec.dynamic_stream);
  EXPECT_EQ(field(rec, "dynamic_bootstrap_updates").number, 256.0);
  EXPECT_EQ(field(rec, "dynamic_updates").number, 2000.0);
  EXPECT_EQ(field(rec, "dynamic_updates_per_sec").number,
            res.dynamic_updates_per_sec);
  EXPECT_EQ(field(rec, "dynamic_recourse_per_update").number,
            res.dynamic_recourse_per_update);
  EXPECT_EQ(field(rec, "dynamic_ratio").number, res.dynamic_ratio);
  EXPECT_EQ(field(rec, "dynamic_ratio_min").number, res.dynamic_ratio_min);
  EXPECT_EQ(field(rec, "dynamic_baseline").string, "blossom");
  EXPECT_TRUE(field(rec, "dynamic_valid").boolean);
  const JsonValue& prov = field(rec, "provenance");
  EXPECT_EQ(field(prov, "git_sha").string, res.prov_git_sha);
  EXPECT_EQ(field(prov, "build_type").string, res.prov_build_type);
  EXPECT_EQ(field(prov, "timestamp_utc").string, res.prov_timestamp_utc);
}

TEST(RunnerDynamicLeg, RequiresAStreamSpec) {
  api::RunSpec spec;
  spec.generator = "path:n=2";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.dynamic = "greedy";
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
}

TEST(Provenance, StampedOnEveryRun) {
  api::RunSpec spec;
  spec.generator = "path:n=4";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  const api::RunResult res = api::run_one(spec);
  EXPECT_FALSE(res.prov_git_sha.empty());
  EXPECT_FALSE(res.prov_build_type.empty());
  EXPECT_EQ(res.prov_threads, 1u);
  // ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
  ASSERT_EQ(res.prov_timestamp_utc.size(), 20u);
  EXPECT_EQ(res.prov_timestamp_utc[10], 'T');
  EXPECT_EQ(res.prov_timestamp_utc.back(), 'Z');
}

}  // namespace
}  // namespace lps::dynamic
