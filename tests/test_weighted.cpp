// Tests for Section 4: the gain machinery (against the Figure 2
// arithmetic), Lemma 4.1, the class-based delta-MWM black box, and
// Algorithm 5 (Theorem 4.5).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "core/class_mwm.hpp"
#include "core/gain.hpp"
#include "core/israeli_itai.hpp"
#include "core/weighted_mwm.hpp"
#include "engine_cases.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "runtime/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "seq/exact_small.hpp"
#include "seq/greedy.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

using lps::testing::make_fig2;
using lps::testing::sweep_seeds;

// ----------------------------------------------------- gain machinery --

TEST(Gain, Fig2ArithmeticReproduced) {
  const auto fig = make_fig2();
  const Graph& g = fig.wg.graph;

  // w(M) = 14.
  EXPECT_DOUBLE_EQ(fig.m.weight(fig.wg), 14.0);

  // w_M gains: ab = 6-2 = 4, cd = 7-2 = 5, ef = 13-12 = 1; matched: 0.
  const auto gains = gain_weights(fig.wg, fig.m);
  EXPECT_DOUBLE_EQ(gains[g.find_edge(0, 1)], 4.0);
  EXPECT_DOUBLE_EQ(gains[g.find_edge(2, 3)], 5.0);
  EXPECT_DOUBLE_EQ(gains[g.find_edge(4, 5)], 1.0);
  EXPECT_DOUBLE_EQ(gains[g.find_edge(1, 2)], 0.0);
  EXPECT_DOUBLE_EQ(gains[g.find_edge(5, 6)], 0.0);

  // w_M(M') = 10.
  double wm_mprime = 0;
  for (EdgeId e : fig.m_prime) wm_mprime += gains[e];
  EXPECT_DOUBLE_EQ(wm_mprime, 10.0);

  // M'' = M ⊕ ∪ wrap(e): weight 26 >= 14 + 10 (strictly greater because
  // wraps of ab and cd share the matched edge bc).
  Matching m = fig.m;
  apply_wraps(g, m, fig.m_prime);
  EXPECT_DOUBLE_EQ(m.weight(fig.wg), 26.0);
  EXPECT_GE(m.weight(fig.wg), 14.0 + 10.0);
  EXPECT_EQ(m.size(), 3u);
}

TEST(Gain, WrapEdgesShapes) {
  const auto fig = make_fig2();
  const Graph& g = fig.wg.graph;
  // ab: wrap = {ab, bc}.
  auto w1 = wrap_edges(g, fig.m, g.find_edge(0, 1));
  EXPECT_EQ(w1.size(), 2u);
  // cd: wrap = {bc, cd} (d is free).
  auto w2 = wrap_edges(g, fig.m, g.find_edge(2, 3));
  EXPECT_EQ(w2.size(), 2u);
  // A wholly-free edge wraps to itself only.
  Matching empty(g.num_nodes());
  EXPECT_EQ(wrap_edges(g, empty, 0).size(), 1u);
  // Matched edges cannot be wrapped.
  EXPECT_THROW(wrap_edges(g, fig.m, g.find_edge(1, 2)),
               std::invalid_argument);
}

// The reference the closed-form accounting must equal: the announce
// exchange as an engine execution. In round 0 every matched node sends
// its matched edge weight (64 bits) to each neighbor; round 1 delivers.
NetStats announce_exchange_on_engine(const WeightedGraph& wg,
                                     const Matching& m) {
  struct WeightMsg {
    double w;
  };
  struct WeightBits {
    std::uint64_t operator()(const WeightMsg&) const noexcept { return 64; }
  };
  using WeightNet = SyncNetwork<WeightMsg, WeightBits>;
  WeightNet net(wg.graph, 0, WeightBits{});
  auto step = [&](WeightNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    if (ctx.round() == 0 && !m.is_free(v)) {
      ctx.send_all(WeightMsg{wg.weight(m.matched_edge(v))});
    }
  };
  net.run_round(step);
  net.run_round(step);
  return net.stats();
}

TEST(Gain, DistributedExchangeRoundIsAccounted) {
  // gain_weights accounts the exchange in closed form; it must equal the
  // engine execution exactly.
  auto expect_same = [](const WeightedGraph& wg, const Matching& m,
                        const std::string& what) {
    NetStats closed;
    gain_weights(wg, m, &closed);
    const NetStats engine = announce_exchange_on_engine(wg, m);
    EXPECT_EQ(closed.rounds, engine.rounds) << what;
    EXPECT_EQ(closed.messages, engine.messages) << what;
    EXPECT_EQ(closed.total_bits, engine.total_bits) << what;
    EXPECT_EQ(closed.max_message_bits, engine.max_message_bits) << what;
  };
  const auto fig = make_fig2();
  NetStats stats;
  const auto gains = gain_weights(fig.wg, fig.m, &stats);
  EXPECT_EQ(stats.rounds, 2u);  // announce + deliver
  EXPECT_GT(stats.messages, 0u);
  EXPECT_EQ(stats.max_message_bits, 64u);
  EXPECT_DOUBLE_EQ(gains[fig.wg.graph.find_edge(0, 1)], 4.0);
  expect_same(fig.wg, fig.m, "figure 2");

  const Matching empty(fig.wg.graph.num_nodes());
  expect_same(fig.wg, empty, "empty matching");
  NetStats none;
  gain_weights(fig.wg, empty, &none);
  EXPECT_EQ(none.rounds, 2u);
  EXPECT_EQ(none.messages, 0u);
  EXPECT_EQ(none.total_bits, 0u);
  EXPECT_EQ(none.max_message_bits, 0u);

  Rng rng(41);
  for (int t = 0; t < 4; ++t) {
    Graph g = erdos_renyi(300, 6.0 / 300, rng);
    auto w = uniform_weights(g.num_edges(), 1.0, 50.0, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    Matching m = greedy_mwm(wg);
    expect_same(wg, m, "greedy, trial " + std::to_string(t));
    const std::vector<EdgeId> ids = m.edge_ids(wg.graph);
    for (std::size_t i = 0; i < ids.size(); i += 2) m.remove(wg.graph, ids[i]);
    expect_same(wg, m, "partial, trial " + std::to_string(t));
  }
}

TEST(Gain, EqualsTheBranchingFormBitExactly) {
  // Figure 2's gain term by term: w(e), minus w(M(u)) if u is matched,
  // minus w(M(v)) if v is matched, in that order; 0 on matched edges.
  // gain_weights subtracts a literal +0.0 for a free endpoint instead of
  // branching, which is exact, so the two must agree bit for bit.
  Rng rng(23);
  for (int t = 0; t < 8; ++t) {
    Graph g = erdos_renyi(400, 5.0 / 400, rng);
    auto w = uniform_weights(g.num_edges(), 0.5, 100.0, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    const Graph& graph = wg.graph;
    Matching m = greedy_mwm(wg);
    const std::vector<EdgeId> ids = m.edge_ids(graph);
    for (std::size_t i = 0; i < ids.size(); i += 3) m.remove(graph, ids[i]);
    const std::vector<double> gains = gain_weights(wg, m);
    ASSERT_EQ(gains.size(), graph.num_edges());
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (m.contains(graph, e)) {
        EXPECT_EQ(gains[e], 0.0) << "matched edge " << e;
        continue;
      }
      const Edge& ed = graph.edge(e);
      double expected = wg.weight(e);
      if (!m.is_free(ed.u)) expected -= wg.weight(m.matched_edge(ed.u));
      if (!m.is_free(ed.v)) expected -= wg.weight(m.matched_edge(ed.v));
      EXPECT_EQ(gains[e], expected) << "trial " << t << ", edge " << e;
    }
  }
}

class Lemma41Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma41Sweep, WrapApplicationBeatsGainSum) {
  // Lemma 4.1: for disjoint matchings M, M',
  // w(M ⊕ ∪wrap(e)) >= w(M) + w_M(M'), and the result is a matching.
  Rng rng(GetParam());
  for (int t = 0; t < 12; ++t) {
    Graph g = erdos_renyi(30, 0.12, rng);
    if (g.num_edges() < 4) continue;
    auto w = uniform_weights(g.num_edges(), 1.0, 20.0, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    const Graph& graph = wg.graph;
    // M: greedy. M': greedy matching on the *unmatched* edges, by gain.
    Matching m = greedy_mwm(wg);
    // Drop some edges from M to create slack.
    auto ids = m.edge_ids(graph);
    for (std::size_t i = 0; i < ids.size(); i += 3) m.remove(graph, ids[i]);
    const auto gains = gain_weights(wg, m);
    Matching m_prime(graph.num_nodes());
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (m.contains(graph, e) || gains[e] <= 0) continue;
      const Edge& ed = graph.edge(e);
      if (m_prime.is_free(ed.u) && m_prime.is_free(ed.v)) {
        m_prime.add(graph, e);
      }
    }
    double gain_sum = 0;
    for (EdgeId e : m_prime.edge_ids(graph)) gain_sum += gains[e];
    const double before = m.weight(wg);
    apply_wraps(graph, m, m_prime.edge_ids(graph));
    EXPECT_GE(m.weight(wg) + 1e-9, before + gain_sum);
    EXPECT_TRUE(is_valid_matching(graph, m.edge_ids(graph)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma41Sweep,
                         ::testing::Values(3u, 6u, 9u, 12u, 15u));

TEST(Gain, ApplyWrapsRejectsNonMatchingInput) {
  const auto fig = make_fig2();
  const Graph& g = fig.wg.graph;
  Matching m = fig.m;
  // ab and bc share vertex b... bc is matched; use ab twice instead.
  EXPECT_THROW(apply_wraps(g, m, {0, 0}), std::invalid_argument);
}

// ------------------------------------------------------ class_mwm -----

class ClassMwmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassMwmSweep, ValidAndConstantFactorOnSmall) {
  Rng rng(GetParam());
  for (int t = 0; t < 6; ++t) {
    Graph g = erdos_renyi(16, 0.25, rng);
    if (g.num_edges() == 0) continue;
    auto w = integer_weights(g.num_edges(), 64, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    ClassMwmOptions opts;
    opts.seed = GetParam() * 3 + t;
    const ClassMwmResult res = class_mwm(wg, opts);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(is_valid_matching(wg.graph, res.matching.edge_ids(wg.graph)));
    const double opt = exact_mwm_small(wg).weight(wg);
    // Conservative constant-factor assertion: delta >= 1/5 (the value
    // the paper plugs into Algorithm 5; measured delta is ~0.55+).
    EXPECT_GE(res.matching.weight(wg) + 1e-9, 0.2 * opt);
  }
}

TEST_P(ClassMwmSweep, SurvivorsAreMutuallyConsistent) {
  Rng rng(GetParam() ^ 0x321);
  Graph g = erdos_renyi(60, 0.08, rng);
  if (g.num_edges() == 0) return;
  auto w = power_of_two_weights(g.num_edges(), 6, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  ClassMwmOptions opts;
  opts.seed = GetParam();
  const ClassMwmResult res = class_mwm(wg, opts);
  EXPECT_LE(res.num_classes, 6u);
  EXPECT_TRUE(is_valid_matching(wg.graph, res.matching.edge_ids(wg.graph)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassMwmSweep,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

TEST(ClassMwm, SingleClassEqualsMaximalMatchingWeightwise) {
  // All weights equal: one class; result is a maximal matching.
  Graph g = cycle_graph(10);
  std::vector<double> w(g.num_edges(), 3.0);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  const ClassMwmResult res = class_mwm(wg, {.seed = 4});
  EXPECT_EQ(res.num_classes, 1u);
  EXPECT_TRUE(is_maximal_matching(wg.graph, res.matching));
}

TEST(ClassMwm, EmptyGraph) {
  const WeightedGraph wg{Graph(3, {}), {}};
  const ClassMwmResult res = class_mwm(wg, {.seed = 1});
  EXPECT_EQ(res.matching.size(), 0u);
}

TEST(ClassMwm, RejectsClassSpanBeyondLimit) {
  // With class_base = 1 + 1e-10, weights 1 and 100 span ~4.6e10 classes,
  // far past int: rejected by a diagnostic naming class_base.
  const WeightedGraph wg = make_weighted(path_graph(3), {1.0, 100.0});
  try {
    class_mwm(wg, {.seed = 1, .class_base = 1.0000000001});
    ADD_FAILURE() << "class span of ~4.6e10 was not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("class_base=1.0000000001"),
              std::string::npos)
        << e.what();
  }
  // 4608 classes is within the limit: two non-empty ones run.
  const ClassMwmResult res = class_mwm(wg, {.seed = 1, .class_base = 1.001});
  EXPECT_EQ(res.num_classes, 4608u);
  EXPECT_EQ(res.matching.size(), 1u);
}

// G′ as Algorithm 5 once handed it to the black box: the positive-weight
// edges of g copied out with induced_subgraph (node ids unchanged, edge
// ids renumbered in order).
struct PositiveCopy {
  Subgraph sub;
  WeightedGraph wg;
};

PositiveCopy positive_copy(const Graph& g, const std::vector<double>& w) {
  std::vector<char> keep(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) keep[e] = w[e] > 0.0 ? 1 : 0;
  PositiveCopy c{induced_subgraph(g, {}, keep), {}};
  std::vector<double> cw;
  for (const EdgeId e : c.sub.edge_to_parent) cw.push_back(w[e]);
  c.wg = make_weighted(c.sub.graph, std::move(cw));
  return c;
}

/// A matching of the copy, as ascending edge ids of g.
std::vector<EdgeId> to_parent(const PositiveCopy& c,
                              const std::vector<EdgeId>& ids) {
  std::vector<EdgeId> out;
  for (const EdgeId e : ids) out.push_back(c.sub.edge_to_parent[e]);
  return out;
}

std::vector<EdgeId> to_parent(const PositiveCopy& c, const Matching& m) {
  return to_parent(c, m.edge_ids(c.sub.graph));
}

/// Uniform weights in [1, 100] with about a quarter zeroed and a quarter
/// negated: G′ keeps about half the edges.
std::vector<double> weights_with_absent_edges(EdgeId m, Rng& rng) {
  std::vector<double> w = uniform_weights(m, 1.0, 100.0, rng);
  for (double& x : w) {
    const std::uint64_t r = rng.below(4);
    if (r == 0) x = 0.0;
    if (r == 1) x = -x;
  }
  return w;
}

void expect_same_stats(const NetStats& a, const NetStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.total_bits, b.total_bits) << what;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << what;
}

TEST(ClassMwm, ViewMatchesClassMwmOnTheInducedCopy) {
  // class_mwm on a view of G, where zero and negative weights mean
  // "absent", must be class_mwm on the induced copy of the positive
  // edges, mapped back: same matching, NetStats, class count and
  // convergence at every shard and thread setting, with and without a
  // phase cap. n = 2048 is wide enough for 2 shards.
  Rng rng(41);
  const Graph g = erdos_renyi(2048, 6.0 / 2048, rng);
  const std::vector<double> w = weights_with_absent_edges(g.num_edges(), rng);
  const PositiveCopy copy = positive_copy(g, w);
  ASSERT_GT(copy.sub.graph.num_edges(), g.num_edges() / 3);
  ASSERT_LT(copy.sub.graph.num_edges(), 2 * g.num_edges() / 3);
  ThreadPool pool(4);
  for (const unsigned shards : {1u, 2u}) {
    const test_support::ForcedShards forced(g.num_nodes(), shards);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (const std::uint64_t max_phases : {0u, 2u}) {
        ClassMwmOptions opts;
        opts.seed = 9;
        opts.max_phases_per_class = max_phases;
        opts.pool = p;
        const std::string what =
            "shards=" + std::to_string(shards) +
            (p != nullptr ? " threads=4" : " no pool") +
            " max_phases=" + std::to_string(max_phases);
        const ClassMwmResult view = class_mwm(g, w, opts);
        const ClassMwmResult ref = class_mwm(copy.wg, opts);
        EXPECT_EQ(view.matching.edge_ids(g), to_parent(copy, ref.matching))
            << what;
        expect_same_stats(view.stats, ref.stats, what);
        EXPECT_EQ(view.num_classes, ref.num_classes) << what;
        EXPECT_EQ(view.converged, ref.converged) << what;
      }
    }
  }
}

TEST(ClassMwm, ReusedClassRunsMatchMaskedRunsOnTheCopy) {
  // One IsraeliItaiClassRuns runs class after class on one network and
  // one node state, clearing what each run wrote. In any order, and when
  // a class runs again, each run must equal a fresh masked israeli_itai
  // on the induced copy of G′.
  Rng rng(43);
  const Graph g = erdos_renyi(600, 8.0 / 600, rng);
  constexpr std::uint32_t kClasses = 4;
  constexpr std::uint32_t kAbsent = kClasses;  // not in G′: no run names it
  std::vector<std::uint32_t> edge_class(g.num_edges());
  std::vector<double> w(g.num_edges(), 0.0);
  std::vector<NodeId> degree(g.num_nodes(), 0);
  std::vector<std::vector<EdgeId>> edges(kClasses);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edge_class[e] = static_cast<std::uint32_t>(rng.below(kClasses + 1));
    if (edge_class[e] == kAbsent) continue;
    w[e] = 1.0;
    edges[edge_class[e]].push_back(e);
    ++degree[g.edge(e).u];
    ++degree[g.edge(e).v];
  }
  const PositiveCopy copy = positive_copy(g, w);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    IsraeliItaiClassRuns runs(g, edge_class, degree, p);
    for (const std::uint32_t c : {2u, 0u, 3u, 1u, 0u, 2u}) {
      const std::string what = "class " + std::to_string(c) +
                               (p != nullptr ? " threads=4" : " no pool");
      const IsraeliItaiClassRuns::Run run = runs.run(c, edges[c], 100 + c);
      IsraeliItaiOptions o;
      o.seed = 100 + c;
      o.pool = p;
      o.active_edges.assign(copy.sub.graph.num_edges(), 0);
      for (EdgeId e = 0; e < copy.sub.graph.num_edges(); ++e) {
        o.active_edges[e] = edge_class[copy.sub.edge_to_parent[e]] == c;
      }
      const DistMatchingResult ref = israeli_itai(copy.sub.graph, o);
      ASSERT_GT(ref.matching.size(), 0u) << what;
      EXPECT_EQ(run.matching, to_parent(copy, ref.matching)) << what;
      expect_same_stats(run.stats, ref.stats, what);
      EXPECT_EQ(run.converged, ref.converged) << what;
    }
    // A run names its class's edges and nothing else.
    EXPECT_THROW(runs.run(0, edges[1], 1), std::invalid_argument);
  }
}

// -------------------------------------------- Algorithm 5 / Thm 4.5 ---

class WeightedMwmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedMwmSweep, HalfMinusEpsAgainstExactWithGreedyBox) {
  // With the sequential greedy black box (delta = 1/2) the reduction's
  // guarantee is purely Lemma 4.3: w(M) >= (1/2 - eps) w(M*).
  Rng rng(GetParam());
  for (int t = 0; t < 6; ++t) {
    Graph g = erdos_renyi(14, 0.3, rng);
    if (g.num_edges() == 0) continue;
    auto w = uniform_weights(g.num_edges(), 1.0, 30.0, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    WeightedMwmOptions opts;
    opts.eps = 0.05;
    opts.delta = 0.5;
    opts.seed = GetParam() + t;
    opts.black_box = greedy_black_box();
    const WeightedMwmResult res = weighted_mwm(wg, opts);
    const double opt = exact_mwm_small(wg).weight(wg);
    EXPECT_GE(res.matching.weight(wg) + 1e-9, (0.5 - 0.05) * opt);
  }
}

TEST_P(WeightedMwmSweep, HalfMinusEpsWithDistributedBox) {
  Rng rng(GetParam() ^ 0x888);
  for (int t = 0; t < 4; ++t) {
    Graph g = erdos_renyi(14, 0.3, rng);
    if (g.num_edges() == 0) continue;
    auto w = integer_weights(g.num_edges(), 40, rng);
    const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
    WeightedMwmOptions opts;
    opts.eps = 0.05;
    opts.delta = 0.2;  // the paper's assumption for the [18] black box
    opts.seed = GetParam() * 7 + t;
    const WeightedMwmResult res = weighted_mwm(wg, opts);
    const double opt = exact_mwm_small(wg).weight(wg);
    EXPECT_GE(res.matching.weight(wg) + 1e-9, (0.5 - 0.05) * opt);
  }
}

TEST_P(WeightedMwmSweep, TrajectoryIsMonotoneNondecreasing) {
  Rng rng(GetParam() ^ 0x1111);
  Graph g = erdos_renyi(40, 0.1, rng);
  if (g.num_edges() == 0) return;
  auto w = uniform_weights(g.num_edges(), 1.0, 100.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  WeightedMwmOptions opts;
  opts.eps = 0.02;
  opts.seed = GetParam();
  const WeightedMwmResult res = weighted_mwm(wg, opts);
  for (std::size_t i = 1; i < res.weight_trajectory.size(); ++i) {
    EXPECT_GE(res.weight_trajectory[i] + 1e-9, res.weight_trajectory[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedMwmSweep,
                         ::testing::Values(61u, 62u, 63u, 64u));

TEST(WeightedMwm, GreedyTrapIsEscaped) {
  // Greedy alone gets ~1/2 on the trap; Algorithm 5's length-3
  // augmentations fix the gadgets to the optimum.
  const WeightedGraph wg = greedy_trap_path(8, 0.01);
  WeightedMwmOptions opts;
  opts.eps = 0.05;
  opts.seed = 3;
  const WeightedMwmResult res = weighted_mwm(wg, opts);
  // Optimum = 16 (both outer edges of each gadget).
  EXPECT_GE(res.matching.weight(wg), 0.45 * 16.0);
  // And strictly better than the pure-greedy 8.08 whp... assert above
  // the Lemma 4.3 floor for eps = .05:
  EXPECT_GE(res.matching.weight(wg) + 1e-9, (0.5 - 0.05) * 16.0);
}

TEST(WeightedMwm, ConvergedEarlyOnLocalOptimum) {
  // A single edge: one iteration matches it, the next finds no gain.
  const WeightedGraph wg = make_weighted(path_graph(2), {5.0});
  WeightedMwmOptions opts;
  opts.eps = 0.2;
  opts.seed = 1;
  const WeightedMwmResult res = weighted_mwm(wg, opts);
  EXPECT_TRUE(res.converged_early);
  EXPECT_DOUBLE_EQ(res.matching.weight(wg), 5.0);
}

TEST(WeightedMwm, RejectsBadParameters) {
  const WeightedGraph wg = make_weighted(path_graph(2), {1.0});
  WeightedMwmOptions opts;
  opts.eps = 0.0;
  EXPECT_THROW(weighted_mwm(wg, opts), std::invalid_argument);
  opts.eps = 0.1;
  opts.delta = 0.0;
  EXPECT_THROW(weighted_mwm(wg, opts), std::invalid_argument);
}

TEST(WeightedMwm, IterationBudgetSaturates) {
  // ceil(3/(2 delta) ln(2/eps)): 23 at the paper's delta = 1/5, eps = 0.1.
  EXPECT_EQ(weighted_mwm_iteration_budget(0.2, 0.1), 23u);
  EXPECT_GT(weighted_mwm_iteration_budget(1e-18, 0.1), 4000000000000000000u);
  // Past 2^64 the budget saturates instead of converting out of range.
  EXPECT_EQ(weighted_mwm_iteration_budget(1e-19, 0.1),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(weighted_mwm_iteration_budget(1e-300, 0.1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(WeightedMwm, GreedyBoxOnTheViewMatchesGreedyOnTheCopy) {
  // Ties (weights rounded to multiples of 10) exercise the by-id tie
  // break, which must agree because the copy numbers edges in order.
  Rng rng(47);
  const Graph g = erdos_renyi(300, 6.0 / 300, rng);
  std::vector<double> w = weights_with_absent_edges(g.num_edges(), rng);
  for (double& x : w) x = 10.0 * std::round(x / 10.0);
  const PositiveCopy copy = positive_copy(g, w);
  const Matching view = greedy_black_box()(g, w, 1, nullptr);
  EXPECT_EQ(view.edge_ids(g), to_parent(copy, greedy_mwm(copy.wg)));
}

TEST(WeightedMwm, RejectsBlackBoxEdgesWithoutPositiveGain) {
  // Through the view a black box can name any edge of G. One with
  // w_M <= 0 is not in G′, and weighted_mwm must reject it by edge and
  // gain. On the path 0-1-2-3-4 with weights 1, 10, 1, 5, matching edge 1
  // leaves edge 0 at gain 1 - 10 = -9, edge 1 (matched) at 0, and edge 3
  // at 5, so the second iteration still calls the box.
  const WeightedGraph wg = make_weighted(path_graph(5), {1.0, 10.0, 1.0, 5.0});
  for (const EdgeId second : {EdgeId{0}, EdgeId{1}}) {
    int calls = 0;
    WeightedMwmOptions opts;
    opts.max_iterations = 2;
    opts.black_box = [&calls, second](const Graph& g, std::span<const double>,
                                      std::uint64_t, NetStats*) {
      Matching m(g.num_nodes());
      m.add(g, calls++ == 0 ? EdgeId{1} : second);
      return m;
    };
    const std::string gain = second == 0 ? "-9" : "0";
    try {
      weighted_mwm(wg, opts);
      ADD_FAILURE() << "edge " << second << " with gain " << gain
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      const std::string named =
          "edge " + std::to_string(second) + " with gain w_M = " + gain + ",";
      EXPECT_NE(msg.find(named), std::string::npos) << msg;
    }
    EXPECT_EQ(calls, 2);
  }
}

}  // namespace
}  // namespace lps
