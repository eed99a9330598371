// Tests for Section 4: the gain machinery (against the Figure 2
// arithmetic), Lemma 4.1, the class-based delta-MWM black box, and
// Algorithm 5 (Theorem 4.5).
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/class_mwm.hpp"
#include "core/gain.hpp"
#include "core/weighted_mwm.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "runtime/engine.hpp"
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

}  // namespace
}  // namespace lps
