// Tests for Algorithm 4 (Theorem 3.11): the randomized reduction from
// general graphs to the bipartite engine, including Observations 3.1 and
// 3.2 and the iteration-budget arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/general_mcm.hpp"
#include "graph/generators.hpp"
#include "seq/blossom.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

TEST(GeneralMcm, PaperBudgetFormula) {
  // 2^{2k+1} (k+1) ln k.
  EXPECT_EQ(general_mcm_paper_budget(3),
            static_cast<std::uint64_t>(std::ceil(128 * 4 * std::log(3.0))));
  EXPECT_EQ(general_mcm_paper_budget(2),
            static_cast<std::uint64_t>(std::ceil(32 * 3 * std::log(2.0))));
}

TEST(GeneralMcm, PaperBudgetSaturatesBeyond64Bits) {
  // 2^57 * 29 * ln 28 < 2^64 <= 2^59 * 30 * ln 29: from k = 29 on the
  // budget saturates instead of converting an out-of-range double.
  EXPECT_LT(general_mcm_paper_budget(28), UINT64_MAX);
  EXPECT_GT(general_mcm_paper_budget(28), general_mcm_paper_budget(27));
  for (const int k : {29, 30, 31}) {
    EXPECT_EQ(general_mcm_paper_budget(k), UINT64_MAX) << "k=" << k;
  }
}

TEST(GeneralMcm, RejectsSmallK) {
  GeneralMcmOptions opts;
  opts.k = 1;
  EXPECT_THROW(general_mcm(path_graph(4), opts), std::invalid_argument);
}

TEST(GeneralMcm, RejectsKWhoseStreakStopOverflows) {
  // The default empty-streak stop is 1 << (2k+1): defined up to k = 31.
  GeneralMcmOptions opts;
  opts.k = 32;
  EXPECT_THROW(general_mcm(path_graph(4), opts), std::invalid_argument);
  opts.k = 31;
  opts.max_iterations = 1;
  EXPECT_NO_THROW(general_mcm(path_graph(4), opts));
}

class GeneralSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneralSweep, ReachesTargetRatioOnEr) {
  Rng rng(GetParam());
  const Graph g = erdos_renyi(60, 0.08, rng);
  const std::size_t opt = blossom_mcm(g).size();
  GeneralMcmOptions opts;
  opts.k = 3;
  opts.seed = GetParam() * 13 + 5;
  opts.mode = GeneralMcmOptions::Mode::kAdaptive;
  opts.oracle_optimum_size = opt;
  const GeneralMcmResult res = general_mcm(g, opts);
  EXPECT_TRUE(is_valid_matching(g, res.matching.edge_ids(g)));
  // The oracle stop certifies (1-1/3)|M*|; w.h.p. reached well before
  // the paper budget.
  EXPECT_GE(3 * res.matching.size(), 2 * opt);
  EXPECT_LE(res.iterations, res.paper_budget);
}

TEST_P(GeneralSweep, OddCyclesAndCliques) {
  // Non-bipartite structures: the bipartite engine only sees
  // bichromatic subgraphs, yet the overall algorithm must still work.
  GeneralMcmOptions opts;
  opts.k = 3;
  opts.seed = GetParam() + 3;
  for (const Graph& g : {cycle_graph(9), complete_graph(11),
                         cycle_graph(15)}) {
    const std::size_t opt = blossom_mcm(g).size();
    GeneralMcmOptions o = opts;
    o.oracle_optimum_size = opt;
    const GeneralMcmResult res = general_mcm(g, o);
    EXPECT_GE(3 * res.matching.size(), 2 * opt)
        << "n=" << g.num_nodes() << " m=" << g.num_edges();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralSweep,
                         ::testing::Values(71u, 73u, 79u, 83u));

TEST(GeneralMcm, BuildsTwoNetworksPerSolveAndResetsThemPerPass) {
  // One counting and one token network per solve, restarted for every
  // counting pass and token phase: the engine.setup spans say which.
  Rng rng(3);
  const Graph g = erdos_renyi(200, 0.02, rng);
  GeneralMcmOptions opts;
  opts.mode = GeneralMcmOptions::Mode::kPaper;
  opts.max_iterations = 30;
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  const GeneralMcmResult res = general_mcm(g, opts);
  tracer.set_recording(false);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.reset();
  telemetry::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(telemetry::load_chrome_trace(os.str(), doc, &error)) << error;
  std::uint64_t builds = 0;
  std::uint64_t resets = 0;
  for (const telemetry::TraceSpan& s : doc.spans) {
    if (s.name != "engine.setup") continue;
    ASSERT_EQ(s.args.count("reset"), 1u);
    EXPECT_EQ(s.args.at("nodes"), g.num_nodes());
    (s.args.at("reset") == 1.0 ? resets : builds) += 1;
  }
  EXPECT_EQ(builds, 2u);
  // At least one counting pass per iteration, each on a restarted
  // network but the very first.
  EXPECT_GE(resets + 1, res.iterations);
  EXPECT_GT(res.paths_applied, 0u);
}

TEST(GeneralMcm, Observation32Statistics) {
  // An augmenting path of length l survives into Ĝ with probability
  // 2^{-l}: check the empirical frequency for a fixed 3-path.
  // Path x0-y0-x1-y1 with M = {y0-x1}: survives iff colors alternate.
  const Graph g = path_graph(4);
  Matching m = Matching::from_edges(g, {1});
  int survived = 0;
  const int kTrials = 4000;
  Rng rng(5);
  for (int t = 0; t < kTrials; ++t) {
    std::uint8_t c[4];
    for (int v = 0; v < 4; ++v) c[v] = rng.coin();
    bool ok = true;
    for (EdgeId e = 0; e < 3; ++e) {
      const Edge& ed = g.edge(e);
      ok = ok && (c[ed.u] != c[ed.v]);
    }
    (void)m;
    survived += ok;
  }
  // P = 2^{-3} = 0.125.
  EXPECT_NEAR(survived / static_cast<double>(kTrials), 0.125, 0.02);
}

TEST(GeneralMcm, EmptyStreakStopTerminates) {
  // On a graph that is already perfectly matched after a few rounds, the
  // adaptive mode must stop by the empty-streak rule without an oracle.
  Graph g = complete_graph(8);
  GeneralMcmOptions opts;
  opts.k = 2;
  opts.seed = 21;
  opts.mode = GeneralMcmOptions::Mode::kAdaptive;
  opts.empty_streak_stop = 10;
  const GeneralMcmResult res = general_mcm(g, opts);
  EXPECT_EQ(res.matching.size(), 4u);  // perfect on K8
  EXPECT_TRUE(res.stopped_early);
  EXPECT_LT(res.iterations, res.paper_budget);
}

TEST(GeneralMcm, PaperModeRunsFullBudgetWithOverride) {
  // Paper mode with a small explicit budget runs exactly that many
  // iterations (no early stop), still producing a valid matching.
  Rng rng(31);
  const Graph g = erdos_renyi(24, 0.15, rng);
  GeneralMcmOptions opts;
  opts.k = 2;
  opts.seed = 8;
  opts.mode = GeneralMcmOptions::Mode::kPaper;
  opts.max_iterations = 12;
  const GeneralMcmResult res = general_mcm(g, opts);
  EXPECT_EQ(res.iterations, 12u);
  EXPECT_TRUE(is_valid_matching(g, res.matching.edge_ids(g)));
}

TEST(GeneralMcm, MatchingOnlyGrows) {
  // Augmentation never shrinks the matching: run with a tracked budget
  // and verify monotonicity via repeated short runs sharing a seed
  // prefix is impractical; instead assert the final size is at least
  // the size after one iteration.
  Rng rng(41);
  const Graph g = erdos_renyi(40, 0.1, rng);
  GeneralMcmOptions one;
  one.k = 3;
  one.seed = 99;
  one.mode = GeneralMcmOptions::Mode::kPaper;
  one.max_iterations = 1;
  GeneralMcmOptions many = one;
  many.max_iterations = 20;
  EXPECT_GE(general_mcm(g, many).matching.size(),
            general_mcm(g, one).matching.size());
}

}  // namespace
}  // namespace lps
