// The LCA oracle subsystem: per-query answers must be *exactly* the
// matching of one virtual global execution — for a fixed seed the union
// of all per-edge oracle answers equals the matching the corresponding
// registered global solver produces (the ISSUE's consistency criterion)
// — plus the probe meter, the bounded LRU memo (eviction safety), the
// batch engine, and the runner integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "lca/batch.hpp"
#include "lca/graph_access.hpp"
#include "lca/israeli_itai_oracle.hpp"
#include "lca/lru_cache.hpp"
#include "lca/oracle.hpp"
#include "lca/rank_greedy.hpp"
#include "run_record.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

using api::Instance;
using api::SolverConfig;
using api::SolverRegistry;

/// Workload mix shared by both consistency sweeps: sparse/dense random,
/// bipartite, odd cycle (non-bipartite), star (hub contention), path.
const char* const kWorkloads[] = {
    "er:n=64,deg=4",  "er:n=120,p=0.08",          "bipartite:nx=40,ny=40,deg=3",
    "cycle:n=33",     "star:n=30",                "path:n=41",
    "complete:n=18",  "grid:rows=7,cols=9",
};

/// Every edge and every node of `g`, answered purely through `oracle`,
/// must reproduce `global` exactly.
void expect_oracle_equals_global(const Graph& g, const Matching& global,
                                 lca::MatchingOracle& oracle,
                                 const std::string& label) {
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(oracle.in_matching(e), global.contains(g, e))
        << label << " edge " << e;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId expected =
        global.is_free(v) ? kInvalidNode : global.mate(g, v);
    EXPECT_EQ(oracle.matched_to(v), expected) << label << " node " << v;
  }
}

//
// -------------------------------------------------------------- LRU --

TEST(LruCache, EvictsLeastRecentlyUsedAndCountsHits) {
  lca::LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_EQ(cache.get(1).value(), 10);  // 1 is now most recent
  cache.put(3, 30);                     // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), 10);
  EXPECT_EQ(cache.get(3).value(), 30);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, OverwriteKeepsSizeAndPromotes) {
  lca::LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // overwrite promotes 1
  cache.put(3, 30);  // evicts 2, not 1
  EXPECT_EQ(cache.get(1).value(), 11);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(LruCache, ZeroCapacityNeverStores) {
  lca::LruCache<int, int> cache(0);
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------ GraphAccess --

TEST(GraphAccess, MetersProbesPerIncidenceEntry) {
  const Graph g = star_graph(5);  // hub 0, degree 4
  lca::GraphAccess access(g);
  EXPECT_EQ(access.probes(), 0u);
  access.neighbors(0);
  EXPECT_EQ(access.probes(), 4u);  // one probe per incidence entry
  access.edge(0);
  EXPECT_EQ(access.probes(), 5u);
  access.degree(3);
  EXPECT_EQ(access.probes(), 6u);
  access.neighbors(1);  // leaf: degree 1
  EXPECT_EQ(access.probes(), 7u);
}

// ------------------------------------------------------ rank greedy --

TEST(RankGreedy, GlobalMatchingIsValidMaximalAndSeedDeterministic) {
  Rng rng(3);
  const Graph g = erdos_renyi(80, 0.06, rng);
  const Matching a = lca::rank_greedy_matching(g, 7);
  const Matching b = lca::rank_greedy_matching(g, 7);
  const Matching c = lca::rank_greedy_matching(g, 8);
  EXPECT_TRUE(is_valid_matching(g, a.edge_ids(g)));
  EXPECT_TRUE(is_maximal_matching(g, a));
  EXPECT_EQ(a, b);
  // Different seed, different order: almost surely a different matching
  // on a graph this size (equality would indicate the seed is ignored).
  EXPECT_NE(a.edge_ids(g), c.edge_ids(g));
}

TEST(RankGreedyOracle, EveryAnswerMatchesTheGlobalExecution) {
  for (const char* spec : kWorkloads) {
    const Instance inst = api::make_instance(spec, 11);
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      lca::OracleOptions opts;
      opts.seed = seed;
      lca::RankGreedyOracle oracle(inst.graph(), opts);
      const Matching global = lca::rank_greedy_matching(inst.graph(), seed);
      expect_oracle_equals_global(
          inst.graph(), global, oracle,
          std::string(spec) + " seed " + std::to_string(seed));
    }
  }
}

TEST(RankGreedyOracle, TinyCacheStillAnswersExactly) {
  // Eviction safety: with a 4-entry memo the oracle recomputes most
  // dependency chains from scratch and must still agree everywhere.
  const Instance inst = api::make_instance("er:n=60,deg=5", 5);
  lca::OracleOptions opts;
  opts.seed = 9;
  opts.cache_capacity = 4;
  lca::RankGreedyOracle oracle(inst.graph(), opts);
  const Matching global = lca::rank_greedy_matching(inst.graph(), 9);
  expect_oracle_equals_global(inst.graph(), global, oracle, "tiny cache");
}

TEST(RankGreedyOracle, RepeatedQueriesAmortizeThroughTheMemo) {
  const Instance inst = api::make_instance("er:n=200,deg=6", 3);
  lca::OracleOptions opts;
  opts.seed = 4;
  lca::RankGreedyOracle oracle(inst.graph(), opts);
  oracle.in_matching(0);
  const std::uint64_t cold = oracle.stats().probes;
  oracle.in_matching(0);
  // The repeat answers from the memo root hit: no new graph probes.
  EXPECT_EQ(oracle.stats().probes, cold);
  EXPECT_GT(oracle.stats().cache_hits, 0u);
}

TEST(RankGreedyOracle, RejectsConfigKeys) {
  const Instance inst = api::make_instance("path:n=4", 1);
  lca::OracleOptions opts;
  opts.config["max_phases"] = "3";
  EXPECT_THROW(lca::RankGreedyOracle(inst.graph(), opts),
               std::invalid_argument);
}

// ---------------------------------------------------- israeli--itai --

TEST(IsraeliItaiOracle, EveryAnswerMatchesTheGlobalSolver) {
  const api::MatchingSolver& solver =
      SolverRegistry::global().at("israeli_itai");
  for (const char* spec : kWorkloads) {
    const Instance inst = api::make_instance(spec, 23);
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      SolverConfig cfg;
      cfg.seed(seed);
      const Matching global = solver.solve(inst, cfg).matching;
      lca::OracleOptions opts;
      opts.seed = seed;
      lca::IsraeliItaiOracle oracle(inst.graph(), opts);
      expect_oracle_equals_global(
          inst.graph(), global, oracle,
          std::string(spec) + " seed " + std::to_string(seed));
    }
  }
}

TEST(IsraeliItaiOracle, HonorsAnExplicitPhaseCap) {
  // A truncating cap changes the matching; the oracle must track the
  // capped execution, not the converged one.
  const Instance inst = api::make_instance("er:n=80,deg=5", 2);
  const api::MatchingSolver& solver =
      SolverRegistry::global().at("israeli_itai");
  for (const std::uint64_t cap : {1ull, 2ull}) {
    SolverConfig cfg = SolverConfig::parse("max_phases=" +
                                           std::to_string(cap));
    cfg.seed(6);
    const Matching global = solver.solve(inst, cfg).matching;
    lca::OracleOptions opts;
    opts.seed = 6;
    opts.config["max_phases"] = std::to_string(cap);
    lca::IsraeliItaiOracle oracle(inst.graph(), opts);
    expect_oracle_equals_global(inst.graph(), global, oracle,
                                "cap " + std::to_string(cap));
  }
}

TEST(IsraeliItaiOracle, TinyCacheStillAnswersExactly) {
  const Instance inst = api::make_instance("er:n=48,deg=4", 8);
  const api::MatchingSolver& solver =
      SolverRegistry::global().at("israeli_itai");
  SolverConfig cfg;
  cfg.seed(3);
  const Matching global = solver.solve(inst, cfg).matching;
  lca::OracleOptions opts;
  opts.seed = 3;
  opts.cache_capacity = 16;
  lca::IsraeliItaiOracle oracle(inst.graph(), opts);
  expect_oracle_equals_global(inst.graph(), global, oracle, "tiny cache");
}

TEST(IsraeliItaiOracle, RejectsUnknownConfigKeys) {
  const Instance inst = api::make_instance("path:n=4", 1);
  lca::OracleOptions opts;
  opts.config["eps"] = "0.5";
  EXPECT_THROW(lca::IsraeliItaiOracle(inst.graph(), opts),
               std::invalid_argument);
}

TEST(IsraeliItaiOracle, PhaseBudgetMatchesTheSolverDefault) {
  // 40 + 12 * ceil(log2(n + 1)) — one definition, exported by core and
  // consumed by the oracle, so solver and simulation cannot diverge.
  EXPECT_EQ(israeli_itai_default_max_phases(1), 52u);
  EXPECT_EQ(israeli_itai_default_max_phases(127), 124u);
  EXPECT_EQ(israeli_itai_default_max_phases(128), 136u);
}

// ----------------------------------------------------- make_oracle --

TEST(OracleRegistry, NamesAndUnknownName) {
  EXPECT_EQ(lca::oracle_names(),
            (std::vector<std::string>{"israeli_itai", "rank_greedy_mcm"}));
  EXPECT_TRUE(lca::has_oracle("israeli_itai"));
  EXPECT_FALSE(lca::has_oracle("blossom"));
  const Graph g = path_graph(4);
  EXPECT_THROW(lca::make_oracle("blossom", g), std::invalid_argument);
  // Every advertised oracle name must be a registered solver name, or
  // the runner's auto pairing breaks.
  for (const std::string& name : lca::oracle_names()) {
    EXPECT_TRUE(SolverRegistry::global().contains(name)) << name;
    const auto oracle = lca::make_oracle(name, g);
    EXPECT_EQ(oracle->name(), name);
  }
}

// ----------------------------------------------------- batch engine --

TEST(BatchEngine, ParallelAnswersEqualSequentialAnswers) {
  const Instance inst = api::make_instance("er:n=150,deg=5", 17);
  const Graph& g = inst.graph();
  const auto factory = [&] {
    lca::OracleOptions opts;
    opts.seed = 5;
    return lca::make_oracle("rank_greedy_mcm", g, opts);
  };
  std::vector<EdgeId> queries;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    queries.push_back(static_cast<EdgeId>(rng.below(g.num_edges())));
  }
  ThreadPool pool(4);
  lca::BatchEngine parallel_engine(factory, &pool);
  lca::BatchEngine sequential_engine(factory, nullptr);
  EXPECT_EQ(parallel_engine.num_oracles(), 4u);
  EXPECT_EQ(sequential_engine.num_oracles(), 1u);
  const auto par = parallel_engine.query_edges(queries);
  const auto seq = sequential_engine.query_edges(queries);
  EXPECT_EQ(par.in_matching, seq.in_matching);
  EXPECT_EQ(par.stats.oracle.queries, queries.size());
  EXPECT_EQ(seq.stats.oracle.queries, queries.size());
  EXPECT_GT(par.stats.oracle.probes, 0u);

  // Node batches too, against the global execution.
  const Matching global = lca::rank_greedy_matching(g, 5);
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes[v] = v;
  const auto node_batch = parallel_engine.query_nodes(nodes);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId expected =
        global.is_free(v) ? kInvalidNode : global.mate(g, v);
    EXPECT_EQ(node_batch.matched_to[v], expected) << v;
  }
}

TEST(BatchEngine, StatsAccumulateAcrossBatches) {
  const Instance inst = api::make_instance("er:n=60,deg=4", 2);
  const Graph& g = inst.graph();
  lca::BatchEngine engine(
      [&] {
        lca::OracleOptions opts;
        opts.seed = 1;
        return lca::make_oracle("israeli_itai", g, opts);
      },
      nullptr);
  std::vector<EdgeId> queries = {0, 1, 2};
  const auto first = engine.query_edges(queries);
  const auto second = engine.query_edges(queries);
  EXPECT_EQ(first.stats.oracle.queries, 3u);
  EXPECT_EQ(second.stats.oracle.queries, 3u);
  // The second pass answers from the node memo; the only probes left
  // are the per-query edge-endpoint lookups.
  EXPECT_LE(second.stats.oracle.probes, queries.size());
  EXPECT_LT(second.stats.oracle.probes, first.stats.oracle.probes);
  EXPECT_EQ(engine.total_stats().queries, 6u);
}

// ----------------------------------------------------------- runner --

TEST(RunnerLca, AutoPairedOracleAgreesAndFillsJsonFields) {
  for (const char* solver : {"israeli_itai", "rank_greedy_mcm"}) {
    api::RunSpec spec;
    spec.generator = "er:n=100,deg=4";
    spec.solver = solver;
    spec.instance_seed = 3;
    spec.solver_seed = 9;
    spec.lca = "auto";
    const api::RunResult res = api::run_one(spec);
    EXPECT_EQ(res.lca_oracle, solver);
    EXPECT_EQ(res.lca_agree, 1) << solver;
    EXPECT_EQ(res.lca_queries, static_cast<std::uint64_t>(res.m));
    EXPECT_GT(res.lca_probes_per_query, 0.0);
    EXPECT_GE(res.lca_cache_hit_rate, 0.0);
    const JsonValue rec = testing::parse_record(res.to_json());
    using testing::field;
    EXPECT_EQ(field(rec, "lca_oracle").string, res.lca_oracle);
    EXPECT_EQ(field(rec, "lca_queries").number,
              static_cast<double>(res.lca_queries));
    EXPECT_EQ(field(rec, "lca_probes_per_query").number,
              res.lca_probes_per_query);
    EXPECT_EQ(field(rec, "lca_queries_per_sec").number,
              res.lca_queries_per_sec);
    EXPECT_EQ(field(rec, "lca_cache_hit_rate").number, res.lca_cache_hit_rate);
    EXPECT_EQ(field(rec, "lca_agree").number, 1.0);
  }
}

TEST(RunnerLca, SampledQueriesAndThreadsStayConsistent) {
  api::RunSpec spec;
  spec.generator = "er:n=300,deg=5";
  spec.solver = "rank_greedy_mcm";
  spec.instance_seed = 5;
  spec.solver_seed = 2;
  spec.threads = 4;
  spec.lca = "auto";
  spec.lca_queries = 500;  // sampled with replacement
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.lca_queries, 500u);
  EXPECT_EQ(res.lca_agree, 1);
}

TEST(RunnerLca, UnpairedOracleMeasuresWithoutAudit) {
  api::RunSpec spec;
  spec.generator = "er:n=40,deg=4";
  spec.solver = "greedy_mcm";       // no LCA oracle of its own
  spec.lca = "rank_greedy_mcm";     // explicit, different execution
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.lca_oracle, "rank_greedy_mcm");
  EXPECT_EQ(res.lca_agree, -1);  // not audited
  EXPECT_GT(res.lca_probes_per_query, 0.0);
}

TEST(RunnerLca, AutoWithoutAnOracleThrows) {
  api::RunSpec spec;
  spec.generator = "er:n=20,deg=3";
  spec.solver = "greedy_mcm";
  spec.lca = "auto";
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
  spec.lca = "no_such_oracle";
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
}

TEST(RunnerLca, SkippedByDefaultAndOnZeroEdgeInstances) {
  api::RunSpec spec;
  spec.generator = "er:n=20,deg=3";
  spec.solver = "israeli_itai";
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.lca_oracle, "");
  EXPECT_EQ(res.lca_agree, -1);

  spec.generator = "bipartite:nx=4,ny=4,p=0";
  spec.lca = "auto";
  const api::RunResult empty = api::run_one(spec);
  EXPECT_EQ(empty.lca_oracle, "israeli_itai");
  EXPECT_EQ(empty.lca_queries, 0u);
  EXPECT_EQ(empty.lca_agree, -1);
}

}  // namespace
}  // namespace lps
