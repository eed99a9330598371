// Serve a stream of edge queries against a large random graph through
// the LCA matching oracle — the "millions of users" workload: many
// cheap, consistent point queries instead of one monolithic solve.
//
//   ./oracle_queries [--n 20000] [--deg 8] [--solver rank_greedy_mcm]
//                    [--queries 2000] [--seed 1] [--threads 0]
//
// Prints probes/query, queries/sec, and cache hit rate for the oracle
// batch, then audits every answer against the global solver's matching
// (the consistency contract: same seed => same virtual execution).
#include <cstdio>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "lca/batch.hpp"
#include "lca/oracle.hpp"
#include "runtime/thread_pool.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace lps;
  const Options opts(argc, argv);
  const std::uint64_t n = opts.get_count("n", 20000);
  const std::uint64_t deg = opts.get_count("deg", 8);
  const std::string solver_name = opts.get("solver", "rank_greedy_mcm");
  const std::uint64_t num_queries = opts.get_count("queries", 2000);
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const unsigned threads = static_cast<unsigned>(
      opts.get_count("threads", 0, ThreadPool::kMaxThreads));
  opts.exit_on_bad_flags();

  if (!lca::has_oracle(solver_name)) {
    std::fprintf(stderr, "oracle_queries: no LCA oracle for solver '%s'",
                 solver_name.c_str());
    for (const std::string& name : lca::oracle_names()) {
      std::fprintf(stderr, " (try %s)", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  const api::Instance inst = api::make_instance(
      "er:n=" + std::to_string(n) + ",deg=" + std::to_string(deg), seed);
  const Graph& g = inst.graph();
  std::printf("instance: er n=%u m=%u, solver %s, seed %llu\n",
              g.num_nodes(), g.num_edges(), solver_name.c_str(),
              static_cast<unsigned long long>(seed));
  if (g.num_edges() == 0) {
    std::printf("no edges, nothing to query\n");
    return 0;
  }

  // A skewed query stream: half the stream hammers a small hot set (the
  // cache-locality scenario the LRU memo amortizes), half is uniform.
  Rng rng(seed + 1);
  const EdgeId hot_span =
      std::max<EdgeId>(1, g.num_edges() / 100);  // hottest 1% of edges
  std::vector<EdgeId> queries;
  queries.reserve(num_queries);
  for (std::uint64_t i = 0; i < num_queries; ++i) {
    queries.push_back(static_cast<EdgeId>(
        rng.coin() ? rng.below(hot_span) : rng.below(g.num_edges())));
  }

  ThreadPool pool(threads);
  lca::BatchEngine engine(
      [&] {
        lca::OracleOptions oopts;
        oopts.seed = seed;
        return lca::make_oracle(solver_name, g, oopts);
      },
      &pool);
  const lca::EdgeBatchResult batch = engine.query_edges(queries);
  std::printf(
      "oracle batch: %llu queries over %zu worker oracle(s) in %.2f ms\n",
      static_cast<unsigned long long>(batch.stats.oracle.queries),
      engine.num_oracles(), batch.stats.wall_ms);
  std::printf("  probes/query   %.2f   (n = %u: sublinear means << n)\n",
              batch.stats.oracle.probes_per_query(), g.num_nodes());
  std::printf("  queries/sec    %.0f\n", batch.stats.queries_per_sec());
  std::printf("  cache hit rate %.4f\n",
              batch.stats.oracle.cache_hit_rate());

  // The audit: the same seed through the registry's global solver must
  // produce exactly the answers the oracle just served.
  const api::MatchingSolver& solver =
      api::SolverRegistry::global().at(solver_name);
  api::SolverConfig cfg;
  cfg.seed(seed);
  const api::SolveResult global = solver.solve(inst, cfg);
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if ((batch.in_matching[i] != 0) !=
        global.matching.contains(g, queries[i])) {
      ++disagreements;
    }
  }
  std::printf("global solve: %.2f ms, |M| = %zu\n", global.wall_ms,
              global.matching.size());
  std::printf("agreement: %zu/%zu answers match the global matching\n",
              queries.size() - disagreements, queries.size());
  return disagreements == 0 ? 0 : 1;
}
