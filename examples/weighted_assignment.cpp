// Weighted-matching scenario: assigning jobs to workers where edge
// weights are utilities. Runs the paper's Algorithm 5 ((1/2-eps)-MWM,
// Theorem 4.5) against the sequential greedy 1/2-MWM and the exact
// Hungarian optimum — all three resolved by name from the solver
// registry and compared through the uniform solve() interface.
//
//   ./weighted_assignment [--jobs 64] [--workers 64] [--degree 6]
//                         [--eps 0.05] [--seed 1]
#include <cstdio>
#include <string>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "util/options.hpp"

namespace {

int run(const lps::Options& opts) {
  using namespace lps;
  const long jobs = opts.get_int("jobs", 64);
  const long workers = opts.get_int("workers", 64);
  const long degree = opts.get_int("degree", 6);
  const double eps = opts.get_double("eps", 0.05);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 1));
  opts.exit_on_bad_flags();
  if (jobs < 1 || workers < 1 || degree < 1) {
    std::fprintf(stderr,
                 "weighted_assignment: --jobs, --workers, and --degree "
                 "must all be at least 1\n");
    return 1;
  }

  // Each job can run on `degree` random workers with a utility in
  // [1, 100] (say, expected revenue).
  const std::string generator =
      "bipartite_regular:nx=" + std::to_string(jobs) +
      ",ny=" + std::to_string(workers) + ",d=" + std::to_string(degree) +
      ",w=uniform,wlo=1,whi=100";
  const api::Instance market = api::make_instance(generator, seed);
  std::printf("assignment market: %ld jobs x %ld workers, %ld offers/job\n",
              jobs, workers, degree);

  const api::SolverRegistry& registry = api::SolverRegistry::global();
  const auto weight_of = [&](const api::SolveResult& r) {
    return r.matching.weight(market.weighted_graph());
  };

  api::SolverConfig base;
  base.seed(seed);
  const double exact = weight_of(registry.at("hungarian").solve(market, base));
  const double greedy =
      weight_of(registry.at("greedy_mwm").solve(market, base));

  // %.17g, not std::to_string: the latter truncates to 6 decimals,
  // turning a valid tiny eps into an out-of-range 0.
  char eps_str[32];
  std::snprintf(eps_str, sizeof(eps_str), "%.17g", eps);
  api::SolverConfig algo5 =
      api::SolverConfig::parse(std::string("eps=") + eps_str);
  algo5.seed(seed);
  const api::SolveResult res =
      registry.at("weighted_mwm").solve(market, algo5);
  const double achieved = weight_of(res);

  std::printf("  exact optimum (Hungarian):     %10.2f\n", exact);
  std::printf("  greedy 1/2-MWM (sequential):   %10.2f  (ratio %.4f)\n",
              greedy, greedy / exact);
  std::printf("  Algorithm 5 (1/2-eps, eps=%.2f): %8.2f  (ratio %.4f, "
              "guarantee %.4f)\n",
              eps, achieved, achieved / exact,
              registry.at("weighted_mwm").guarantee(algo5));
  std::printf("  distributed cost: %llu rounds, %llu messages, max %llu "
              "bits/message, %llu Algorithm 5 iterations\n",
              static_cast<unsigned long long>(res.stats.rounds),
              static_cast<unsigned long long>(res.stats.messages),
              static_cast<unsigned long long>(res.stats.max_message_bits),
              static_cast<unsigned long long>(
                  res.metrics.count("iterations")
                      ? static_cast<std::uint64_t>(res.metrics.at("iterations"))
                      : 0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return lps::run_main(argc, argv, run); }
