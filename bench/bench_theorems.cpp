// Experiment suite THEOREMS — the paper's headline claims (Theorems
// 3.1, 3.8, 3.11, 4.5, the Section 1 baseline positioning and the
// round-count scaling in n), driven from one declarative table over the
// api runner. Each row is
// (experiment, workload, generator spec, solver name, config, trials);
// the runner owns instance construction, oracle resolution, and JSON
// emission, so adding a scenario or algorithm is a table row, not a new
// driver. Replaces the former bench_baselines, bench_t31_generic,
// bench_t38_bipartite, bench_t311_general, bench_t45_weighted and
// bench_scaling.
//
//   ./bench_theorems [--trials 3] [--filter T3.8] [--json-dir bench/out]
//                    [--json false]
#include <exception>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "bench/bench_common.hpp"

using namespace lps;

namespace {

struct Row {
  const char* experiment;
  const char* workload;   // display label
  const char* generator;  // api::make_instance spec
  const char* solver;     // registry name
  const char* config;     // solver config kv list
  int trials;             // 0 = --trials
  bool feed_oracle;       // pass the exact optimum to the solver
  std::uint64_t fixed_seed;  // 0 = per-row seeds; else shared instance
};

struct Experiment {
  const char* key;
  const char* title;
  const char* claim;
};

const Experiment kExperiments[] = {
    {"BASE.a",
     "BASE.a: unweighted algorithms on shared workloads",
     "Israeli-Itai [15] guarantees 1/2 in O(log n) rounds; Theorems "
     "3.1/3.8/3.11 push the guarantee to 1-eps in the same asymptotic "
     "budget"},
    {"BASE.b",
     "BASE.b: weighted algorithms on shared workloads",
     "greedy is 1/2 sequentially; Theorem 4.5 achieves (1/2-eps) "
     "distributedly; the greedy-trap instance separates them from naive "
     "local choices"},
    {"T3.1",
     "T3.1: generic (1-eps)-MCM, Erdos-Renyi sweep",
     "(1-eps)-MCM in O(eps^-3 log n) rounds w.h.p., messages O(|V|+|E|) "
     "bits [LOCAL]"},
    {"T3.1-inv",
     "T3.1.b: Lemma 3.4 invariant audit",
     "after phase l, the shortest augmenting path exceeds l (the solver "
     "throws if the exact bounded-path oracle finds one)"},
    {"T3.8",
     "T3.8: bipartite CONGEST engine, random bipartite sweep",
     "(1-1/k)-MCM in O(k^3 log Delta + k^2 log n) rounds, O(log Delta)-"
     "bit messages; contrast max-msg-bits with the LOCAL T3.1 column"},
    {"T3.11",
     "T3.11: Algorithm 4 on general graphs",
     "(1-1/k)-MCM w.h.p. via random bipartition; iteration budget "
     "2^{2k+1}(k+1) ln k (paper) vs adaptive certified stopping"},
    {"T3.11-prog",
     "T3.11.b: Lemma 3.9 progress per iteration",
     "the gap to (1-1/(k+1))|M*| decays geometrically with the paper-"
     "mode iteration count (shared instance across rows)"},
    {"T4.5",
     "T4.5.a: Algorithm 5 ratio sweep",
     "w(M) >= (1/2 - eps) w(M*) in O(log(1/eps) log n) rounds; at scale "
     "the ratio is certified against the 2x-greedy upper bound"},
    {"T4.5-conv",
     "T4.5.b: Lemma 4.3 convergence curve",
     "w(M_i) >= (1 - e^{-2 delta i/3}) w(M*)/2: the ratio column climbs "
     "with the iteration cap (shared instance across rows)"},
    {"T4.5-delta",
     "T4.5.c: measured delta of the class-based black box",
     "the stand-in for [18] must deliver a constant delta; the paper "
     "plugs in delta = 1/5 (ratio column = measured delta)"},
    {"SCALING.a",
     "SCALING.a: rounds vs n, sparse ER / bipartite",
     "O(log n) round growth for the randomized algorithms: rounds/claim "
     "(rounds / lg n) stays flat while n doubles"},
    {"SCALING.b",
     "SCALING.b: deterministic Hoepman [11] on the increasing path",
     "Theta(n) rounds (rounds/claim = rounds / n), the O(n) entry in the "
     "paper's related work, against Israeli-Itai's O(log n) on the same "
     "path (rounds / lg n)"},
};

const Row kRows[] = {
    // ------------------------------------------------------- BASE.a --
    {"BASE.a", "ER n=128 deg4", "er:n=128,deg=4", "israeli_itai", "", 0, false, 0},
    {"BASE.a", "ER n=128 deg4", "er:n=128,deg=4", "generic_mcm", "eps=0.34", 0, false, 0},
    {"BASE.a", "ER n=128 deg4", "er:n=128,deg=4", "general_mcm", "k=3", 0, true, 0},
    {"BASE.a", "bip n=128 deg4", "bipartite:nx=64,ny=64,deg=4", "israeli_itai", "", 0, false, 0},
    {"BASE.a", "bip n=128 deg4", "bipartite:nx=64,ny=64,deg=4", "generic_mcm", "eps=0.34", 0, false, 0},
    {"BASE.a", "bip n=128 deg4", "bipartite:nx=64,ny=64,deg=4", "bipartite_mcm", "k=3", 0, false, 0},
    {"BASE.a", "bip n=128 deg4", "bipartite:nx=64,ny=64,deg=4", "general_mcm", "k=3", 0, true, 0},
    {"BASE.a", "grid 12x12", "grid:rows=12,cols=12", "israeli_itai", "", 0, false, 0},
    {"BASE.a", "grid 12x12", "grid:rows=12,cols=12", "generic_mcm", "eps=0.34", 0, false, 0},
    {"BASE.a", "grid 12x12", "grid:rows=12,cols=12", "bipartite_mcm", "k=3", 0, false, 0},
    {"BASE.a", "grid 12x12", "grid:rows=12,cols=12", "general_mcm", "k=3", 0, true, 0},
    // ------------------------------------------------------- BASE.b --
    // increasing_path is the Theta(n)-round worst case for Hoepman's
    // deterministic protocol (contrast with class_mwm's O(log n)).
    {"BASE.b", "increasing path n=64", "increasing_path:n=64", "hoepman_mwm", "", 1, false, 0},
    {"BASE.b", "increasing path n=64", "increasing_path:n=64", "class_mwm", "", 1, false, 0},
    {"BASE.b", "bip ER n=128 w~U[1,100]", "bipartite:nx=64,ny=64,deg=6,w=uniform,wlo=1,whi=100", "greedy_mwm", "", 0, false, 0},
    {"BASE.b", "bip ER n=128 w~U[1,100]", "bipartite:nx=64,ny=64,deg=6,w=uniform,wlo=1,whi=100", "hoepman_mwm", "", 0, false, 0},
    {"BASE.b", "bip ER n=128 w~U[1,100]", "bipartite:nx=64,ny=64,deg=6,w=uniform,wlo=1,whi=100", "class_mwm", "", 0, false, 0},
    {"BASE.b", "bip ER n=128 w~U[1,100]", "bipartite:nx=64,ny=64,deg=6,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.05", 0, false, 0},
    {"BASE.b", "greedy trap x16", "greedy_trap:gadgets=16,eps=0.001", "greedy_mwm", "", 0, false, 0},
    {"BASE.b", "greedy trap x16", "greedy_trap:gadgets=16,eps=0.001", "hoepman_mwm", "", 0, false, 0},
    {"BASE.b", "greedy trap x16", "greedy_trap:gadgets=16,eps=0.001", "class_mwm", "", 0, false, 0},
    {"BASE.b", "greedy trap x16", "greedy_trap:gadgets=16,eps=0.001", "weighted_mwm", "eps=0.05", 0, false, 0},
    // --------------------------------------------------------- T3.1 --
    {"T3.1", "ER n=32 deg4", "er:n=32,deg=4", "generic_mcm", "eps=0.5", 0, false, 0},
    {"T3.1", "ER n=32 deg4", "er:n=32,deg=4", "generic_mcm", "eps=0.34", 0, false, 0},
    {"T3.1", "ER n=64 deg4", "er:n=64,deg=4", "generic_mcm", "eps=0.5", 0, false, 0},
    {"T3.1", "ER n=64 deg4", "er:n=64,deg=4", "generic_mcm", "eps=0.34", 0, false, 0},
    {"T3.1", "ER n=128 deg4", "er:n=128,deg=4", "generic_mcm", "eps=0.5", 0, false, 0},
    {"T3.1", "ER n=128 deg4", "er:n=128,deg=4", "generic_mcm", "eps=0.34", 0, false, 0},
    {"T3.1", "ER n=256 deg4", "er:n=256,deg=4", "generic_mcm", "eps=0.5", 0, false, 0},
    {"T3.1", "ER n=256 deg4", "er:n=256,deg=4", "generic_mcm", "eps=0.34", 0, false, 0},
    // ----------------------------------------------------- T3.1-inv --
    {"T3.1-inv", "ER n=24 deg5", "er:n=24,deg=5", "generic_mcm", "eps=0.34,check_invariants=true", 0, false, 0},
    {"T3.1-inv", "ER n=24 deg5", "er:n=24,deg=5", "generic_mcm", "eps=0.25,check_invariants=true", 0, false, 0},
    {"T3.1-inv", "ER n=48 deg5", "er:n=48,deg=5", "generic_mcm", "eps=0.34,check_invariants=true", 0, false, 0},
    {"T3.1-inv", "ER n=48 deg5", "er:n=48,deg=5", "generic_mcm", "eps=0.25,check_invariants=true", 0, false, 0},
    // --------------------------------------------------------- T3.8 --
    {"T3.8", "bip n=128 deg4", "bipartite:nx=64,ny=64,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"T3.8", "bip n=128 deg4", "bipartite:nx=64,ny=64,deg=4", "bipartite_mcm", "k=3", 0, false, 0},
    {"T3.8", "bip n=256 deg4", "bipartite:nx=128,ny=128,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"T3.8", "bip n=256 deg4", "bipartite:nx=128,ny=128,deg=4", "bipartite_mcm", "k=3", 0, false, 0},
    {"T3.8", "bip n=512 deg4", "bipartite:nx=256,ny=256,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"T3.8", "bip n=512 deg4", "bipartite:nx=256,ny=256,deg=4", "bipartite_mcm", "k=3", 0, false, 0},
    {"T3.8", "bip n=1024 deg4", "bipartite:nx=512,ny=512,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"T3.8", "bip n=1024 deg4", "bipartite:nx=512,ny=512,deg=4", "bipartite_mcm", "k=3", 0, false, 0},
    {"T3.8", "bip n=2048 deg4 (width)", "bipartite:nx=1024,ny=1024,deg=4", "bipartite_mcm", "k=3", 1, false, 0},
    // -------------------------------------------------------- T3.11 --
    {"T3.11", "ER n=96 deg4", "er:n=96,deg=4", "general_mcm", "k=2", 0, true, 0},
    {"T3.11", "ER n=96 deg4", "er:n=96,deg=4", "general_mcm", "k=3", 0, true, 0},
    {"T3.11", "odd cycle C_63", "cycle:n=63", "general_mcm", "k=2", 0, true, 0},
    {"T3.11", "odd cycle C_63", "cycle:n=63", "general_mcm", "k=3", 0, true, 0},
    {"T3.11", "4-regular n=64", "regular:n=64,d=4", "general_mcm", "k=2", 0, true, 0},
    {"T3.11", "4-regular n=64", "regular:n=64,d=4", "general_mcm", "k=3", 0, true, 0},
    // --------------------------------------------------- T3.11-prog --
    {"T3.11-prog", "ER n=128 deg4, iters=1", "er:n=128,deg=4", "general_mcm", "k=3,mode=paper,max_iterations=1", 1, false, 99},
    {"T3.11-prog", "ER n=128 deg4, iters=2", "er:n=128,deg=4", "general_mcm", "k=3,mode=paper,max_iterations=2", 1, false, 99},
    {"T3.11-prog", "ER n=128 deg4, iters=4", "er:n=128,deg=4", "general_mcm", "k=3,mode=paper,max_iterations=4", 1, false, 99},
    {"T3.11-prog", "ER n=128 deg4, iters=8", "er:n=128,deg=4", "general_mcm", "k=3,mode=paper,max_iterations=8", 1, false, 99},
    {"T3.11-prog", "ER n=128 deg4, iters=16", "er:n=128,deg=4", "general_mcm", "k=3,mode=paper,max_iterations=16", 1, false, 99},
    {"T3.11-prog", "ER n=128 deg4, iters=32", "er:n=128,deg=4", "general_mcm", "k=3,mode=paper,max_iterations=32", 1, false, 99},
    // --------------------------------------------------------- T4.5 --
    {"T4.5", "bip ER n=128", "bipartite:nx=64,ny=64,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.2", 0, false, 0},
    {"T4.5", "bip ER n=128", "bipartite:nx=64,ny=64,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.05", 0, false, 0},
    {"T4.5", "bip ER n=256", "bipartite:nx=128,ny=128,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.2", 0, false, 0},
    {"T4.5", "bip ER n=256", "bipartite:nx=128,ny=128,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.05", 0, false, 0},
    {"T4.5", "general ER n=16 (exact)", "er:n=16,deg=6,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.2", 0, false, 0},
    {"T4.5", "general ER n=16 (exact)", "er:n=16,deg=6,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.05", 0, false, 0},
    {"T4.5", "general ER n=200 (certified)", "er:n=200,deg=6,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.2", 0, false, 0},
    {"T4.5", "general ER n=200 (certified)", "er:n=200,deg=6,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.05", 0, false, 0},
    // ---------------------------------------------------- T4.5-conv --
    {"T4.5-conv", "bip n=200 p=0.05, iters=1", "bipartite:nx=100,ny=100,p=0.05,w=uniform,wlo=1,whi=64", "weighted_mwm", "eps=0.01,max_iterations=1", 1, false, 5},
    {"T4.5-conv", "bip n=200 p=0.05, iters=2", "bipartite:nx=100,ny=100,p=0.05,w=uniform,wlo=1,whi=64", "weighted_mwm", "eps=0.01,max_iterations=2", 1, false, 5},
    {"T4.5-conv", "bip n=200 p=0.05, iters=3", "bipartite:nx=100,ny=100,p=0.05,w=uniform,wlo=1,whi=64", "weighted_mwm", "eps=0.01,max_iterations=3", 1, false, 5},
    {"T4.5-conv", "bip n=200 p=0.05, iters=4", "bipartite:nx=100,ny=100,p=0.05,w=uniform,wlo=1,whi=64", "weighted_mwm", "eps=0.01,max_iterations=4", 1, false, 5},
    {"T4.5-conv", "bip n=200 p=0.05, iters=6", "bipartite:nx=100,ny=100,p=0.05,w=uniform,wlo=1,whi=64", "weighted_mwm", "eps=0.01,max_iterations=6", 1, false, 5},
    {"T4.5-conv", "bip n=200 p=0.05, iters=8", "bipartite:nx=100,ny=100,p=0.05,w=uniform,wlo=1,whi=64", "weighted_mwm", "eps=0.01,max_iterations=8", 1, false, 5},
    // --------------------------------------------------- T4.5-delta --
    {"T4.5-delta", "bip ER n=128 w~U[1,256]", "bipartite:nx=64,ny=64,deg=6,w=uniform,wlo=1,whi=256", "class_mwm", "", 0, false, 0},
    {"T4.5-delta", "bip ER n=256 w~U[1,256]", "bipartite:nx=128,ny=128,deg=6,w=uniform,wlo=1,whi=256", "class_mwm", "", 0, false, 0},
    // ------------------------------------------------------ SCALING.a --
    {"SCALING.a", "ER n=256 deg4", "er:n=256,deg=4", "israeli_itai", "", 0, false, 0},
    {"SCALING.a", "bip n=256 deg4", "bipartite:nx=128,ny=128,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"SCALING.a", "ER n=256 deg4 w~U[1,100]", "er:n=256,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.1", 0, false, 0},
    {"SCALING.a", "ER n=512 deg4", "er:n=512,deg=4", "israeli_itai", "", 0, false, 0},
    {"SCALING.a", "bip n=512 deg4", "bipartite:nx=256,ny=256,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"SCALING.a", "ER n=512 deg4 w~U[1,100]", "er:n=512,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.1", 0, false, 0},
    {"SCALING.a", "ER n=1024 deg4", "er:n=1024,deg=4", "israeli_itai", "", 0, false, 0},
    {"SCALING.a", "bip n=1024 deg4", "bipartite:nx=512,ny=512,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"SCALING.a", "ER n=1024 deg4 w~U[1,100]", "er:n=1024,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.1", 0, false, 0},
    {"SCALING.a", "ER n=2048 deg4", "er:n=2048,deg=4", "israeli_itai", "", 0, false, 0},
    {"SCALING.a", "bip n=2048 deg4", "bipartite:nx=1024,ny=1024,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"SCALING.a", "ER n=2048 deg4 w~U[1,100]", "er:n=2048,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.1", 0, false, 0},
    {"SCALING.a", "ER n=4096 deg4", "er:n=4096,deg=4", "israeli_itai", "", 0, false, 0},
    {"SCALING.a", "bip n=4096 deg4", "bipartite:nx=2048,ny=2048,deg=4", "bipartite_mcm", "k=2", 0, false, 0},
    {"SCALING.a", "ER n=4096 deg4 w~U[1,100]", "er:n=4096,deg=4,w=uniform,wlo=1,whi=100", "weighted_mwm", "eps=0.1", 0, false, 0},
    // ------------------------------------------------------ SCALING.b --
    // The increasing path is Hoepman's Theta(n)-round worst case; one
    // trial, since the protocol is deterministic.
    {"SCALING.b", "increasing path n=128", "increasing_path:n=128", "hoepman_mwm", "", 1, false, 0},
    {"SCALING.b", "increasing path n=128", "increasing_path:n=128", "israeli_itai", "", 0, false, 0},
    {"SCALING.b", "increasing path n=256", "increasing_path:n=256", "hoepman_mwm", "", 1, false, 0},
    {"SCALING.b", "increasing path n=256", "increasing_path:n=256", "israeli_itai", "", 0, false, 0},
    {"SCALING.b", "increasing path n=512", "increasing_path:n=512", "hoepman_mwm", "", 1, false, 0},
    {"SCALING.b", "increasing path n=512", "increasing_path:n=512", "israeli_itai", "", 0, false, 0},
    {"SCALING.b", "increasing path n=1024", "increasing_path:n=1024", "hoepman_mwm", "", 1, false, 0},
    {"SCALING.b", "increasing path n=1024", "increasing_path:n=1024", "israeli_itai", "", 0, false, 0},
};

using bench::fmt;

/// The claimed round budget for the row's theorem, so the table can
/// print rounds/claim — flat across n is the paper's scaling evidence
/// (the deleted per-theorem benches printed the same normalizations).
/// Returns 0 when the experiment has no round-shape claim.
double claim_denominator(const std::string& exp, const api::RunResult& res) {
  const double logn = std::log2(static_cast<double>(res.n) + 2.0);
  const double logd = std::log2(static_cast<double>(res.max_degree) + 2.0);
  const api::SolverConfig cfg = api::SolverConfig::parse(res.spec.config);
  if (exp == "T3.1") return logn;  // Theorem 3.1: O(eps^-3 log n)
  if (exp == "T3.8") {             // Theorem 3.8: O(k^3 logD + k^2 log n)
    const double k = static_cast<double>(cfg.get_int("k", 3));
    return k * k * k * logd + k * k * logn;
  }
  if (exp == "T4.5") {             // Theorem 4.5: O(log(1/eps) log n)
    return std::log(1.0 / cfg.get_double("eps", 0.1)) * logn;
  }
  // SCALING: O(log n) for the randomized solvers, Theta(n) for Hoepman
  // on the increasing path.
  const auto n = static_cast<double>(res.n);
  if (exp == "SCALING.b" && res.spec.solver == "hoepman_mwm") return n;
  if (exp.rfind("SCALING", 0) == 0) return std::log2(n);
  return 0.0;
}

/// --filter matches an experiment key exactly or up to a '.'/'-'
/// separator, so "T3.1" selects T3.1 and T3.1-inv but not T3.11, and
/// "BASE" still selects BASE.a/BASE.b.
bool filter_matches(const std::string& filter, const std::string& key) {
  if (filter.empty() || key == filter) return true;
  return key.size() > filter.size() &&
         key.compare(0, filter.size(), filter) == 0 &&
         (key[filter.size()] == '.' || key[filter.size()] == '-');
}

/// Instance seeds key on the generator spec (FNV-1a), not the table row:
/// rows sharing a workload run on identical instances per trial, so the
/// cross-solver (and k=2 vs k=3) comparisons are instance-controlled.
std::uint64_t workload_seed(const char* generator) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char* p = generator; *p; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ull;
  }
  return h % 100000;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int default_trials = static_cast<int>(opts.get_count("trials", 3));
  const std::string filter = opts.get("filter", "");
  const bool emit_json = opts.get_bool("json", true);
  const std::string json_dir = opts.get("json-dir", "bench/out");
  opts.exit_on_bad_flags();

  bool any_matched = false;
  for (const Experiment& exp : kExperiments) {
    if (!filter_matches(filter, exp.key)) continue;
    any_matched = true;
    bench::print_header(exp.title, exp.claim);
    Table t({"workload", "solver", "config", "n", "m (mean)", "guarantee",
             "ratio (min)", "ratio (mean)", "rounds (mean)", "rounds/claim",
             "max msg bits", "iters/phases (mean)", "wall ms (mean)",
             "note"});

    std::size_t row_index = 0;
    for (const Row& row : kRows) {
      ++row_index;  // global index: stable seeds under filtering
      if (std::string(row.experiment) != exp.key) continue;
      const int trials = row.trials > 0 ? row.trials : default_trials;

      StreamingStats ratio, rounds, iters, wall, edges, norm;
      std::uint64_t max_bits = 0;
      std::size_t n = 0;
      double guarantee = 0.0;
      double paper_budget = 0.0;  // Algorithm 4's 2^{2k+1}(k+1) ln k
      std::string note;
      for (int trial = 0; trial < trials; ++trial) {
        api::RunSpec spec;
        spec.generator = row.generator;
        spec.solver = row.solver;
        spec.config = row.config;
        spec.instance_seed = row.fixed_seed != 0
                                 ? row.fixed_seed
                                 : 101 + workload_seed(row.generator) +
                                       977 * trial;
        spec.solver_seed = row.fixed_seed != 0
                               ? row.fixed_seed
                               : 7 + 13 * trial + row_index;
        spec.feed_oracle = row.feed_oracle;
        api::RunResult res;
        try {
          res = api::run_one(spec);
        } catch (const std::invalid_argument&) {
          throw;  // table misconfiguration, not a measurement: fail loudly
        } catch (const std::logic_error& e) {
          // Only the invariant audit is allowed to observe a violation.
          if (std::string(exp.key) != "T3.1-inv") throw;
          note = std::string("VIOLATION: ") + e.what();
          continue;
        }
        n = res.n;
        edges.add(static_cast<double>(res.m));
        guarantee = res.guarantee;
        if (res.ratio >= 0) ratio.add(res.ratio);
        rounds.add(static_cast<double>(res.net.rounds));
        if (const double denom = claim_denominator(exp.key, res); denom > 0) {
          norm.add(static_cast<double>(res.net.rounds) / denom);
        }
        wall.add(res.wall_ms);
        max_bits = std::max(max_bits, res.net.max_message_bits);
        if (const auto it = res.metrics.find("paper_budget");
            it != res.metrics.end()) {
          paper_budget = it->second;
        }
        // Per-solver progress measure: Algorithm 4/5 iterations, the
        // Aug engine's iterations, or (generic_mcm) the phase count.
        for (const char* key : {"iterations", "aug_iterations", "phases"}) {
          if (const auto it = res.metrics.find(key); it != res.metrics.end()) {
            iters.add(it->second);
            break;
          }
        }
        if (!res.valid) note = "INVALID MATCHING";
        if (emit_json) {
          api::write_json(res, json_dir,
                          std::string(exp.key) + "_r" +
                              std::to_string(row_index) + "_t" +
                              std::to_string(trial));
        }
      }
      if (note.empty() && std::string(exp.key) == "T3.1-inv") {
        note = "invariants ok";
      }
      // T3.11: show the paper-mode iteration budget next to the
      // adaptive iterations actually used (the deleted bench's
      // headline adaptive-vs-paper comparison).
      if (note.empty() && paper_budget > 0) {
        note = "paper budget " + fmt(paper_budget, 0);
      }
      // T4.5-conv: print the Lemma 4.3 floor the ratio must clear,
      // (1 - e^{-2 delta i / 3}) / 2 with delta = 1/5 at i iterations.
      if (note.empty() && std::string(exp.key) == "T4.5-conv" &&
          iters.count() > 0) {
        note = "L4.3 floor " +
               fmt(0.5 * (1.0 - std::exp(-2.0 * 0.2 * iters.mean() / 3.0)), 4);
      }
      t.row();
      t.cell(row.workload);
      t.cell(row.solver);
      t.cell(row.config[0] ? row.config : "-");
      t.cell(n);
      // Random generators redraw edges each trial: report the mean.
      t.cell(edges.count() ? fmt(edges.mean(), 1) : std::string("-"));
      t.cell(guarantee > 0 ? fmt(guarantee, 4) : std::string("-"));
      t.cell(ratio.count() ? fmt(ratio.min(), 4) : std::string("-"));
      t.cell(ratio.count() ? fmt(ratio.mean(), 4) : std::string("-"));
      t.cell(rounds.mean(), 4);
      t.cell(norm.count() ? fmt(norm.mean(), 4) : std::string("-"));
      t.cell(static_cast<std::size_t>(max_bits));
      t.cell(iters.count() ? fmt(iters.mean(), 2) : std::string("-"));
      t.cell(wall.mean(), 3);
      t.cell(note.empty() ? "-" : note);
    }
    bench::print_table(t);
  }
  if (!any_matched) {
    std::fprintf(stderr,
                 "bench_theorems: --filter '%s' matches no experiment "
                 "(keys: BASE, T3.1, T3.8, T3.11, T4.5, SCALING and "
                 "sub-keys)\n",
                 filter.c_str());
    return 1;
  }
  return 0;
}
