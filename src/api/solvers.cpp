// The adapter table: every src/core and src/seq algorithm wrapped as a
// MatchingSolver. Each adapter maps the algorithm's bespoke option
// struct onto the uniform SolverConfig key/value space and folds its
// bespoke result struct into SolveResult (matching + NetStats + named
// metrics). Config keys keep the option-struct field names so the
// mapping stays greppable.
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/class_mwm.hpp"
#include "core/general_mcm.hpp"
#include "core/generic_mcm.hpp"
#include "core/hoepman_mwm.hpp"
#include "core/israeli_itai.hpp"
#include "core/pipelined_max.hpp"
#include "core/weighted_mwm.hpp"
#include "lca/rank_greedy.hpp"
#include "seq/blossom.hpp"
#include "seq/exact_small.hpp"
#include "seq/greedy.hpp"
#include "seq/hopcroft_karp.hpp"
#include "seq/hungarian.hpp"

namespace lps::api {
namespace {

/// A solver assembled from plain data plus two lambdas; all built-in
/// adapters are instances of this.
class FunctionSolver final : public MatchingSolver {
 public:
  using RunFn = std::function<SolveResult(const Instance&, const SolverConfig&)>;
  using GuaranteeFn = std::function<double(const SolverConfig&)>;

  FunctionSolver(std::string name, std::string description, Capabilities caps,
                 std::vector<std::string> keys, GuaranteeFn guarantee,
                 RunFn run)
      : name_(std::move(name)),
        description_(std::move(description)),
        caps_(caps),
        keys_(std::move(keys)),
        guarantee_(std::move(guarantee)),
        run_(std::move(run)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  Capabilities capabilities() const override { return caps_; }
  std::vector<std::string> config_keys() const override { return keys_; }
  double guarantee(const SolverConfig& config) const override {
    return guarantee_ ? guarantee_(config) : 0.0;
  }

 protected:
  SolveResult run(const Instance& instance,
                  const SolverConfig& config) const override {
    return run_(instance, config);
  }

 private:
  std::string name_;
  std::string description_;
  Capabilities caps_;
  std::vector<std::string> keys_;
  GuaranteeFn guarantee_;
  RunFn run_;
};

SolveResult make_result(Matching m, NetStats stats = {},
                        bool converged = true) {
  SolveResult out;
  out.matching = std::move(m);
  out.stats = stats;
  out.converged = converged;
  return out;
}

/// The instance's bipartition, required: attached side, else computed,
/// else an error naming the solver.
std::vector<std::uint8_t> require_side(const Instance& instance,
                                       const char* solver) {
  auto side = instance.bipartition();
  if (!side.has_value()) {
    throw std::invalid_argument(std::string("solver '") + solver +
                                "' requires a bipartite instance");
  }
  return std::move(*side);
}

/// k in [1, 31]: 31 is the largest k whose general_mcm default
/// empty-streak stop 1 << (2k+1) is a defined shift. Range-checked
/// before narrowing, so k=2^32+3 is rejected rather than run as k=3.
int config_k(const SolverConfig& c) {
  const std::int64_t k = c.get_int("k", 3);
  if (k < 1 || k > 31) {
    throw std::invalid_argument("config: k must be in [1, 31]");
  }
  return static_cast<int>(k);
}

/// generic_mcm documents eps in (0, 1] (eps = 1 -> k = 1); the other
/// eps consumers require (0, 1) strictly.
double config_eps(const SolverConfig& c, double fallback,
                  bool inclusive_one = false) {
  const double eps = c.get_double("eps", fallback);
  if (eps <= 0.0 || eps > 1.0 || (!inclusive_one && eps == 1.0)) {
    throw std::invalid_argument(std::string("config: eps must be in (0, 1") +
                                (inclusive_one ? "]" : ")"));
  }
  return eps;
}

/// True when the config sets the truncating cap `cap_key` (0 = the
/// default budget) nonzero: the run may stop short of the analysis'
/// budget, so guarantee() must report 0.
bool truncated(const SolverConfig& c, const char* cap_key) {
  return c.get_int(cap_key, 0) != 0;
}

void add(SolverRegistry& reg, std::string name, std::string description,
         Capabilities caps, std::vector<std::string> keys,
         FunctionSolver::GuaranteeFn guarantee, FunctionSolver::RunFn run) {
  reg.add(std::make_shared<FunctionSolver>(
      std::move(name), std::move(description), caps, std::move(keys),
      std::move(guarantee), std::move(run)));
}

// ------------------------------------------------- core (distributed) --

void register_core(SolverRegistry& reg) {
  add(reg, "israeli_itai",
      "Randomized distributed maximal matching (1/2-MCM baseline, "
      "O(log n) rounds w.h.p.) [Israeli & Itai 1986]",
      {.bipartite = true, .general = true, .distributed = true,
       .maximal = true},
      {"max_phases", "faults"},
      [](const SolverConfig& c) {
        // Under injected faults maximality is best-effort (resync may
        // exhaust its budget), so the 1/2 guarantee no longer applies.
        if (!c.get("faults", "").empty()) return 0.0;
        return truncated(c, "max_phases") ? 0.0 : 0.5;
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        IsraeliItaiOptions o;
        o.seed = cfg.seed();
        o.max_phases = static_cast<std::uint64_t>(cfg.get_int("max_phases", 0));
        o.pool = cfg.pool();
        o.faults = cfg.get("faults", "");
        auto res = israeli_itai(inst.graph(), o);
        SolveResult out =
            make_result(std::move(res.matching), res.stats, res.converged);
        out.metrics["resyncs"] = static_cast<double>(res.resyncs);
        return out;
      });

  add(reg, "generic_mcm",
      "Algorithm 1 (Theorem 3.1): generic (1-eps)-MCM in the LOCAL "
      "model, O(eps^-3 log n) rounds w.h.p.",
      {.bipartite = true, .general = true, .distributed = true},
      {"eps", "use_abi_mis", "check_invariants"},
      [](const SolverConfig& c) {
        const double eps = config_eps(c, 0.34, /*inclusive_one=*/true);
        const int k = static_cast<int>(std::ceil(1.0 / eps));
        return 1.0 - 1.0 / (k + 1);
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        GenericMcmOptions o;
        o.eps = config_eps(cfg, 0.34, /*inclusive_one=*/true);
        o.seed = cfg.seed();
        o.use_abi_mis = cfg.get_bool("use_abi_mis", false);
        o.check_invariants = cfg.get_bool("check_invariants", false);
        o.pool = cfg.pool();
        auto res = generic_mcm(inst.graph(), o);
        SolveResult out = make_result(std::move(res.matching), res.stats);
        out.metrics["phases"] = static_cast<double>(res.phases.size());
        std::size_t selected = 0;
        for (const auto& ph : res.phases) selected += ph.selected_paths;
        out.metrics["selected_paths"] = static_cast<double>(selected);
        return out;
      });

  add(reg, "bipartite_mcm",
      "Section 3.2 CONGEST engine (Theorem 3.8): (1-1/(k+1))-MCM for "
      "bipartite graphs with O(log Delta)-bit messages",
      {.bipartite = true, .distributed = true},
      {"k"},
      [](const SolverConfig& c) { return 1.0 - 1.0 / (config_k(c) + 1); },
      [](const Instance& inst, const SolverConfig& cfg) {
        const auto side = require_side(inst, "bipartite_mcm");
        BipartiteMcmOptions o;
        o.k = config_k(cfg);
        o.seed = cfg.seed();
        o.pool = cfg.pool();
        auto res = bipartite_mcm(inst.graph(), side, o);
        SolveResult out =
            make_result(std::move(res.matching), res.stats, res.converged);
        out.metrics["phases"] = static_cast<double>(res.phases.size());
        std::uint64_t iters = 0;
        std::size_t paths = 0;
        for (const auto& ph : res.phases) {
          iters += ph.iterations;
          paths += ph.paths_applied;
        }
        out.metrics["aug_iterations"] = static_cast<double>(iters);
        out.metrics["paths_applied"] = static_cast<double>(paths);
        return out;
      });

  add(reg, "general_mcm",
      "Algorithm 4 (Theorem 3.11): (1-1/k)-MCM for general graphs via "
      "repeated random bipartition",
      {.bipartite = true, .general = true, .distributed = true},
      {"k", "mode", "max_iterations", "empty_streak_stop",
       "oracle_optimum_size"},
      // empty_streak_stop is not listed: it tunes the adaptive
      // heuristic (default 2^{2k+1}) rather than capping the paper
      // budget, so it leaves the stated guarantee unchanged.
      [](const SolverConfig& c) {
        if (truncated(c, "max_iterations")) return 0.0;
        return 1.0 - 1.0 / config_k(c);
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        GeneralMcmOptions o;
        o.k = config_k(cfg);
        o.seed = cfg.seed();
        const std::string mode = cfg.get("mode", "adaptive");
        if (mode == "paper") {
          o.mode = GeneralMcmOptions::Mode::kPaper;
        } else if (mode == "adaptive") {
          o.mode = GeneralMcmOptions::Mode::kAdaptive;
        } else {
          throw std::invalid_argument(
              "general_mcm: mode must be 'paper' or 'adaptive'");
        }
        o.max_iterations =
            static_cast<std::uint64_t>(cfg.get_int("max_iterations", 0));
        o.empty_streak_stop =
            static_cast<std::uint64_t>(cfg.get_int("empty_streak_stop", 0));
        o.oracle_optimum_size =
            static_cast<std::size_t>(cfg.get_int("oracle_optimum_size", 0));
        o.pool = cfg.pool();
        auto res = general_mcm(inst.graph(), o);
        // Converged = the adaptive exit fired or the full analysis
        // budget ran; an explicit max_iterations below the paper
        // budget is a truncated run.
        SolveResult out = make_result(
            std::move(res.matching), res.stats,
            res.stopped_early || res.iterations >= res.paper_budget);
        out.metrics["iterations"] = static_cast<double>(res.iterations);
        out.metrics["paper_budget"] = static_cast<double>(res.paper_budget);
        out.metrics["paths_applied"] = static_cast<double>(res.paths_applied);
        out.metrics["stopped_early"] = res.stopped_early ? 1.0 : 0.0;
        return out;
      });

  add(reg, "hoepman_mwm",
      "Hoepman's deterministic distributed 1/2-MWM (Theta(n) rounds; "
      "reference [11])",
      {.bipartite = true, .general = true, .weighted = true,
       .distributed = true},
      {}, [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig& cfg) {
        auto res = hoepman_mwm(inst.weighted_graph(), {.pool = cfg.pool()});
        return make_result(std::move(res.matching), res.stats, res.converged);
      });

  add(reg, "class_mwm",
      "Geometric weight classes + per-class Israeli-Itai + survival "
      "sweep: the constant-delta MWM black box standing in for [18] "
      "(DESIGN.md sec. 4)",
      {.bipartite = true, .general = true, .weighted = true,
       .distributed = true},
      {"class_base", "max_phases_per_class"},
      [](const SolverConfig&) { return 0.0; },
      [](const Instance& inst, const SolverConfig& cfg) {
        ClassMwmOptions o;
        o.seed = cfg.seed();
        o.class_base = cfg.get_double("class_base", 2.0);
        o.max_phases_per_class = static_cast<std::uint64_t>(
            cfg.get_int("max_phases_per_class", 0));
        o.pool = cfg.pool();
        auto res = class_mwm(inst.weighted_graph(), o);
        SolveResult out =
            make_result(std::move(res.matching), res.stats, res.converged);
        out.metrics["num_classes"] = static_cast<double>(res.num_classes);
        return out;
      });

  add(reg, "weighted_mwm",
      "Algorithm 5 (Theorem 4.5): (1/2-eps)-MWM by reduction to a "
      "delta-MWM black box",
      {.bipartite = true, .general = true, .weighted = true,
       .distributed = true},
      {"eps", "delta", "black_box", "max_iterations"},
      // eps >= 1/2 still runs but states no guarantee (0 by contract).
      [](const SolverConfig& c) {
        if (truncated(c, "max_iterations")) return 0.0;
        return std::max(0.0, 0.5 - config_eps(c, 0.1));
      },
      [](const Instance& inst, const SolverConfig& cfg) {
        WeightedMwmOptions o;
        o.eps = config_eps(cfg, 0.1);
        o.delta = cfg.get_double("delta", 0.2);
        o.seed = cfg.seed();
        const std::string box = cfg.get("black_box", "class");
        if (box == "class") {
          o.black_box = class_mwm_black_box(cfg.pool());
        } else if (box == "greedy") {
          o.black_box = greedy_black_box();
        } else {
          throw std::invalid_argument(
              "weighted_mwm: black_box must be 'class' or 'greedy'");
        }
        o.max_iterations =
            static_cast<std::uint64_t>(cfg.get_int("max_iterations", 0));
        o.pool = cfg.pool();
        auto res = weighted_mwm(inst.weighted_graph(), o);
        // Lemma 4.3's iteration budget; an explicit cap below it makes
        // the run truncated, not converged.
        const std::uint64_t budget =
            weighted_mwm_iteration_budget(o.delta, o.eps);
        SolveResult out = make_result(
            std::move(res.matching), res.stats,
            res.converged_early || res.iterations >= budget);
        out.metrics["iterations"] = static_cast<double>(res.iterations);
        out.metrics["converged_early"] = res.converged_early ? 1.0 : 0.0;
        if (!res.weight_trajectory.empty()) {
          out.metrics["first_iteration_weight"] = res.weight_trajectory.front();
        }
        return out;
      });

  add(reg, "pipelined_max",
      "Lemma 3.7 bit-pipelined maximum over a tree (primitive, not a "
      "matching: per-node values are the degrees; result in metrics)",
      {.bipartite = true, .general = true, .distributed = true,
       .primitive = true},
      {"chunk_bits", "root"}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig& cfg) {
        const Graph& g = inst.graph();
        const int chunk_bits =
            static_cast<int>(cfg.get_int("chunk_bits", 8));
        const std::int64_t root_raw = cfg.get_int("root", 0);
        if (root_raw < 0 || root_raw >= static_cast<std::int64_t>(g.num_nodes())) {
          throw std::invalid_argument(
              "pipelined_max: root " + std::to_string(root_raw) +
              " out of range [0, " + std::to_string(g.num_nodes()) + ")");
        }
        const NodeId root = static_cast<NodeId>(root_raw);
        std::vector<std::optional<BigCounter>> values(g.num_nodes());
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          values[v] = BigCounter(g.degree(v));
        }
        auto res = pipelined_max(g, root, values, chunk_bits, cfg.pool());
        SolveResult out = make_result(Matching(g.num_nodes()), res.stats);
        out.metrics["maximum"] = res.maximum.to_double();
        out.metrics["tree_depth"] = static_cast<double>(res.tree_depth);
        out.metrics["chunk_count"] = static_cast<double>(res.chunk_count);
        return out;
      });
}

// ------------------------------------------------- seq (baselines) --

void register_seq(SolverRegistry& reg) {
  add(reg, "greedy_mcm",
      "Sequential maximal matching by edge-id scan (1/2-MCM)",
      {.bipartite = true, .general = true, .maximal = true}, {},
      [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(greedy_mcm(inst.graph()));
      });

  add(reg, "rank_greedy_mcm",
      "Greedy maximal matching over a seed-derived random edge order "
      "(1/2-MCM): the virtual global execution behind the src/lca "
      "rank-greedy query oracle [Nguyen-Onak style]",
      {.bipartite = true, .general = true, .maximal = true}, {},
      [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig& cfg) {
        return make_result(
            lca::rank_greedy_matching(inst.graph(), cfg.seed()));
      });

  add(reg, "greedy_mwm",
      "Sequential greedy by descending weight (classical 1/2-MWM)",
      {.bipartite = true, .general = true, .weighted = true,
       .maximal = true},
      {}, [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(greedy_mwm(inst.weighted_graph()));
      });

  add(reg, "locally_heaviest_mwm",
      "Preis-style locally-heaviest-edge 1/2-MWM",
      {.bipartite = true, .general = true, .weighted = true,
       .maximal = true},
      {}, [](const SolverConfig&) { return 0.5; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(locally_heaviest_mwm(inst.weighted_graph()));
      });

  add(reg, "hopcroft_karp",
      "Exact maximum-cardinality matching for bipartite graphs, "
      "O(E sqrt(V)) [13]",
      {.bipartite = true, .exact = true, .maximal = true}, {},
      [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        const auto side = require_side(inst, "hopcroft_karp");
        return make_result(hopcroft_karp(inst.graph(), side));
      });

  add(reg, "blossom",
      "Edmonds' blossom algorithm: exact MCM for general graphs, O(V^3)",
      {.bipartite = true, .general = true, .exact = true, .maximal = true},
      {}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(blossom_mcm(inst.graph()));
      });

  add(reg, "hungarian",
      "Hungarian algorithm: exact maximum-weight matching for bipartite "
      "graphs, O(n^3)",
      {.bipartite = true, .weighted = true, .exact = true}, {},
      [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        const auto side = require_side(inst, "hungarian");
        return make_result(hungarian_mwm(inst.weighted_graph(), side));
      });

  add(reg, "exact_mcm_small",
      "Exhaustive exact MCM over vertex subsets (n <= 30)",
      {.bipartite = true, .general = true, .exact = true, .maximal = true},
      {}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(exact_mcm_small(inst.graph()));
      });

  add(reg, "exact_mwm_small",
      "Exhaustive exact MWM over vertex subsets (n <= 30)",
      {.bipartite = true, .general = true, .weighted = true, .exact = true},
      {}, [](const SolverConfig&) { return 1.0; },
      [](const Instance& inst, const SolverConfig&) {
        return make_result(exact_mwm_small(inst.weighted_graph()));
      });
}

}  // namespace

void register_builtin_solvers(SolverRegistry& registry) {
  register_core(registry);
  register_seq(registry);
}

}  // namespace lps::api
