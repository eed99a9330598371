#include "core/generic_mcm.hpp"

#include <cmath>
#include <stdexcept>

#include "core/conflict_graph.hpp"
#include "core/local_ball.hpp"
#include "core/luby_mis.hpp"
#include "util/rng.hpp"

namespace lps {

GenericMcmResult generic_mcm(const Graph& g, const GenericMcmOptions& opts) {
  if (!(opts.eps > 0.0) || opts.eps > 1.0) {
    throw std::invalid_argument("generic_mcm: eps must be in (0,1]");
  }
  const int k = static_cast<int>(std::ceil(1.0 / opts.eps));
  GenericMcmResult result;
  result.matching = Matching(g.num_nodes());

  std::uint64_t id_bits = 1;
  while ((std::uint64_t{1} << id_bits) < g.num_nodes() + 1) ++id_bits;

  for (int l = 1; l <= 2 * k - 1; l += 2) {
    // Step 4 (Algorithm 2): gather radius-2l views.
    BallViews views = collect_balls(g, result.matching, 2 * l, opts.pool);
    result.stats.merge(views.stats);

    // Conflict graph C_M(l) from the per-leader enumerations; past 4 *
    // 2^20 augmenting paths the phase aborts (the enumeration's guard).
    ConflictGraphResult cg = build_conflict_graph(
        g, result.matching, views, l, std::size_t{4} << 20);

    GenericPhaseInfo info;
    info.l = l;
    info.conflict_nodes = cg.paths.size();
    info.conflict_edges = cg.conflict.num_edges();

    if (!cg.paths.empty()) {
      // Step 5: MIS on the conflict graph. Each overlay round costs l
      // physical rounds on G (Lemma 3.3).
      MisOptions mis_opts;
      mis_opts.seed = splitmix64(opts.seed ^ (0x9e37u + l));
      mis_opts.pool = opts.pool;
      MisResult mis = opts.use_abi_mis ? abi_mis(cg.conflict, mis_opts)
                                       : luby_mis(cg.conflict, mis_opts);
      if (!mis.converged) {
        throw std::runtime_error("generic_mcm: MIS did not converge");
      }
      result.stats.merge_scaled_rounds(
          mis.stats, static_cast<std::uint64_t>(l));
      info.mis_rounds = mis.stats.rounds;

      // Steps 6-7: flip the union of the selected paths.
      std::vector<EdgeId> to_flip;
      NetStats apply;
      for (std::size_t i = 0; i < cg.paths.size(); ++i) {
        if (!mis.in_mis[i]) continue;
        ++info.selected_paths;
        for (EdgeId e : cg.paths[i].edges) {
          to_flip.push_back(e);
          // Leader sends the flip decision along the path: one
          // O(log n)-bit message per path edge.
          apply.note_message(id_bits);
        }
      }
      apply.rounds = static_cast<std::uint64_t>(l);
      result.stats.merge(apply);
      result.matching.symmetric_difference(g, to_flip);
    }
    result.phases.push_back(info);

    if (opts.check_invariants) {
      // Lemma 3.4: after the phase, no augmenting path of length <= l.
      if (has_augmenting_path_leq(g, result.matching, l)) {
        throw std::logic_error(
            "generic_mcm: Lemma 3.4 invariant violated after phase");
      }
    }
  }
  return result;
}

}  // namespace lps
