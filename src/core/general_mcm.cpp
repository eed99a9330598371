#include "core/general_mcm.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace lps {

std::uint64_t general_mcm_paper_budget(int k) {
  const double budget = std::ceil(std::pow(2.0, 2 * k + 1) *
                                  (static_cast<double>(k) + 1.0) *
                                  std::log(static_cast<double>(k)));
  // From k = 29 on the budget exceeds 2^64 (exact as a double); saturate
  // rather than convert an out-of-range value.
  if (!(budget < 18446744073709551616.0)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(budget);
}

GeneralMcmResult general_mcm(const Graph& g, const GeneralMcmOptions& opts) {
  // k <= 31 keeps the default empty-streak stop 1 << (2k+1) a defined
  // shift.
  if (opts.k < 2 || opts.k > 31) {
    throw std::invalid_argument("general_mcm: k must be in [2, 31]");
  }
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  const GraphStore& s = g.store();
  const int l = 2 * opts.k - 1;

  GeneralMcmResult result;
  result.matching = Matching(n);
  result.paper_budget = general_mcm_paper_budget(opts.k);

  std::uint64_t budget = opts.max_iterations != 0 ? opts.max_iterations
                                                  : result.paper_budget;
  const std::uint64_t empty_streak_stop =
      opts.empty_streak_stop != 0
          ? opts.empty_streak_stop
          : (std::uint64_t{1} << (2 * opts.k + 1));

  std::vector<std::uint8_t> color(n, 0);
  std::vector<std::uint8_t> v_hat(n, 0);
  std::vector<char> active_edge(m, 0);
  AugScratch scratch;  // one per solve, shared by every Aug call
  std::uint64_t empty_streak = 0;

  // Line 3's color exchange: one round, one 1-bit message per arc.
  NetStats color_round;
  color_round.rounds = 1;
  color_round.messages = color_round.total_bits = 2 * std::uint64_t{m};
  color_round.max_message_bits = m > 0 ? 1 : 0;

  for (std::uint64_t iter = 0; iter < budget; ++iter) {
    // Line 3: every node colors itself red (0) or blue (1) uniformly and
    // tells its neighbors (color_round above); the colors come from
    // per-(seed, iteration, node) substreams so the execution is
    // deterministic and order-independent.
    for (NodeId v = 0; v < n; ++v) {
      color[v] = Rng::substream(opts.seed, iter, std::uint64_t{v}).coin()
                     ? 1
                     : 0;
    }
    result.stats.merge(color_round);

    // Line 4: Ĝ. A vertex is in V̂ iff free or matched bichromatically;
    // an edge is in Ê iff bichromatic with both endpoints in V̂.
    for (NodeId v = 0; v < n; ++v) {
      const EdgeId me = result.matching.matched_edge(v);
      v_hat[v] = me == kInvalidEdge ||
                 color[s.edge_u[me]] != color[s.edge_v[me]];
    }
    for (EdgeId e = 0; e < m; ++e) {
      const NodeId u = s.edge_u[e];
      const NodeId v = s.edge_v[e];
      active_edge[e] =
          static_cast<char>((color[u] != color[v]) & v_hat[u] & v_hat[v]);
    }

    // Line 5-6: P <- Aug(Ĝ, M, 2k-1); M <- M ⊕ P. Side 0 = red.
    AugOptions aug_opts;
    aug_opts.seed = splitmix64(opts.seed ^ (iter * 0xc2b2ae3d27d4eb4fULL));
    aug_opts.max_iterations = opts.max_aug_iterations;
    aug_opts.pool = opts.pool;
    aug_opts.shards = opts.shards;
    AugResult aug = bipartite_aug(g, color, result.matching, l, active_edge,
                                  aug_opts, scratch);
    result.stats.merge(aug.stats);
    result.paths_applied += aug.paths_applied;
    ++result.iterations;

    if (opts.mode == GeneralMcmOptions::Mode::kAdaptive) {
      if (opts.oracle_optimum_size > 0) {
        const double target = (1.0 - 1.0 / static_cast<double>(opts.k)) *
                              static_cast<double>(opts.oracle_optimum_size);
        if (static_cast<double>(result.matching.size()) >= target) {
          result.stopped_early = true;
          break;
        }
      }
      empty_streak = aug.paths_applied == 0 ? empty_streak + 1 : 0;
      if (empty_streak >= empty_streak_stop) {
        result.stopped_early = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace lps
