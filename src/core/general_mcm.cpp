#include "core/general_mcm.hpp"

#include <cmath>
#include <limits>
#include <numeric>
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

  AugScratch scratch;  // one per solve, shared by every Aug call
  // Every free node, shrinking as augmentations match them (they never
  // free one): each counting pass starts from this list, not from all n.
  std::vector<NodeId> free(n);
  std::iota(free.begin(), free.end(), NodeId{0});
  std::uint64_t empty_streak = 0;

  // Line 3's color exchange: one round, one 1-bit message per arc.
  NetStats color_round;
  color_round.rounds = 1;
  color_round.messages = color_round.total_bits = 2 * std::uint64_t{m};
  color_round.max_message_bits = m > 0 ? 1 : 0;

  for (std::uint64_t iter = 0; iter < budget; ++iter) {
    // Line 3: every node colors itself red (0) or blue (1) uniformly and
    // tells its neighbors (color_round above). The colors come from
    // per-(seed, iteration, node) substreams, so the execution is
    // deterministic and order-independent. No pass computes them all:
    // Line 4's Ĝ is the view `h`, evaluated only at the nodes and edges
    // the counting BFS reaches.
    result.stats.merge(color_round);
    const BichromaticSubgraph h(g, result.matching, opts.seed, iter);

    // Line 5-6: P <- Aug(Ĝ, M, 2k-1); M <- M ⊕ P. Side 0 = red.
    AugOptions aug_opts;
    aug_opts.seed = splitmix64(opts.seed ^ (iter * 0xc2b2ae3d27d4eb4fULL));
    aug_opts.pool = opts.pool;
    AugResult aug =
        bipartite_aug(g, h, result.matching, l, free, aug_opts, scratch);
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
