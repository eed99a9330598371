#include "core/weighted_mwm.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/class_mwm.hpp"
#include "core/gain.hpp"
#include "seq/greedy.hpp"
#include "util/rng.hpp"

namespace lps {

MwmBlackBox class_mwm_black_box(ThreadPool* pool) {
  return [pool](const Graph& g, std::span<const double> gains,
                std::uint64_t seed, NetStats* stats) {
    ClassMwmOptions opts;
    opts.seed = seed;
    opts.pool = pool;
    ClassMwmResult res = class_mwm(g, gains, opts);
    if (stats != nullptr) stats->merge(res.stats);
    return std::move(res.matching);
  };
}

MwmBlackBox greedy_black_box() {
  return [](const Graph& g, std::span<const double> gains, std::uint64_t,
            NetStats*) {
    // Greedy decides every positive-gain edge before any other, so its
    // matching of G with these weights, less the edges outside G′, is its
    // matching of G′.
    const Matching all =
        greedy_mwm(WeightedGraph{g, {gains.begin(), gains.end()}});
    std::vector<EdgeId> kept;
    for (const EdgeId e : all.edge_ids(g)) {
      if (gains[e] > 0.0) kept.push_back(e);
    }
    return Matching::from_edges(g, kept);
  };
}

std::uint64_t weighted_mwm_iteration_budget(double delta, double eps) {
  const double budget = std::ceil(3.0 / (2.0 * delta) * std::log(2.0 / eps));
  // A tiny delta pushes the budget past 2^64 (exact as a double);
  // saturate rather than convert an out-of-range value.
  if (!(budget < 18446744073709551616.0)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(budget);
}

WeightedMwmResult weighted_mwm(const WeightedGraph& wg,
                               const WeightedMwmOptions& opts) {
  if (!(opts.eps > 0.0) || opts.eps >= 1.0) {
    throw std::invalid_argument("weighted_mwm: eps must be in (0,1)");
  }
  if (!(opts.delta > 0.0) || opts.delta > 0.5) {
    throw std::invalid_argument("weighted_mwm: delta must be in (0, 1/2]");
  }
  const Graph& g = wg.graph;
  const MwmBlackBox black_box =
      opts.black_box ? opts.black_box : class_mwm_black_box(opts.pool);
  const std::uint64_t iterations =
      opts.max_iterations != 0
          ? opts.max_iterations
          : weighted_mwm_iteration_budget(opts.delta, opts.eps);

  WeightedMwmResult result;
  result.matching = Matching(g.num_nodes());

  for (std::uint64_t iter = 0; iter < iterations; ++iter) {
    // Line 3: G' = (V, E, w_M). One exchange round, accounted.
    const std::vector<double> gains =
        gain_weights(wg, result.matching, &result.stats);

    // G' keeps only positive-gain edges: a maximum-weight matching never
    // gains from edges with w_M <= 0. The box gets G' as a view (G and
    // the gains), not as a copy.
    ++result.iterations;
    if (std::none_of(gains.begin(), gains.end(),
                     [](double x) { return x > 0.0; })) {
      result.converged_early = true;
      result.weight_trajectory.push_back(result.matching.weight(wg));
      break;
    }

    // Line 4: M' <- delta-MWM(G').
    const Matching m_prime = black_box(
        g, gains, splitmix64(opts.seed ^ (iter * 0xa0761d6478bd642fULL)),
        &result.stats);
    if (m_prime.num_nodes() != g.num_nodes()) {
      throw std::invalid_argument(
          "weighted_mwm: black box returned a matching over " +
          std::to_string(m_prime.num_nodes()) + " nodes, expected " +
          std::to_string(g.num_nodes()));
    }
    const std::vector<EdgeId> picked = m_prime.edge_ids(g);
    for (const EdgeId e : picked) {
      if (!(gains[e] > 0.0)) {
        std::ostringstream msg;
        msg << std::setprecision(17) << "weighted_mwm: black box matched edge "
            << e << " with gain w_M = " << gains[e]
            << ", which is not in G' (w_M > 0)";
        throw std::invalid_argument(msg.str());
      }
    }

    // Line 5: M <- M ⊕ ∪ wrap(e). Applying the wraps takes O(1) rounds
    // (each M' edge's endpoints flip locally and notify their old
    // mates); account one round plus one O(log n)-bit message per
    // dropped edge endpoint.
    apply_wraps(g, result.matching, picked);
    NetStats apply;
    apply.rounds = 1;
    std::uint64_t id_bits = 1;
    while ((std::uint64_t{1} << id_bits) < g.num_nodes() + 1) ++id_bits;
    for (std::size_t i = 0; i < 2 * picked.size(); ++i) {
      apply.note_message(id_bits);
    }
    result.stats.merge(apply);
    result.weight_trajectory.push_back(result.matching.weight(wg));
  }
  return result;
}

}  // namespace lps
