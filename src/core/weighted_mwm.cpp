#include "core/weighted_mwm.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/class_mwm.hpp"
#include "core/gain.hpp"
#include "runtime/simd.hpp"
#include "seq/greedy.hpp"
#include "util/rng.hpp"

namespace lps {

MwmBlackBox class_mwm_black_box(ThreadPool* pool, unsigned shards) {
  return [pool, shards](const WeightedGraph& wg, std::uint64_t seed,
                        NetStats* stats) {
    ClassMwmOptions opts;
    opts.seed = seed;
    opts.pool = pool;
    opts.shards = shards;
    ClassMwmResult res = class_mwm(wg, opts);
    if (stats != nullptr) stats->merge(res.stats);
    return std::move(res.matching);
  };
}

MwmBlackBox greedy_black_box() {
  return [](const WeightedGraph& wg, std::uint64_t, NetStats*) {
    return greedy_mwm(wg);
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
      opts.black_box ? opts.black_box
                     : class_mwm_black_box(opts.pool, opts.shards);
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

    // Restrict to positive-gain edges: a maximum-weight matching never
    // gains from edges with w_M <= 0, and the class black box requires
    // positive weights.
    std::vector<char> keep_edge(g.num_edges(), 0);
    const std::size_t positive = simd::mask_positive_f64(
        gains.data(), g.num_edges(),
        reinterpret_cast<std::uint8_t*>(keep_edge.data()));
    ++result.iterations;
    if (positive == 0) {
      result.converged_early = true;
      result.weight_trajectory.push_back(result.matching.weight(wg));
      break;
    }
    Subgraph sub = induced_subgraph(g, {}, keep_edge);
    std::vector<double> sub_weights(sub.graph.num_edges());
    for (EdgeId e = 0; e < sub.graph.num_edges(); ++e) {
      sub_weights[e] = gains[sub.edge_to_parent[e]];
    }
    WeightedGraph gprime =
        make_weighted(std::move(sub.graph), std::move(sub_weights));

    // Line 4: M' <- delta-MWM(G').
    const Matching m_prime = black_box(
        gprime, splitmix64(opts.seed ^ (iter * 0xa0761d6478bd642fULL)),
        &result.stats);

    // Line 5: M <- M ⊕ ∪ wrap(e). Applying the wraps takes O(1) rounds
    // (each M' edge's endpoints flip locally and notify their old
    // mates); account one round plus one O(log n)-bit message per
    // dropped edge endpoint.
    std::vector<EdgeId> parent_edges;
    parent_edges.reserve(m_prime.size());
    for (EdgeId e : m_prime.edge_ids(gprime.graph)) {
      parent_edges.push_back(sub.edge_to_parent[e]);
    }
    apply_wraps(g, result.matching, parent_edges);
    NetStats apply;
    apply.rounds = 1;
    std::uint64_t id_bits = 1;
    while ((std::uint64_t{1} << id_bits) < g.num_nodes() + 1) ++id_bits;
    for (std::size_t i = 0; i < 2 * parent_edges.size(); ++i) {
      apply.note_message(id_bits);
    }
    result.stats.merge(apply);
    result.weight_trajectory.push_back(result.matching.weight(wg));
  }
  return result;
}

}  // namespace lps
