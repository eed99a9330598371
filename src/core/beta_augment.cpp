#include "core/beta_augment.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/local_ball.hpp"

namespace lps {

namespace {

/// DFS enumerator over alternating walks. A completed walk qualifies as
/// an augmentation when flipping it preserves the matching property:
///  * interior vertices see exactly one matched walk edge (alternation);
///  * an endpoint whose walk edge is unmatched must be free (it gains a
///    matched edge); an endpoint whose walk edge is matched is fine (it
///    becomes free);
///  * a cycle must alternate across the closing vertex, i.e. the first
///    and last edges have different matched-status.
struct BetaEnumerator {
  const WeightedGraph& wg;
  const Matching& m;
  int beta;
  std::size_t max_results;
  std::vector<BetaAugmentation>* out;
  std::set<std::vector<EdgeId>>* seen;

  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  std::vector<char> on_walk;
  int unmatched_used = 0;
  double gain = 0.0;

  const Graph& g() const { return wg.graph; }

  void record(bool is_cycle) {
    if (gain <= 0.0) return;
    std::vector<EdgeId> key = edges;
    std::sort(key.begin(), key.end());
    if (!seen->insert(std::move(key)).second) return;
    if (out->size() >= max_results) {
      throw std::runtime_error(
          "enumerate_beta_augmentations: result cap exceeded");
    }
    BetaAugmentation aug;
    aug.edges = edges;
    aug.nodes = nodes;
    aug.gain = gain;
    aug.is_cycle = is_cycle;
    out->push_back(std::move(aug));
  }

  /// Extend from the current walk end; `last_matched` is the status of
  /// the walk's final edge (the next edge must have the opposite one).
  void extend(NodeId cur, bool last_matched) {
    // Path completion at the current end:
    //  * last edge matched: always a legal end (cur becomes free);
    //  * last edge unmatched: legal only if cur is free.
    if (last_matched || m.is_free(cur)) record(/*is_cycle=*/false);

    const bool next_matched = !last_matched;
    if (!next_matched && unmatched_used >= beta) return;
    for (const Graph::Incidence& inc : g().neighbors(cur)) {
      const bool is_matched = m.contains(g(), inc.edge);
      if (is_matched != next_matched) continue;
      if (inc.to == nodes.front()) {
        // Cycle closure: first and last edges must differ in status at
        // the shared vertex; the first edge's status is the status of
        // edges[0].
        const bool first_matched = m.contains(g(), edges.front());
        if (first_matched != is_matched && edges.size() >= 3) {
          edges.push_back(inc.edge);
          unmatched_used += is_matched ? 0 : 1;
          gain += is_matched ? -wg.weight(inc.edge) : wg.weight(inc.edge);
          record(/*is_cycle=*/true);
          gain -= is_matched ? -wg.weight(inc.edge) : wg.weight(inc.edge);
          unmatched_used -= is_matched ? 0 : 1;
          edges.pop_back();
        }
        continue;
      }
      if (on_walk[inc.to]) continue;
      edges.push_back(inc.edge);
      nodes.push_back(inc.to);
      on_walk[inc.to] = 1;
      unmatched_used += is_matched ? 0 : 1;
      gain += is_matched ? -wg.weight(inc.edge) : wg.weight(inc.edge);
      extend(inc.to, is_matched);
      gain -= is_matched ? -wg.weight(inc.edge) : wg.weight(inc.edge);
      unmatched_used -= is_matched ? 0 : 1;
      on_walk[inc.to] = 0;
      nodes.pop_back();
      edges.pop_back();
    }
  }

  void run_from(NodeId start) {
    nodes = {start};
    on_walk.assign(g().num_nodes(), 0);
    on_walk[start] = 1;
    // First edge unmatched: start must be free (it gains a mate).
    // First edge matched: any matched vertex may start (it loses one).
    for (const Graph::Incidence& inc : g().neighbors(start)) {
      const bool is_matched = m.contains(g(), inc.edge);
      if (!is_matched && !m.is_free(start)) continue;
      if (on_walk[inc.to]) continue;
      edges = {inc.edge};
      nodes.push_back(inc.to);
      on_walk[inc.to] = 1;
      unmatched_used = is_matched ? 0 : 1;
      gain = is_matched ? -wg.weight(inc.edge) : wg.weight(inc.edge);
      extend(inc.to, is_matched);
      on_walk[inc.to] = 0;
      nodes.pop_back();
      edges.clear();
    }
  }
};

}  // namespace

std::vector<BetaAugmentation> enumerate_beta_augmentations(
    const WeightedGraph& wg, const Matching& m, int beta,
    std::size_t max_results) {
  if (beta < 1) {
    throw std::invalid_argument("enumerate_beta_augmentations: beta >= 1");
  }
  std::vector<BetaAugmentation> out;
  std::set<std::vector<EdgeId>> seen;
  BetaEnumerator en{wg, m, beta, max_results, &out, &seen, {}, {}, {}, 0, 0.0};
  for (NodeId v = 0; v < wg.graph.num_nodes(); ++v) {
    en.run_from(v);
  }
  return out;
}

LocalMwmResult local_mwm(const WeightedGraph& wg,
                         const LocalMwmOptions& opts) {
  const Graph& g = wg.graph;
  if (opts.beta < 1) throw std::invalid_argument("local_mwm: beta >= 1");
  const int walk_cap = 2 * opts.beta + 1;

  LocalMwmResult result;
  result.matching = Matching(g.num_nodes());
  const std::uint64_t max_phases =
      opts.max_phases != 0 ? opts.max_phases
                           : static_cast<std::uint64_t>(g.num_nodes()) + 16;

  std::uint64_t id_bits = 1;
  while ((std::uint64_t{1} << id_bits) < g.num_nodes() + 1) ++id_bits;

  for (std::uint64_t phase = 0; phase < max_phases; ++phase) {
    ++result.phases;
    // Algorithm 2 machinery: every node learns its radius-2L ball; we
    // account the real gossip (the enumeration below then uses only
    // information available inside those balls — an augmentation of
    // length <= L is contained in the ball of any of its vertices).
    const BallViews views =
        collect_balls(g, result.matching, 2 * walk_cap, opts.pool);
    result.stats.merge(views.stats);

    const std::vector<BetaAugmentation> augs = enumerate_beta_augmentations(
        wg, result.matching, opts.beta, opts.max_augmentations);
    if (augs.empty()) {
      result.converged = true;
      result.weight_trajectory.push_back(result.matching.weight(wg));
      break;
    }

    // Dominance selection: an augmentation is applied iff it has the
    // strictly largest (gain, tie-key) among all augmentations sharing
    // any vertex. Dominant augmentations are pairwise disjoint, and the
    // globally best one is always dominant => strict progress.
    auto key_less = [&](std::size_t a, std::size_t b) {
      if (augs[a].gain != augs[b].gain) return augs[a].gain < augs[b].gain;
      return augs[a].edges > augs[b].edges;  // deterministic tie-break
    };
    std::map<NodeId, std::size_t> best_at_vertex;
    for (std::size_t i = 0; i < augs.size(); ++i) {
      for (NodeId v : augs[i].nodes) {
        auto [it, inserted] = best_at_vertex.try_emplace(v, i);
        if (!inserted && key_less(it->second, i)) it->second = i;
      }
    }
    std::vector<EdgeId> to_flip;
    std::size_t applied = 0;
    for (std::size_t i = 0; i < augs.size(); ++i) {
      bool dominant = true;
      for (NodeId v : augs[i].nodes) {
        if (best_at_vertex.at(v) != i) {
          dominant = false;
          break;
        }
      }
      if (!dominant) continue;
      ++applied;
      to_flip.insert(to_flip.end(), augs[i].edges.begin(),
                     augs[i].edges.end());
    }
    result.matching.symmetric_difference(g, to_flip);
    result.weight_trajectory.push_back(result.matching.weight(wg));

    // Selection + application cost: leaders exchange augmentation
    // descriptions within distance 2L (already covered by the gossiped
    // views) and flip along at most L hops.
    NetStats apply;
    apply.rounds = static_cast<std::uint64_t>(walk_cap);
    for (std::size_t i = 0; i < applied; ++i) {
      for (int h = 0; h < walk_cap; ++h) {
        apply.note_message(id_bits);
      }
    }
    result.stats.merge(apply);
  }
  return result;
}

}  // namespace lps
