#include "core/hoepman_mwm.hpp"

#include "runtime/engine.hpp"

namespace lps {

namespace {

enum class HoepType : std::uint8_t { kRequest, kDrop };

struct HoepMsg {
  HoepType type;
};

struct HoepBits {
  std::uint64_t operator()(const HoepMsg&) const noexcept { return 2; }
};

using HoepNet = SyncNetwork<HoepMsg, HoepBits>;

}  // namespace

HoepmanResult hoepman_mwm(const WeightedGraph& wg,
                          const HoepmanOptions& opts) {
  const Graph& g = wg.graph;
  const NodeId n = g.num_nodes();

  std::vector<EdgeId> matched_edge(n, kInvalidEdge);
  // Per-arc state at CSR arc positions (offsets[v] + i for v's i-th
  // incidence) — the layout the engine's inbox slots index, so a kDrop
  // arrival clears its flag without scanning the row. The incident-edge
  // weight rides in a parallel column so retargeting reads one
  // contiguous slice.
  const GraphStore& store = g.store();
  const std::vector<std::uint64_t>& adj_offset = store.offsets;
  std::vector<std::uint8_t> edge_alive(adj_offset[n], 1);
  std::vector<double> inc_weight(adj_offset[n]);
  for (std::size_t a = 0; a < inc_weight.size(); ++a) {
    inc_weight[a] = wg.weights[store.adj_edge[a]];
  }
  std::vector<EdgeId> target(n, kInvalidEdge);

  HoepNet net(g, /*seed=*/0, HoepBits{});
  net.set_thread_pool(opts.pool);

  // Active-set contract: a free node pointing at a live target re-issues
  // its request every round, so it keeps itself alive; a node whose
  // alive set is empty halts (its alive set can only shrink, via drops,
  // which arrive as messages and wake it); matched nodes drop out.
  auto step = [&](HoepNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const auto nbrs = ctx.graph().neighbors(v);

    // 1. Process drops (edges leaving the game); the inbox slot IS the
    // arc position, so each drop clears its flag directly.
    for (const auto& in : ctx.inbox()) {
      if (in.payload->type == HoepType::kDrop) {
        edge_alive[adj_offset[v] + in.slot] = 0;
      }
    }
    if (matched_edge[v] != kInvalidEdge) return;

    // 2. Retarget to the heaviest alive edge of this node's arc slice,
    // ranked by weight descending, then edge id ascending: a strict
    // total order, so ties between equal weights are deterministic.
    const std::uint64_t base = adj_offset[v];
    EdgeId best = kInvalidEdge;
    double best_w = 0.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (edge_alive[base + i] == 0) continue;
      const double w = inc_weight[base + i];
      const EdgeId e = nbrs[i].edge;
      if (best == kInvalidEdge || w > best_w || (w == best_w && e < best)) {
        best = e;
        best_w = w;
      }
    }
    target[v] = best;
    if (best == kInvalidEdge) return;  // no candidates left: halt

    // 3. Mutual request on the target => matched.
    bool partner_requests = false;
    for (const auto& in : ctx.inbox()) {
      if (in.payload->type == HoepType::kRequest && in.edge == best) {
        partner_requests = true;
        break;
      }
    }
    if (partner_requests) {
      matched_edge[v] = best;
      // Confirm on the matched edge: if the partner pointed at us first
      // and we match on its standing request before ever requesting,
      // this message is what lets it match one round later (a matched
      // node ignores stray requests, so the symmetric case is safe).
      ctx.send(best, HoepMsg{HoepType::kRequest});
      // Drop every other edge.
      for (const auto& inc : nbrs) {
        if (inc.edge != best) ctx.send(inc.edge, HoepMsg{HoepType::kDrop});
      }
      return;
    }
    // 4. (Re)issue the request; persistent pointing keeps the protocol
    // symmetric: the round after both endpoints point at each other,
    // both see the partner's request.
    ctx.send(best, HoepMsg{HoepType::kRequest});
    ctx.keep_active();
  };

  const std::uint64_t max_rounds = 4ull * n + 16;
  HoepmanResult result;
  const std::uint64_t used = net.run(max_rounds, /*stop_when_silent=*/true,
                                     step);
  result.converged = used < max_rounds || net.last_round_deliveries() == 0;
  result.stats = net.stats();
  std::vector<EdgeId> ids;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = matched_edge[v];
    if (e != kInvalidEdge && g.edge(e).u == v) ids.push_back(e);
  }
  result.matching = Matching::from_edges(g, ids);
  return result;
}

}  // namespace lps
