#include "core/local_ball.hpp"

#include <unordered_set>

#include "runtime/engine.hpp"

namespace lps {

namespace {

struct GossipMessage {
  std::vector<LabeledEdge> edges;
};

/// Bits per edge description: two node ids of ceil(log2 n) bits plus
/// the matched flag (the serialization a real implementation would use).
struct GossipBits {
  std::uint64_t id_bits;
  std::uint64_t operator()(const GossipMessage& msg) const {
    return static_cast<std::uint64_t>(msg.edges.size()) * (2 * id_bits + 1);
  }
};

using GossipNet = SyncNetwork<GossipMessage, GossipBits>;

}  // namespace

BallViews collect_balls(const Graph& g, const Matching& m, int radius,
                        ThreadPool* pool) {
  const NodeId n = g.num_nodes();
  std::uint64_t id_bits = 1;
  while ((std::uint64_t{1} << id_bits) < n) ++id_bits;

  BallViews out;
  out.view.assign(n, {});
  std::vector<std::unordered_set<std::uint64_t>> known(n);
  std::vector<std::vector<LabeledEdge>> delta(n);
  auto edge_key = [](const LabeledEdge& e) {
    return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
  };

  // Seed: every node knows its incident edges.
  for (NodeId v = 0; v < n; ++v) {
    for (const Graph::Incidence& inc : g.neighbors(v)) {
      const Edge& ed = g.edge(inc.edge);
      const LabeledEdge le{ed.u, ed.v, m.contains(g, inc.edge)};
      if (known[v].insert(edge_key(le)).second) {
        out.view[v].push_back(le);
        delta[v].push_back(le);
      }
    }
  }

  GossipNet net(g, /*seed=*/0, GossipBits{id_bits});
  net.set_thread_pool(pool);

  // Purely message-driven after the round-0 seed flood (a node with no
  // arrivals has nothing fresh to forward), so the active-set default —
  // everyone in round 0, receivers afterwards — needs no keep_active.
  auto step = [&](GossipNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    // Absorb what neighbors forwarded last round.
    std::vector<LabeledEdge> fresh;
    for (const auto& in : ctx.inbox()) {
      for (const LabeledEdge& le : in.payload->edges) {
        if (known[v].insert(edge_key(le)).second) {
          out.view[v].push_back(le);
          fresh.push_back(le);
        }
      }
    }
    // Forward this round's delta (round 0 forwards the seed). A message
    // sent in round r is delivered in round r+1, so information from
    // distance d arrives during round d; sends are useful through round
    // radius-1 and round `radius` is receive-only.
    std::vector<LabeledEdge>& to_send =
        ctx.round() == 0 ? delta[v] : fresh;
    const bool may_send = ctx.round() < static_cast<std::uint64_t>(radius);
    if (!to_send.empty() && may_send) {
      ctx.send_all(GossipMessage{to_send});
    }
    if (ctx.round() != 0) delta[v] = std::move(fresh);
  };

  if (radius > 0) {
    for (int r = 0; r <= radius; ++r) net.run_round(step);
  }
  out.stats = net.stats();
  return out;
}

}  // namespace lps
