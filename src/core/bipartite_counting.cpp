#include "core/bipartite_counting.hpp"

#include <stdexcept>

#include "runtime/engine.hpp"

namespace lps {

namespace {

struct CountMessage {
  BigCounter count;
};

/// Bit meter: a real CONGEST implementation ships each count as
/// ceil(bits / chunk) chunks of O(log Delta) bits; we meter the full
/// serialized width so max_message_bits reflects Lemma 3.6's
/// O(l log Delta) bound.
struct CountBits {
  std::uint64_t operator()(const CountMessage& msg) const {
    return std::max<std::uint64_t>(msg.count.bit_size(), 1) + 2;
  }
};

using CountNet = SyncNetwork<CountMessage, CountBits>;

}  // namespace

CountingResult count_augmenting_paths(const Graph& g,
                                      const std::vector<std::uint8_t>& side,
                                      const Matching& m, int max_len,
                                      const std::vector<char>& active_edges,
                                      ThreadPool* pool, unsigned shards) {
  CountingResult out;
  count_augmenting_paths(g, side, m, max_len, active_edges, out, pool, shards);
  return out;
}

void count_augmenting_paths(const Graph& g,
                            const std::vector<std::uint8_t>& side,
                            const Matching& m, int max_len,
                            const std::vector<char>& active_edges,
                            CountingResult& out, ThreadPool* pool,
                            unsigned shards) {
  const NodeId n = g.num_nodes();
  const GraphStore& s = g.store();
  if (side.size() != n) {
    throw std::invalid_argument("count_augmenting_paths: side size");
  }
  if (max_len < 1 || max_len % 2 == 0) {
    throw std::invalid_argument("count_augmenting_paths: max_len must be odd");
  }
  if (!active_edges.empty() && active_edges.size() != g.num_edges()) {
    throw std::invalid_argument(
        "count_augmenting_paths: active_edges size mismatch");
  }
  auto active = [&](EdgeId e) {
    return active_edges.empty() || active_edges[e];
  };

  if (out.depth.size() != n || out.counts.size() != s.adj_to.size()) {
    out.depth.assign(n, kUnreached);
    out.counts.assign(s.adj_to.size(), BigCounter{});
    out.total.assign(n, BigCounter{});
    out.endpoint.assign(n, 0);
  } else {
    // Only the previous pass's reached nodes hold state.
    for (const NodeId v : out.reached) {
      out.depth[v] = kUnreached;
      out.total[v].clear();
      out.endpoint[v] = 0;
      for (std::uint64_t a = s.offsets[v]; a < s.offsets[v + 1]; ++a) {
        out.counts[a].clear();
      }
    }
  }
  out.reached.clear();

  CountNet net(g, /*seed=*/0, CountBits{});
  net.set_thread_pool(pool);
  net.set_shards(shards);

  // The BFS is message-driven: round 0 steps only the sources (the free
  // X nodes) and afterwards only the frontier — nodes with arriving
  // counts — is stepped, so a counting pass costs O(n + reached + sent)
  // instead of O(n * l + m * l).
  net.restrict_initial_active();
  for (NodeId v = 0; v < n; ++v) {
    if (side[v] == 0 && m.is_free(v)) net.activate(v);
  }
  auto step = [&](CountNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const auto nbrs = ctx.graph().neighbors(v);
    const std::uint64_t round = ctx.round();

    if (round == 0) {
      // A free X node starts the BFS.
      out.depth[v] = 0;
      out.total[v] = BigCounter(1);
      for (const auto& inc : nbrs) {
        if (active(inc.edge)) ctx.send(inc.edge, CountMessage{BigCounter(1)});
      }
      return;
    }

    if (out.depth[v] != kUnreached) return;  // visited: discard arrivals
    BigCounter* counts = out.counts.data() + s.offsets[v];
    bool any = false;
    for (const auto& in : ctx.inbox()) {
      if (!active(in.edge)) continue;
      if (!any) {
        any = true;
        out.depth[v] = static_cast<std::uint32_t>(round);
      }
      // The inbox slot IS the incidence position: accumulate directly.
      counts[in.slot] = in.payload->count;
      out.total[v] += in.payload->count;
    }
    if (!any) return;

    const bool is_x = side[v] == 0;
    const bool free = m.is_free(v);
    const bool may_send = round + 1 <= static_cast<std::uint64_t>(max_len);
    if (!is_x) {
      // Y node: structural sanity — Y arrivals happen at odd rounds.
      if (round % 2 == 0) {
        throw std::logic_error("counting: Y node reached at even depth");
      }
      if (free) {
        out.endpoint[v] = 1;  // terminal: paths of length `round` end here
        return;
      }
      if (may_send) {
        const EdgeId mate_edge = m.matched_edge(v);
        if (active(mate_edge)) {
          ctx.send(mate_edge, CountMessage{out.total[v]});
        }
      }
    } else {
      // Matched X node (free X have depth 0): arrives via its mate.
      if (round % 2 != 0) {
        throw std::logic_error("counting: X node reached at odd depth");
      }
      if (may_send) {
        const EdgeId mate_edge = m.matched_edge(v);
        for (const auto& inc : nbrs) {
          if (inc.edge != mate_edge && active(inc.edge)) {
            ctx.send(inc.edge, CountMessage{out.total[v]});
          }
        }
      }
    }
  };

  // Rounds 0..max_len: sends in 0..max_len-1, deliveries in 1..max_len.
  for (int r = 0; r <= max_len; ++r) net.run_round(step);
  out.stats = net.stats();
  for (NodeId v = 0; v < n; ++v) {
    if (out.depth[v] != kUnreached) out.reached.push_back(v);
  }
}

namespace {

/// DFS over alternating simple paths from free X nodes, counting those
/// that end at `target` with exactly `len` edges.
struct OracleSearch {
  const Graph& g;
  const std::vector<std::uint8_t>& side;
  const Matching& m;
  const std::vector<char>& active_edges;
  NodeId target;
  int len;
  std::vector<char> on_path;
  std::uint64_t found = 0;

  bool active(EdgeId e) const {
    return active_edges.empty() || active_edges[e];
  }

  void extend(NodeId cur, int used) {
    if (used == len) {
      if (cur == target) ++found;
      return;
    }
    const bool need_unmatched = (used % 2 == 0);
    if (need_unmatched) {
      for (const auto& inc : g.neighbors(cur)) {
        if (!active(inc.edge) || m.contains(g, inc.edge)) continue;
        if (on_path[inc.to]) continue;
        on_path[inc.to] = 1;
        extend(inc.to, used + 1);
        on_path[inc.to] = 0;
      }
    } else {
      const EdgeId e = m.matched_edge(cur);
      if (e == kInvalidEdge || !active(e)) return;
      const NodeId w = g.other_endpoint(e, cur);
      if (on_path[w]) return;
      on_path[w] = 1;
      extend(w, used + 1);
      on_path[w] = 0;
    }
  }
};

}  // namespace

std::uint64_t count_paths_oracle(const Graph& g,
                                 const std::vector<std::uint8_t>& side,
                                 const Matching& m, NodeId y, int len,
                                 const std::vector<char>& active_edges) {
  if (!m.is_free(y) || side[y] != 1) return 0;
  OracleSearch search{g,   side, m, active_edges, y,
                      len, std::vector<char>(g.num_nodes(), 0)};
  std::uint64_t total = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    if (side[x] != 0 || !m.is_free(x)) continue;
    search.found = 0;
    search.on_path[x] = 1;
    search.extend(x, 0);
    search.on_path[x] = 0;
    total += search.found;
  }
  return total;
}

}  // namespace lps
