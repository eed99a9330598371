#include "core/bipartite_counting.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "runtime/engine.hpp"

namespace lps {

namespace {

constexpr std::uint64_t kSpilled = CountingResult::kSpilled;

/// A count in flight, as one word: the count itself below 2^63;
/// otherwise kSpilled plus the count's bit size, which is all the meter
/// needs, and the receiver reads the count from the sender's total. That
/// read races with nothing: a node writes its total once, in its arrival
/// round, before it sends, and a reached node never writes it again.
struct CountMessage {
  std::uint64_t word;
};

std::uint64_t on_wire(const BigCounter& count) {
  const std::size_t bits = count.bit_size();
  return bits < 64 ? count.to_u64() : kSpilled | bits;
}

/// Bit meter: a real CONGEST implementation ships each count as
/// ceil(bits / chunk) chunks of O(log Delta) bits; we meter the full
/// serialized width so max_message_bits reflects Lemma 3.6's
/// O(l log Delta) bound.
struct CountBits {
  std::uint64_t operator()(const CountMessage& msg) const noexcept {
    const std::uint64_t bits = msg.word < kSpilled
                                   ? std::bit_width(msg.word)
                                   : msg.word & ~kSpilled;
    return std::max<std::uint64_t>(bits, 1) + 2;
  }
};

}  // namespace

class CountNet : public SyncNetwork<CountMessage, CountBits> {
 public:
  using SyncNetwork::SyncNetwork;
};

MaskedSubgraph::MaskedSubgraph(const Graph& g,
                               const std::vector<std::uint8_t>& side,
                               const std::vector<char>& active_edges)
    : side_(side), active_edges_(active_edges) {
  if (side.size() != g.num_nodes()) {
    throw std::invalid_argument("MaskedSubgraph: side needs one entry per node");
  }
  if (!active_edges.empty() && active_edges.size() != g.num_edges()) {
    throw std::invalid_argument(
        "MaskedSubgraph: active_edges needs one entry per edge, or none");
  }
}

bool CountingResult::built_for(const Graph& g) const {
  return net.get() != nullptr && &net.get()->graph().store() == &g.store();
}

const std::shared_ptr<EngineTables>& CountingResult::tables() const {
  return net.get()->tables();
}

CountingResult count_augmenting_paths(const Graph& g,
                                      const std::vector<std::uint8_t>& side,
                                      const Matching& m, int max_len,
                                      const std::vector<char>& active_edges,
                                      ThreadPool* pool) {
  CountingResult out;
  count_augmenting_paths(g, side, m, max_len, active_edges, out, pool);
  return out;
}

void count_augmenting_paths(const Graph& g,
                            const std::vector<std::uint8_t>& side,
                            const Matching& m, int max_len,
                            const std::vector<char>& active_edges,
                            CountingResult& out, ThreadPool* pool) {
  const MaskedSubgraph h(g, side, active_edges);
  // This entry point holds no list of free nodes across calls.
  std::vector<NodeId> free;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (side[v] == 0 && m.is_free(v)) free.push_back(v);
  }
  count_augmenting_paths(g, h, m, max_len, free, out, pool);
}

template <typename Subgraph>
void count_augmenting_paths(const Graph& g, const Subgraph& h,
                            const Matching& m, int max_len,
                            std::vector<NodeId>& free, CountingResult& out,
                            ThreadPool* pool) {
  const NodeId n = g.num_nodes();
  const GraphStore& s = g.store();
  if (max_len < 1 || max_len % 2 == 0) {
    throw std::invalid_argument("count_augmenting_paths: max_len must be odd");
  }

  CountNet* net = out.net.get();
  if (!out.built_for(g)) {
    // New, copied, or last used on another graph: build it all for g.
    out.depth.assign(n, kUnreached);
    out.counts.assign(s.adj_to.size(), 0);
    out.total.assign(n, BigCounter{});
    out.endpoint.assign(n, 0);
    out.reached_bits.assign((std::size_t{n} + 63) / 64, 0);
    out.reached.clear();
    net = &out.net.emplace(g, /*seed=*/0, CountBits{});
  } else {
    // Only the previous pass's reached nodes hold state.
    for (const NodeId v : out.reached) {
      out.depth[v] = kUnreached;
      out.total[v].clear();
      out.endpoint[v] = 0;
      std::fill(out.counts.begin() + s.offsets[v],
                out.counts.begin() + s.offsets[v + 1], 0);
    }
    out.reached.clear();
    net->reset(/*seed=*/0);
  }
  net->set_thread_pool(pool);

  // The BFS is message-driven: round 0 steps only the sources (the free
  // X nodes, taken from `free`, which sheds the nodes matched since) and
  // afterwards only the frontier — nodes with arriving counts — is
  // stepped, so a counting pass costs O(|free| + reached + sent + n/64).
  net->restrict_initial_active();
  std::size_t kept = 0;
  for (const NodeId v : free) {
    if (!m.is_free(v)) continue;
    free[kept++] = v;
    if (h.side(v) == 0) net->activate(v);
  }
  free.resize(kept);

  auto step = [&](CountNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const auto nbrs = ctx.graph().neighbors(v);
    const std::uint64_t round = ctx.round();

    if (round == 0) {
      // A free X node starts the BFS.
      out.depth[v] = 0;
      out.total[v] = BigCounter(1);
      for (const auto& inc : nbrs) {
        if (h.active_from(0, inc.edge, inc.to)) {
          ctx.send(inc.edge, CountMessage{1});
        }
      }
      return;
    }

    if (out.depth[v] != kUnreached) return;  // visited: discard arrivals
    // Stepped after round 0 means counts arrived, and every one came over
    // an edge of the subgraph: nothing is sent on any other edge.
    out.depth[v] = static_cast<std::uint32_t>(round);
    std::uint64_t* counts = out.counts.data() + s.offsets[v];
    BigCounter& total = out.total[v];
    for (const auto& in : ctx.inbox()) {
      // The inbox slot IS the incidence position: accumulate directly.
      const std::uint64_t word = in.payload->word;
      counts[in.slot] = word;
      if (word < kSpilled) {
        total += word;
      } else {
        total += out.total[in.from];
      }
    }

    const bool is_x = h.side(v) == 0;
    const bool free_v = m.is_free(v);
    const bool may_send = round + 1 <= static_cast<std::uint64_t>(max_len);
    if (!is_x) {
      // Y node: structural sanity — Y arrivals happen at odd rounds.
      if (round % 2 == 0) {
        throw std::logic_error("counting: Y node reached at even depth");
      }
      if (free_v) {
        out.endpoint[v] = 1;  // terminal: paths of length `round` end here
        return;
      }
      if (may_send) {
        const EdgeId mate_edge = m.matched_edge(v);
        if (h.active_from(1, mate_edge, g.other_endpoint(mate_edge, v))) {
          ctx.send(mate_edge, CountMessage{on_wire(total)});
        }
      }
    } else {
      // Matched X node (free X have depth 0): arrives via its mate.
      if (round % 2 != 0) {
        throw std::logic_error("counting: X node reached at odd depth");
      }
      if (may_send) {
        const EdgeId mate_edge = m.matched_edge(v);
        const CountMessage msg{on_wire(total)};
        for (const auto& inc : nbrs) {
          if (inc.edge != mate_edge && h.active_from(0, inc.edge, inc.to)) {
            ctx.send(inc.edge, msg);
          }
        }
      }
    }
  };

  // Rounds 0..max_len: sends in 0..max_len-1, deliveries in 1..max_len.
  // A node is stepped in the round its first counts arrive (round 0 for
  // the sources), which is its depth, so depth == r names each reached
  // node exactly once among round r's stepped nodes.
  std::uint64_t* marks = out.reached_bits.data();
  for (int r = 0; r <= max_len; ++r) {
    net->run_round(step);
    for (const NodeId v : net->last_round_active()) {
      if (out.depth[v] == static_cast<std::uint32_t>(r)) {
        marks[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
    }
  }
  out.stats = net->stats();
  // Read the marks back word by word: ascending in O(reached + n/64),
  // leaving every word zero for the next pass.
  for (std::size_t w = 0; w < out.reached_bits.size(); ++w) {
    for (std::uint64_t word = marks[w]; word != 0; word &= word - 1) {
      out.reached.push_back(
          static_cast<NodeId>(w * 64 + std::countr_zero(word)));
    }
    marks[w] = 0;
  }
}

template void count_augmenting_paths<MaskedSubgraph>(
    const Graph&, const MaskedSubgraph&, const Matching&, int,
    std::vector<NodeId>&, CountingResult&, ThreadPool*);
template void count_augmenting_paths<BichromaticSubgraph>(
    const Graph&, const BichromaticSubgraph&, const Matching&, int,
    std::vector<NodeId>&, CountingResult&, ThreadPool*);

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
