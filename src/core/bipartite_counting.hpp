// Algorithm 3: counting augmenting paths in bipartite graphs by a
// synchronized layered BFS from all free X-nodes (Section 3.2, Fig. 1).
//
// Round 0: every free X node sends 1 to all (active) neighbors.
// A node records the counts arriving in the *first* round it receives
// anything (c_v[i] per incident edge i; n_v = sum). Matched Y nodes
// forward n_v to their mate; X nodes forward n_v to their unmatched
// neighbors; free Y nodes are terminals (each completed arrival is an
// augmenting path). Later arrivals are discarded — they correspond to
// non-shortest paths through already-visited nodes (the "back-arrows"
// of Figure 1).
//
// Lemma 3.6 bounds n_v by Delta^{ceil(d/2)}, which can pass 64 bits, so
// the totals n_v are BigCounters. A count travels, and sits in the
// per-arc count column, as one word: the count itself below 2^63, else a
// marker for "the sender's total" (see CountingResult::counts). Message
// sizes are metered at the serialized chunked width the paper's pipeline
// would use.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/matching.hpp"
#include "runtime/network_slot.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "util/bigint.hpp"
#include "util/rng.hpp"

namespace lps {

inline constexpr std::uint32_t kUnreached = 0xffffffffu;

/// The counting pass's round network (defined in bipartite_counting.cpp).
class CountNet;
class EngineTables;

/// The logical bipartite subgraph a counting pass runs on, as masks:
/// `side` 2-colors it (side 0 = X) and `active_edges` holds one entry per
/// edge (empty = every edge).
class MaskedSubgraph {
 public:
  /// Throws std::invalid_argument unless `side` has one entry per node of
  /// `g` and `active_edges` is empty or has one entry per edge.
  MaskedSubgraph(const Graph& g, const std::vector<std::uint8_t>& side,
                 const std::vector<char>& active_edges);

  std::uint8_t side(NodeId v) const noexcept { return side_[v]; }
  bool active(EdgeId e) const noexcept {
    return active_edges_.empty() || active_edges_[e] != 0;
  }
  /// active(e), for an edge e leaving a node of the subgraph whose side is
  /// side_v, towards w (the form the counting step asks in).
  bool active_from(std::uint8_t /*side_v*/, EdgeId e,
                   NodeId /*w*/) const noexcept {
    return active(e);
  }

 private:
  const std::vector<std::uint8_t>& side_;
  const std::vector<char>& active_edges_;
};

/// Algorithm 4's Ĝ for one iteration (Section 3.3, lines 3-4), evaluated
/// only where a pass asks: a node's color (its side; red = 0 = X) is
/// Rng::substream(seed, iter, v).coin(), V̂ holds the free nodes and the
/// endpoints of bichromatic matched edges, and Ê the bichromatic edges
/// with both endpoints in V̂. Every predicate reads only the graph and
/// the matching, so steps may evaluate it in parallel. Augmenting along
/// paths of Ĝ keeps V̂ and Ê as they were (every node on such a path ends
/// matched across colors), so one view serves a whole Aug call while the
/// matching it reads changes between Aug iterations.
class BichromaticSubgraph {
 public:
  BichromaticSubgraph(const Graph& g, const Matching& m, std::uint64_t seed,
                      std::uint64_t iter) noexcept
      : store_(&g.store()), m_(&m), prefix_(prefix(seed, iter)) {}

  /// Rng::substream(seed, iter, v).coin() in closed form (three SplitMix64
  /// steps per node instead of seeding a generator).
  static std::uint8_t color(std::uint64_t seed, std::uint64_t iter,
                            NodeId v) noexcept {
    return color_at(prefix(seed, iter), v);
  }

  std::uint8_t side(NodeId v) const noexcept { return color_at(prefix_, v); }

  /// v ∈ V̂, for a node whose color `side_v` is already known.
  bool in_v_hat(NodeId v, std::uint8_t side_v) const noexcept {
    const EdgeId me = m_->matched_edge(v);
    if (me == kInvalidEdge) return true;
    const NodeId mate = store_->edge_u[me] ^ store_->edge_v[me] ^ v;
    return side(mate) != side_v;
  }

  /// e ∈ Ê.
  bool active(EdgeId e) const noexcept {
    const NodeId u = store_->edge_u[e];
    const NodeId w = store_->edge_v[e];
    const std::uint8_t su = side(u);
    const std::uint8_t sw = side(w);
    return su != sw && in_v_hat(u, su) && in_v_hat(w, sw);
  }

  /// e ∈ Ê, for an edge e leaving a node of V̂ with color side_v, towards
  /// w: only w's side of the edge is left to evaluate.
  bool active_from(std::uint8_t side_v, EdgeId /*e*/, NodeId w) const noexcept {
    const std::uint8_t sw = side(w);
    return sw != side_v && in_v_hat(w, sw);
  }

 private:
  /// The substream's hash of (seed, iter), shared by every node.
  static std::uint64_t prefix(std::uint64_t seed, std::uint64_t iter) noexcept {
    return splitmix64(splitmix64(seed) ^ iter);
  }
  /// The substream hashes in v; Rng's seeding turns that into state words
  /// s0 = splitmix64(h), s1 = splitmix64(s0); the first xoshiro256**
  /// output is rotl(5 * s1, 7) * 9, whose low bit (coin()) is bit 57 of
  /// 5 * s1.
  static std::uint8_t color_at(std::uint64_t prefix, NodeId v) noexcept {
    const std::uint64_t s1 =
        splitmix64(splitmix64(splitmix64(prefix ^ std::uint64_t{v})));
    return static_cast<std::uint8_t>(((s1 * 5) >> 57) & 1);
  }

  const GraphStore* store_;
  const Matching* m_;
  std::uint64_t prefix_;
};

struct CountingResult {
  /// d(v): the round of first arrival (free X nodes have 0); kUnreached
  /// if the BFS never reached the node within max_len rounds.
  std::vector<std::uint32_t> depth;
  /// Arc-positioned: counts[offsets[v] + i] is the number of paths
  /// arriving at v on its i-th incidence (zero off the reached nodes)
  /// when it is below kSpilled. An entry with that bit set stands for a
  /// count of 2^63 or more, which is the sender's total, and its low bits
  /// hold the count's bit size; count_at() reads either kind.
  std::vector<std::uint64_t> counts;
  /// n_v = sum over v's slice of counts.
  std::vector<BigCounter> total;
  /// endpoint[v] == 1 iff v is a free Y node the BFS reached: each such
  /// node terminates n_v augmenting paths of length depth[v].
  std::vector<char> endpoint;
  /// The nodes the BFS reached (depth != kUnreached), ascending.
  std::vector<NodeId> reached;
  NetStats stats;

  /// The pass's round network, restarted by the next pass on the same
  /// graph. It records the graph it was built for: a pass on another
  /// graph rebuilds every column.
  NetworkSlot<CountNet> net;
  /// One bit per node, all zero between passes: a pass marks the nodes
  /// it reaches here and reads them back in ascending order.
  std::vector<std::uint64_t> reached_bits;

  /// The top bit of a spilled counts entry.
  static constexpr std::uint64_t kSpilled = std::uint64_t{1} << 63;

  bool is_path_endpoint(NodeId v) const { return endpoint[v] != 0; }
  /// The count at arc `a` of g (counts' indexing): a count on an arc
  /// into v is the total of the node at its far end.
  BigCounter count_at(const Graph& g, std::uint64_t a) const {
    const std::uint64_t word = counts[a];
    return word < kSpilled ? BigCounter(word) : total[g.store().adj_to[a]];
  }
  /// True when the columns and the network were built for g's store, so
  /// a pass on g reuses them.
  bool built_for(const Graph& g) const;
  /// The counting network's stamp tables, for a network that alternates
  /// runs with the passes (Aug's token phase); requires a pass to have
  /// built the network.
  const std::shared_ptr<EngineTables>& tables() const;
};

/// Run the counting BFS for paths of length <= max_len (odd). `side`
/// 2-colors the active subgraph (side 0 = X); `active_edges` restricts
/// to a logical subgraph (empty = all edges, else one entry per edge).
/// `m` is the current matching; matched edges outside the active set
/// must not exist between two active-incident nodes (Algorithm 4
/// guarantees this for Ĝ). Builds a network of its own.
CountingResult count_augmenting_paths(const Graph& g,
                                      const std::vector<std::uint8_t>& side,
                                      const Matching& m, int max_len,
                                      const std::vector<char>& active_edges,
                                      ThreadPool* pool = nullptr);

/// The same pass into a caller-held result, for solves that run many
/// passes. A result last used on `g` keeps its per-node columns and its
/// network: the pass clears only the nodes the previous pass reached and
/// restarts the network. A result that is new, copied, or last used on
/// another graph is rebuilt for `g`. A total that fits in 64 bits owns
/// no heap block, and a cleared total that had spilled past 64 bits
/// keeps its block for reuse.
void count_augmenting_paths(const Graph& g,
                            const std::vector<std::uint8_t>& side,
                            const Matching& m, int max_len,
                            const std::vector<char>& active_edges,
                            CountingResult& out, ThreadPool* pool = nullptr);

/// The pass both forms above run, over Ĝ given as masks or as Algorithm
/// 4's on-demand view. `free` must list every free node of `m` on side X
/// (it may list other nodes, and the pass drops the matched ones), so a
/// solve that keeps one list starts each pass from the free nodes rather
/// than from all n. Instantiated for MaskedSubgraph and
/// BichromaticSubgraph.
template <typename Subgraph>
void count_augmenting_paths(const Graph& g, const Subgraph& h,
                            const Matching& m, int max_len,
                            std::vector<NodeId>& free, CountingResult& out,
                            ThreadPool* pool = nullptr);

/// Brute-force oracle: the number of augmenting paths of length exactly
/// `len` w.r.t. m ending at free Y node `y`, restricted to active edges.
/// Exponential; used by tests and the Figure 1 bench to validate counts.
std::uint64_t count_paths_oracle(const Graph& g,
                                 const std::vector<std::uint8_t>& side,
                                 const Matching& m, NodeId y, int len,
                                 const std::vector<char>& active_edges);

}  // namespace lps
