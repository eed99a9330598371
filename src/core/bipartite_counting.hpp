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
// Counts are BigCounters: Lemma 3.6 bounds n_v by Delta^{ceil(d/2)},
// far beyond 64 bits. Message sizes are metered at the serialized
// chunked width the paper's pipeline would use.
#pragma once

#include <vector>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "util/bigint.hpp"

namespace lps {

inline constexpr std::uint32_t kUnreached = 0xffffffffu;

struct CountingResult {
  /// d(v): the round of first arrival (free X nodes have 0); kUnreached
  /// if the BFS never reached the node within max_len rounds.
  std::vector<std::uint32_t> depth;
  /// Arc-positioned: counts[offsets[v] + i] is the number of paths
  /// arriving at v on its i-th incidence (zero off the reached nodes).
  std::vector<BigCounter> counts;
  /// n_v = sum over v's slice of counts.
  std::vector<BigCounter> total;
  /// endpoint[v] == 1 iff v is a free Y node the BFS reached: each such
  /// node terminates n_v augmenting paths of length depth[v].
  std::vector<char> endpoint;
  /// The nodes the BFS reached (depth != kUnreached), ascending.
  std::vector<NodeId> reached;
  NetStats stats;

  bool is_path_endpoint(NodeId v) const { return endpoint[v] != 0; }
};

/// Run the counting BFS for paths of length <= max_len (odd). `side`
/// 2-colors the active subgraph (side 0 = X); `active_edges` restricts
/// to a logical subgraph (empty = all edges, else one entry per edge).
/// `m` is the current matching; matched edges outside the active set
/// must not exist between two active-incident nodes (Algorithm 4
/// guarantees this for Ĝ).
CountingResult count_augmenting_paths(const Graph& g,
                                      const std::vector<std::uint8_t>& side,
                                      const Matching& m, int max_len,
                                      const std::vector<char>& active_edges,
                                      ThreadPool* pool = nullptr,
                                      unsigned shards = 0);

/// The same pass into a caller-held result, for solves that run many
/// passes on one graph. `out` must be empty or come from an earlier
/// pass on `g`: the pass clears only the nodes that pass reached, so the
/// per-node columns are allocated once per solve rather than once per
/// pass. A count that fits in 64 bits owns no heap block, and a cleared
/// count that had spilled past 64 bits keeps its block for reuse.
void count_augmenting_paths(const Graph& g,
                            const std::vector<std::uint8_t>& side,
                            const Matching& m, int max_len,
                            const std::vector<char>& active_edges,
                            CountingResult& out, ThreadPool* pool = nullptr,
                            unsigned shards = 0);

/// Brute-force oracle: the number of augmenting paths of length exactly
/// `len` w.r.t. m ending at free Y node `y`, restricted to active edges.
/// Exponential; used by tests and the Figure 1 bench to validate counts.
std::uint64_t count_paths_oracle(const Graph& g,
                                 const std::vector<std::uint8_t>& side,
                                 const Matching& m, NodeId y, int len,
                                 const std::vector<char>& active_edges);

}  // namespace lps
