// The bipartite CONGEST engine of Section 3.2:
//
//  * `bipartite_aug` — the subroutine Aug(H, M, l) used by Algorithm 4:
//    finds and applies a *maximal* set of vertex-disjoint augmenting
//    paths of length <= l, by iterating [Algorithm 3 counting -> token
//    selection (Lemma 3.7) -> traceback augmentation] until no free Y
//    node is reached. Every iteration augments at least one path (the
//    globally best token survives every meeting), and w.h.p. O(log N)
//    iterations suffice.
//
//  * `bipartite_mcm` — Theorem 3.8: the (1 - 1/(k+1))-MCM for bipartite
//    graphs, running Algorithm 1's phase loop l = 1, 3, ..., 2k-1 with
//    Aug as the per-phase engine. Messages are O(l log Delta + log n)
//    bits (counts, token values); rounds O(k^3 log Delta + k^2 log n).
//
// Token selection details (faithful to the paper, see DESIGN.md for the
// two documented substitutions — log-domain order-statistics sampling
// and staggered launches):
//  * every free Y node y with n_y > 0 paths draws the winner value of
//    its n_y paths and routes one token backwards, sampling each
//    backward edge with probability c_v[i]/n_v;
//  * tokens from depth-d(y) leaders launch at round l - d(y), so all
//    tokens cross a depth-d node in the same round and conflicts resolve
//    locally by keeping the best token;
//  * a token reaching a free X node traces back along its recorded
//    trail, flipping matched edges (the augmentation).
#pragma once

#include <vector>

#include "core/bipartite_counting.hpp"
#include "graph/matching.hpp"
#include "runtime/network_slot.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct AugOptions {
  std::uint64_t seed = 1;
  /// Iteration cap; 0 = auto (generous multiple of log of the conflict
  /// graph size bound n * Delta^{(l+1)/2}).
  std::uint64_t max_iterations = 0;
  ThreadPool* pool = nullptr;
};

struct AugResult {
  std::size_t paths_applied = 0;
  std::uint64_t iterations = 0;
  NetStats stats;
  bool converged = false;  // no augmenting path of length <= l remains
};

/// The token phase's round network (defined in bipartite_mcm.cpp).
class TokenNet;

/// Aug's per-node state: Algorithm 3's counting columns and Lemma 3.7's
/// token columns, plus the two round networks, which each Aug iteration
/// restarts instead of rebuilding and which share one set of stamp
/// tables (the token network runs on the counting network's). A solve
/// that calls Aug many times on one graph holds one scratch and passes
/// it to every call; each Aug iteration then clears only the nodes the
/// previous one reached instead of allocating O(n + m) state afresh. The
/// scratch records the graph it was built for: a call on another graph
/// rebuilds it.
struct AugScratch {
  /// Per-iteration token state of one node.
  struct Token {
    bool forwarded = false;
    NodeId forwarded_leader = kInvalidNode;
    EdgeId arrival_edge = kInvalidEdge;  // edge the winning token came in on
    EdgeId forward_edge = kInvalidEdge;  // edge it was sent out on
  };

  CountingResult counting;
  NetworkSlot<TokenNet> net;
  std::vector<Token> tok;
  std::vector<char> flipped;
  std::vector<EdgeId> new_match_edge;
  std::vector<std::vector<NodeId>> cohorts;  // reached nodes by action round
  std::vector<EdgeId> toggles;
  std::vector<NodeId> free;  // the mask form's free X nodes, per call
};

/// Applies a maximal set of disjoint augmenting paths of length <=
/// max_len (odd) to `m` in place. `side` must 2-color the active
/// subgraph (side 0 = X); `active_edges` empty means all edges, else
/// one entry per edge.
AugResult bipartite_aug(const Graph& g, const std::vector<std::uint8_t>& side,
                        Matching& m, int max_len,
                        const std::vector<char>& active_edges,
                        const AugOptions& opts, AugScratch& scratch);

/// The same, over a scratch of its own.
AugResult bipartite_aug(const Graph& g, const std::vector<std::uint8_t>& side,
                        Matching& m, int max_len,
                        const std::vector<char>& active_edges,
                        const AugOptions& opts = {});

/// Aug over Algorithm 4's Ĝ given as the on-demand view `h`, which must
/// read `m`. `free` must list every free node of `m` (it may list matched
/// ones; each counting pass drops them), so general_mcm keeps one list
/// per solve and no pass scans all n nodes for its sources.
AugResult bipartite_aug(const Graph& g, const BichromaticSubgraph& h,
                        Matching& m, int max_len, std::vector<NodeId>& free,
                        const AugOptions& opts, AugScratch& scratch);

struct BipartiteMcmOptions {
  int k = 3;  // target ratio 1 - 1/(k+1); paper states 1 - 1/k via l=2k-1
  std::uint64_t seed = 1;
  ThreadPool* pool = nullptr;
};

struct BipartitePhaseInfo {
  int l = 0;
  std::uint64_t iterations = 0;
  std::size_t paths_applied = 0;
};

struct BipartiteMcmResult {
  Matching matching;
  NetStats stats;
  std::vector<BipartitePhaseInfo> phases;
  bool converged = false;
};

/// Theorem 3.8 driver on a bipartite graph.
BipartiteMcmResult bipartite_mcm(const Graph& g,
                                 const std::vector<std::uint8_t>& side,
                                 const BipartiteMcmOptions& opts = {});

}  // namespace lps
