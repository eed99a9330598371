// Randomized distributed maximal matching in the style of Israeli & Itai
// (1986), reference [15] of the paper: the classical 1/2-MCM baseline in
// O(log n) rounds w.h.p. that the paper's Section 3 improves on.
//
// Protocol (3 rounds per phase):
//   stage 0: every free node flips a coin; heads-nodes ("proposers") send
//            a proposal to one free neighbor chosen uniformly at random.
//   stage 1: every free tails-node ("acceptor") that received proposals
//            picks one uniformly and sends an accept; it is now matched
//            and announces this to its other neighbors.
//   stage 2: a proposer receiving an accept is matched and announces.
// A node stops once it is matched or has no free neighbors; the run ends
// when the network goes silent, at which point the matching is maximal.
//
// The proposer/acceptor coin removes all accept conflicts (a proposer
// proposes to exactly one node, so it can receive at most one accept and
// never accepts itself).
#pragma once

#include <optional>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct IsraeliItaiOptions {
  std::uint64_t seed = 1;
  /// Hard cap on phases (3 rounds each); 0 picks 40 + 12*ceil(log2(n+1)).
  std::uint64_t max_phases = 0;
  /// Restrict the run to a logical subgraph: inactive edges are treated
  /// as absent. Empty = all edges active. A masked run's round 0 steps
  /// only the endpoints of active edges (the same execution bit for bit).
  std::vector<char> active_edges;
  /// Start from this matching instead of the empty one (its endpoints
  /// count as already matched).
  std::optional<Matching> initial;
  ThreadPool* pool = nullptr;
  /// Round-engine shard count (0 = auto-size to the L2 cache, 1 =
  /// single shard). Bit-identical results for any value.
  unsigned shards = 0;
  /// Step every node every round instead of the active set (same
  /// execution bit for bit; costs O(n) per round instead of O(free
  /// nodes + traffic)). Exposed for the equivalence test.
  bool step_all_nodes = false;
  /// Fault-injection spec ("" = fault-free): a preset name or an
  /// explicit `name:key=value,...` plan (src/faults). Message faults
  /// apply at the engine's channel exchange; after the round budget a
  /// reconciliation/resync loop repairs half-committed handshakes (a
  /// dropped accept leaves an acceptor matched to a proposer that never
  /// learned of it) by freeing the disagreeing vertices, re-opening
  /// exactly their neighborhoods, and running more phases — never by
  /// restarting. The returned matching is valid under any fault rate;
  /// maximality is best-effort once messages can be lost.
  std::string faults;
  /// Cap on resync sweeps (each sweep: reconcile + a burst of phases).
  std::uint32_t max_resyncs = 8;
};

struct DistMatchingResult {
  Matching matching;
  NetStats stats;
  /// True iff the protocol went silent (matching maximal on the active
  /// subgraph) before the phase cap.
  bool converged = false;
  /// Resync sweeps that found (and repaired) half-committed handshakes;
  /// always 0 in fault-free runs.
  std::uint32_t resyncs = 0;
};

DistMatchingResult israeli_itai(const Graph& g,
                                const IsraeliItaiOptions& opts = {});

/// The phase budget used when max_phases == 0: 40 + 12 ceil(log2(n+1)),
/// comfortably past the O(log n) w.h.p. convergence point. Exported so
/// the lca oracle simulates exactly the budget the solver runs.
std::uint64_t israeli_itai_default_max_phases(NodeId n);

}  // namespace lps
