// Hoepman's deterministic distributed 1/2-MWM (reference [11] of the
// paper: "a 1/2-MWM can be computed deterministically in O(n) time"),
// itself a distributed formulation of Preis's locally-heaviest-edge
// algorithm.
//
// Protocol (deterministic, no randomness at all):
//  * every free node points at its heaviest alive incident edge (ties
//    broken by edge id) and re-sends a request on it each round;
//  * when two nodes point at each other they both see the partner's
//    request while pointing — the edge joins the matching and both
//    endpoints send `drop` on all their other edges;
//  * a node whose pointed-at edge is dropped re-targets.
// The globally heaviest alive edge is always mutually pointed at, so
// progress is guaranteed; the increasing-weight path drives the protocol
// through Theta(n) rounds (the paper's motivation for preferring
// O(log n) randomized algorithms), which bench_theorems' BASE.b
// experiment demonstrates.
#pragma once

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct HoepmanOptions {
  ThreadPool* pool = nullptr;
};

struct HoepmanResult {
  Matching matching;
  NetStats stats;
  /// False when the 4n + 16 round budget ran out mid-protocol.
  bool converged = false;
};

HoepmanResult hoepman_mwm(const WeightedGraph& wg,
                          const HoepmanOptions& opts = {});

}  // namespace lps
