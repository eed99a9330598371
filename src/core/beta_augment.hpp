// Section 4's closing Remark: "(1-eps)-MWM can be obtained in
// O(eps^-4 log^2 n) time, using messages of linear size, by adapting the
// PRAM algorithm of Hougardy and Vinkemeier [14] to the distributed
// setting using Algorithm 2. Details are omitted..."
//
// This module supplies the adaptation. A *beta-augmentation* (after
// [14]/[24]) is an alternating path or cycle with at most `beta`
// unmatched edges whose flip M -> M ⊕ A keeps M a matching; its gain is
// the weight change. The paper's Lemma 4.2 (quoting [24]) implies that a
// matching with no positive beta-augmentation satisfies
//     w(M) >= beta/(beta+1) * w(M*),
// so iterating [enumerate -> select non-conflicting positive
// augmentations -> flip] to a fixed point yields a (1-eps)-MWM with
// beta = ceil(1/eps) - 1.
//
// Distributed realization follows Algorithm 2: each phase collects
// radius-2L balls (L = 2 beta + 1 bounds an augmentation's length),
// enumerates the augmentations it leads, and applies the *dominant* ones
// (strictly largest gain among all augmentations sharing a vertex, ties
// broken by a canonical key) — dominance makes the selected set
// vertex-disjoint without an MIS subroutine and guarantees the global
// best augmentation is always applied, so phases strictly improve until
// the fixed point. Messages are linear-size (whole neighborhoods), as
// the Remark says.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct BetaAugmentation {
  /// Edge set to flip; alternating path or cycle w.r.t. the matching.
  std::vector<EdgeId> edges;
  /// Vertices in walk order (cycles omit the repeated closing vertex).
  std::vector<NodeId> nodes;
  double gain = 0.0;
  bool is_cycle = false;
};

/// All positive-gain beta-augmentations w.r.t. m, deduplicated by edge
/// set. Exponential in beta; throws std::runtime_error past max_results.
std::vector<BetaAugmentation> enumerate_beta_augmentations(
    const WeightedGraph& wg, const Matching& m, int beta,
    std::size_t max_results);

struct LocalMwmOptions {
  int beta = 3;  // fixed point gives a beta/(beta+1)-approximation
  std::uint64_t max_phases = 0;  // 0 = auto (n + 16; each phase improves)
  std::size_t max_augmentations = 1u << 20;
  ThreadPool* pool = nullptr;
};

struct LocalMwmResult {
  Matching matching;
  NetStats stats;
  std::uint64_t phases = 0;
  /// True iff no positive beta-augmentation remains (the fixed point,
  /// certifying w(M) >= beta/(beta+1) w(M*) via Lemma 4.2).
  bool converged = false;
  std::vector<double> weight_trajectory;
};

LocalMwmResult local_mwm(const WeightedGraph& wg,
                         const LocalMwmOptions& opts = {});

}  // namespace lps
