// Algorithm 5 (Section 4): (1/2 - eps)-MWM by reduction to a black-box
// delta-MWM. Each iteration:
//   1. computes the derived gain weights w_M (one exchange round);
//   2. runs the black box on G' = (V, E, w_M) restricted to edges with
//      positive gain (a max-weight matching never benefits from
//      non-positive edges), obtaining M'; G' is a view of G (the gains
//      mark which edges exist), not a copy;
//   3. flips M <- M ⊕ ∪_{e in M'} wrap(e) (Lemma 4.1 guarantees the
//      result is a matching with w >= w(M) + w_M(M')).
// After ceil(3/(2 delta) ln(2/eps)) iterations, Lemma 4.3 gives
// w(M_i) >= (1 - e^{-2 delta i / 3}) w(M*) / 2 >= (1/2 - eps) w(M*).
// Theorem 4.5 plugs in delta = 1/5; our default black box is class_mwm
// (see DESIGN.md §4 for the substitution).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

/// A delta-MWM black box on G′ = (V, E, w_M), handed over as a view: g
/// and the gain per edge, where edges with w_M <= 0 are absent. Returns
/// a matching over g's nodes using only positive-gain edges
/// (weighted_mwm rejects any other edge); merges its round/bit
/// accounting into *stats when non-null.
using MwmBlackBox = std::function<Matching(
    const Graph& g, std::span<const double> gains, std::uint64_t seed,
    NetStats* stats)>;

/// The default black box: class_mwm (distributed, constant delta).
MwmBlackBox class_mwm_black_box(ThreadPool* pool = nullptr);

/// A sequential greedy black box (delta = 1/2, zero rounds): greedy_mwm
/// on G′ (heaviest positive-gain edge first, ties by edge id). Used by
/// tests to validate the reduction independently of black-box quality.
MwmBlackBox greedy_black_box();

struct WeightedMwmOptions {
  double eps = 0.1;
  double delta = 0.2;  // assumed black-box quality (paper: 1/5)
  std::uint64_t seed = 1;
  MwmBlackBox black_box;              // empty = class_mwm_black_box()
  std::uint64_t max_iterations = 0;   // 0 = ceil(3/(2 delta) ln(2/eps))
  ThreadPool* pool = nullptr;
};

struct WeightedMwmResult {
  Matching matching;
  NetStats stats;
  std::uint64_t iterations = 0;
  /// w(M_i) after every iteration — the Lemma 4.3 convergence curve.
  std::vector<double> weight_trajectory;
  /// True iff an iteration found no positive-gain edge (M is then
  /// locally optimal under length-3 augmentations) before the budget.
  bool converged_early = false;
};

WeightedMwmResult weighted_mwm(const WeightedGraph& wg,
                               const WeightedMwmOptions& opts = {});

/// Lemma 4.3's default iteration budget ceil(3/(2 delta) ln(2/eps)) —
/// the count weighted_mwm runs when max_iterations is 0. Saturates at
/// UINT64_MAX.
std::uint64_t weighted_mwm_iteration_budget(double delta, double eps);

}  // namespace lps
