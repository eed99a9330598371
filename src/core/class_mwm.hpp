// Constant-factor distributed MWM in O(log n + log(w_max/w_min)) rounds:
// the stand-in for the delta-MWM black box of reference [18]
// (Lotker–Patt-Shamir–Rosén, PODC'07) that Algorithm 5 consumes. See
// DESIGN.md §4 for the substitution rationale — Algorithm 5's analysis
// (Lemma 4.3) only needs *some* constant delta and O(log n) rounds.
//
// Construction:
//  1. Partition edges into geometric weight classes
//     C_i = { e : w(e) in [base^i, base^{i+1}) }.
//  2. Run Israeli–Itai maximal matching on every class simultaneously —
//     the classes partition the edge set, so the per-class protocols use
//     disjoint channels and compose in parallel (rounds = max over
//     classes, messages summed). The simulation runs them one after
//     another on one IsraeliItaiClassRuns (DESIGN.md §4).
//  3. Survival sweep from the heaviest class down: an edge of M_i
//     survives iff no adjacent surviving edge lies in a strictly
//     heavier class. One round per class (survivors announce).
//
// The survivors form a matching whose weight is a constant fraction of
// the optimum (rounding to classes costs a factor base; cross-class
// kills cost a constant for geometric class weights); the benches
// measure delta ~= 0.5-0.65 on our workloads, comfortably above the 1/5
// the paper plugs into Algorithm 5.
#pragma once

#include <span>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct ClassMwmOptions {
  std::uint64_t seed = 1;
  double class_base = 2.0;  // geometric class growth factor (> 1)
  std::uint64_t max_phases_per_class = 0;  // Israeli–Itai cap; 0 = auto
  ThreadPool* pool = nullptr;
};

struct ClassMwmResult {
  Matching matching;
  NetStats stats;
  std::size_t num_classes = 0;
  bool converged = true;
};

/// The black box on a view of g: edge e has weight w[e] when w[e] > 0
/// and is absent otherwise (Algorithm 5 hands it G′ = (V, E, w_M) this
/// way, without copying the positive-gain subgraph). Node ids are g's
/// and the matching is over g.
ClassMwmResult class_mwm(const Graph& g, std::span<const double> w,
                         const ClassMwmOptions& opts = {});

ClassMwmResult class_mwm(const WeightedGraph& wg,
                         const ClassMwmOptions& opts = {});

}  // namespace lps
