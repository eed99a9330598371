// Section 4 preliminaries: wrap(), the gain function g(), and the
// derived edge weights w_M. For an unmatched edge (r,s), wrap(r,s) is
// the length-<=3 augmenting structure {(M(r),r), (r,s), (s,M(s))} and
//   w_M(r,s) = g(wrap(r,s)) = w(r,s) - w(M(r),r) - w(s,M(s))
// (missing matched edges contribute 0); w_M is 0 on matched edges.
// Figure 2 of the paper is the worked example; it is reproduced verbatim
// in tests/ and bench/.
#pragma once

#include <vector>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

/// Derived weights w_M for every edge. When `stats` is non-null, the
/// exchange in which every matched node announces its 64-bit matched
/// edge weight to its neighbors (each endpoint then computes w_M
/// locally) is merged into it in closed form: 2 rounds (announce,
/// deliver), sum of deg(v) over matched v messages of 64 bits each.
/// `pool` is unused; it stays because perfbench/solver_bench.cpp passes
/// it positionally.
std::vector<double> gain_weights(const WeightedGraph& wg, const Matching& m,
                                 NetStats* stats = nullptr,
                                 ThreadPool* pool = nullptr);

/// wrap(e) w.r.t. m: e plus the matched edges at its endpoints.
/// Requires e unmatched (checked).
std::vector<EdgeId> wrap_edges(const Graph& g, const Matching& m, EdgeId e);

/// As above, appending wrap(e) to `out` instead of returning it.
void wrap_edges(const Graph& g, const Matching& m, EdgeId e,
                std::vector<EdgeId>& out);

/// Lemma 4.1: M <- M ⊕ (∪_{e in m_prime} wrap(e)). m_prime must be a
/// matching of unmatched edges (checked); the result is validated to be
/// a matching.
void apply_wraps(const Graph& g, Matching& m,
                 const std::vector<EdgeId>& m_prime);

}  // namespace lps
