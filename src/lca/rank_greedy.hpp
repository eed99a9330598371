// Greedy maximal matching over a seed-derived random edge order, in two
// equivalent forms:
//
//  * rank_greedy_matching — the global execution: scan edges by
//    increasing rank, add when both endpoints are free. A classical
//    1/2-approximate maximal matching.
//  * RankGreedyOracle — the Nguyen-Onak / Yoshida-Yamamoto-Ito local
//    simulation of the same fixpoint: e is matched iff no adjacent edge
//    of smaller rank is matched, evaluated by recursing only along
//    rank-decreasing chains. With random ranks the expected number of
//    probed edges per query is bounded by a function of the degree
//    alone — independent of n — which is the subsystem's headline
//    sublinear bound (bench_lca measures it).
//
// Both draw the rank of edge e as the first output of
// Rng::substream(seed, kRankGreedySalt, e), so the oracle's answers and
// the global matching are the same deterministic function of
// (graph, seed).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/matching.hpp"
#include "lca/graph_access.hpp"
#include "lca/lru_cache.hpp"
#include "lca/oracle.hpp"
#include "util/rng.hpp"

namespace lps::lca {

inline constexpr std::uint64_t kRankGreedySalt = 0x1ca9afebull;

/// The random rank of edge e under `seed`; ties (negligible at 64 bits)
/// break by edge id, so the order is always total.
inline std::uint64_t edge_rank(std::uint64_t seed, EdgeId e) noexcept {
  return Rng::substream(seed, kRankGreedySalt, std::uint64_t{e})();
}

/// The global execution: greedy over edges sorted by (rank, id).
Matching rank_greedy_matching(const Graph& g, std::uint64_t seed);

class RankGreedyOracle final : public MatchingOracle {
 public:
  RankGreedyOracle(const Graph& g, const OracleOptions& opts);

  std::string name() const override { return "rank_greedy_mcm"; }
  NodeId matched_to(NodeId v) override;
  bool in_matching(EdgeId e) override;
  OracleStats stats() const override;

 private:
  /// The memoized fixpoint: e matched iff every adjacent lower-rank
  /// edge is unmatched. Iterative (explicit stack): ranks strictly
  /// decrease down a dependency chain, so the walk terminates without
  /// bounding the C++ stack.
  bool evaluate(EdgeId e);

  /// Adjacent edges of strictly smaller rank, sorted by ascending rank
  /// (evaluating the smallest first fails fast: it is the likeliest to
  /// be matched). Metered.
  std::vector<EdgeId> lower_ranked_neighbors(EdgeId e);

  GraphAccess access_;
  std::uint64_t seed_;
  LruCache<EdgeId, bool> memo_;
  std::uint64_t queries_ = 0;
};

}  // namespace lps::lca
