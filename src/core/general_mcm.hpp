// Algorithm 4 (Section 3.3): (1-1/k)-MCM for general graphs by repeated
// random bipartition. Each iteration colors every vertex red or blue
// uniformly, forms the logical bipartite subgraph
//    V̂ = { free vertices } ∪ { endpoints of bichromatic matched edges }
//    Ê = bichromatic edges of E with both endpoints in V̂,
// and runs Aug(Ĝ, M, 2k-1) (the Section 3.2 engine). Colors and Ĝ are
// evaluated only where Aug's counting BFS goes (BichromaticSubgraph,
// DESIGN.md §3), so an iteration costs its frontier. Observation 3.1
// makes every augmentation valid in G; Lemma 3.9/3.10 show that
// 2^{2k+1}(k+1) ln k iterations reach a (1-1/k)-approximation w.h.p.
// (Theorem 3.11).
//
// Besides the paper-faithful fixed budget we provide an adaptive mode
// (documented in DESIGN.md): stop early when an exact-MCM oracle
// certifies the target ratio, or after a long streak of iterations that
// found no augmenting path.
#pragma once

#include <vector>

#include "core/bipartite_mcm.hpp"
#include "graph/matching.hpp"

namespace lps {

struct GeneralMcmOptions {
  int k = 3;  // target ratio 1 - 1/k, k > 2 per the paper
  std::uint64_t seed = 1;

  enum class Mode { kPaper, kAdaptive };
  Mode mode = Mode::kAdaptive;

  /// Iteration override; 0 = the paper budget ceil(2^{2k+1} (k+1) ln k).
  std::uint64_t max_iterations = 0;
  /// Adaptive: stop after this many consecutive empty iterations
  /// (0 = auto: 2^{2k+1}).
  std::uint64_t empty_streak_stop = 0;
  /// Adaptive: optimum size for early exit once |M| >= (1-1/k)|M*|.
  std::size_t oracle_optimum_size = 0;

  ThreadPool* pool = nullptr;
};

struct GeneralMcmResult {
  Matching matching;
  NetStats stats;
  std::uint64_t iterations = 0;
  std::uint64_t paper_budget = 0;
  std::size_t paths_applied = 0;
  bool stopped_early = false;
};

GeneralMcmResult general_mcm(const Graph& g, const GeneralMcmOptions& opts);

/// The paper's iteration budget 2^{2k+1}(k+1) ln k, rounded up.
std::uint64_t general_mcm_paper_budget(int k);

}  // namespace lps
