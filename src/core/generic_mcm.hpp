// Algorithm 1 (with Algorithm 2 as its Step 4): the generic
// (1-eps)-MCM for arbitrary graphs in the LOCAL model. Theorem 3.1:
// O(eps^-3 log n) rounds w.h.p., messages of O(|V|+|E|) bits.
//
// Phase structure, for l = 1, 3, ..., 2k-1 with k = ceil(1/eps):
//   1. Algorithm 2: every node gathers its radius-2l neighborhood
//      (collect_balls), message sizes metered.
//   2. Each free node enumerates the augmenting paths of length <= l it
//      leads, from its own view; the conflict graph C_M(l) follows.
//   3. Luby MIS on C_M(l); each conflict-graph round is charged l
//      physical rounds (Lemma 3.3's routing emulation).
//   4. The selected (pairwise disjoint) paths are flipped into M; the
//      application costs l rounds (Step 7 of Algorithm 1).
// After phase l the shortest augmenting path exceeds l (Lemma 3.4), so
// at termination |M| >= (1 - 1/(k+1)) |M*| (Lemma 3.5).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct GenericMcmOptions {
  double eps = 0.34;  // k = ceil(1/eps); eps = 0.34 -> k = 3, l up to 5
  std::uint64_t seed = 1;
  /// Step 5's MIS subroutine: Luby [20] (default) or Alon–Babai–Itai
  /// [1] — the two options the paper's Lemma 3.3 proof names.
  bool use_abi_mis = false;
  ThreadPool* pool = nullptr;
  /// If true, assert the Lemma 3.4 invariant after every phase using the
  /// exact bounded-path oracle (test mode; exponential in l).
  bool check_invariants = false;
};

struct GenericPhaseInfo {
  int l = 0;
  std::size_t conflict_nodes = 0;
  std::size_t conflict_edges = 0;
  std::size_t selected_paths = 0;
  std::uint64_t mis_rounds = 0;
};

struct GenericMcmResult {
  Matching matching;
  NetStats stats;  // physical rounds, incl. the Lemma 3.3 overlay charge
  std::vector<GenericPhaseInfo> phases;
};

GenericMcmResult generic_mcm(const Graph& g, const GenericMcmOptions& opts);

}  // namespace lps
