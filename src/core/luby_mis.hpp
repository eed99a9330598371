// Luby's randomized maximal independent set (reference [20] of the
// paper; [1] is the Alon–Babai–Itai variant with the same structure).
// Algorithm 1 runs MIS on the conflict graph C_M(l) to select a maximal
// set of non-conflicting augmenting paths (Lemma 3.3).
//
// Phase (2 rounds):
//   stage 0: every live node broadcasts a fresh uniform 64-bit value.
//   stage 1: a live node whose value beats all received values (ties by
//            id) joins the MIS and broadcasts "selected"; on receiving
//            "selected" a node leaves the computation, and selected
//            nodes stop too.
// Isolated-by-elimination nodes (no live neighbors left) join the MIS
// automatically at stage 1 because they receive no competing values.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct MisOptions {
  std::uint64_t seed = 1;
  /// Cap on phases; 0 picks 40 + 12*ceil(log2(n+1)).
  std::uint64_t max_phases = 0;
  ThreadPool* pool = nullptr;
  /// Fault-injection spec ("" = fault-free): preset name or explicit
  /// `name:key=value,...` plan (src/faults), applied at the engine's
  /// channel exchange. After the round budget a resync loop restores a
  /// consistent state (message loss can admit two adjacent winners, or
  /// eliminate a node whose eliminator was itself demoted), re-opens
  /// the live region, and runs more phases, at most 8 times. The
  /// returned set is independent under any fault rate; maximality is
  /// best-effort once messages can be lost.
  std::string faults{};
};

struct MisResult {
  std::vector<char> in_mis;  // per node
  NetStats stats;
  bool converged = false;
  /// Resync sweeps that found inconsistencies; 0 in fault-free runs.
  std::uint32_t resyncs = 0;
};

MisResult luby_mis(const Graph& g, const MisOptions& opts = {});

/// The Alon–Babai–Itai variant (reference [1]; the paper's Lemma 3.3
/// proof uses "either [20] or [1]"). Phase (3 rounds):
///   stage 0: every live node marks itself with probability
///            1/(2 d(v)) (d = live degree; isolated live nodes always
///            mark) and broadcasts (marked, degree);
///   stage 1: of two adjacent marked nodes, the one with smaller
///            (degree, id) unmarks; surviving marked nodes join the MIS
///            and broadcast "selected";
///   stage 2: neighbors of selected nodes leave and broadcast "dead" so
///            survivors can maintain live degrees.
MisResult abi_mis(const Graph& g, const MisOptions& opts = {});

/// Verification helpers (used by tests and by Algorithm 1's assertions).
bool is_independent_set(const Graph& g, const std::vector<char>& in_set);
bool is_maximal_independent_set(const Graph& g, const std::vector<char>& in_set);

}  // namespace lps
