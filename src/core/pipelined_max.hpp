// The bit-pipelined maximum of Lemma 3.7, as a standalone primitive.
//
// The paper: "To send a number of j log n bits over an edge, we break it
// into j chunks, and send the chunks one by one in a pipelining fashion
// ... The chunks are sent in decreasing order of significance. In each
// routing step, only chunks from qualifying edges are examined. Of them,
// the maximal chunk is transmitted in the next step, and the sources of
// other chunks are disqualified."
//
// Here: values sit at arbitrary nodes of a tree; the root must learn the
// maximum. Every value is padded to the same chunk count j; a node at
// depth d starts emitting its merged stream at round (D - d) where D is
// the tree depth, so child streams arrive exactly aligned with the
// parent's emission schedule. Total rounds: D + j + O(1) — versus
// D * j for store-and-forward of whole numbers — with every message a
// single chunk of `chunk_bits` bits.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "util/bigint.hpp"

namespace lps {

struct PipelinedMaxResult {
  BigCounter maximum;        // 0 if no node held a value
  bool any_value = false;
  NetStats stats;
  std::uint64_t tree_depth = 0;
  std::size_t chunk_count = 0;
};

/// Compute max over `values` (node -> value; nodes without entries hold
/// nothing) at `root` over the tree `g` (must be connected and acyclic;
/// checked). chunk_bits in [1, 32].
PipelinedMaxResult pipelined_max(const Graph& g, NodeId root,
                                 const std::vector<std::optional<BigCounter>>& values,
                                 int chunk_bits,
                                 ThreadPool* pool = nullptr);

}  // namespace lps
