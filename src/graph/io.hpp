// Plain-text edge-list IO: `n m [w]` header, then one `u v [weight]`
// line per edge. Round-trips exactly for integer weights; doubles use
// max_digits10 so round-trips are bit-faithful.
#pragma once

#include <iosfwd>
#include <optional>

#include "graph/graph.hpp"

namespace lps {

void write_edge_list(std::ostream& os, const Graph& g);
void write_edge_list(std::ostream& os, const WeightedGraph& wg);

struct ParsedGraph {
  Graph graph;
  std::optional<std::vector<double>> weights;
};

/// Throws std::invalid_argument on malformed input: a header other than
/// exactly `n m` or `n m w`, a count or id out of range, a weight that
/// is not a finite number, or any token after the m-th edge.
ParsedGraph read_edge_list(std::istream& is);

}  // namespace lps
