#include "graph/io.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace lps {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) os << e.u << ' ' << e.v << '\n';
}

void write_edge_list(std::ostream& os, const WeightedGraph& wg) {
  // The serialization must not depend on the caller's stream state: a
  // stream left in std::fixed would collapse small weights to 0 (which
  // the reader then rejects as non-positive) and hexfloat is unreadable
  // by operator>>. Force defaultfloat + max_digits10 for the weight
  // columns and restore the stream afterwards.
  const std::ios_base::fmtflags flags = os.flags();
  const std::streamsize precision = os.precision();
  os << wg.graph.num_nodes() << ' ' << wg.graph.num_edges() << " w\n";
  os << std::defaultfloat
     << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (EdgeId e = 0; e < wg.graph.num_edges(); ++e) {
    const Edge& ed = wg.graph.edge(e);
    os << ed.u << ' ' << ed.v << ' ' << wg.weights[e] << '\n';
  }
  os.flags(flags);
  os.precision(precision);
}

ParsedGraph read_edge_list(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    throw std::invalid_argument("read_edge_list: empty input");
  }
  std::istringstream hs(header);
  std::uint64_t n = 0, m = 0;
  std::string flag;
  if (!(hs >> n >> m)) {
    throw std::invalid_argument("read_edge_list: bad header");
  }
  // Counts and ids are read as u64 and range-checked before they are
  // narrowed, so an out-of-range value is refused instead of wrapping.
  if (n > kInvalidNode - 1) {
    throw std::invalid_argument("read_edge_list: " + std::to_string(n) +
                                " nodes exceed the NodeId range");
  }
  if (m > kInvalidEdge - 1) {
    throw std::invalid_argument("read_edge_list: " + std::to_string(m) +
                                " edges exceed the EdgeId range");
  }
  const bool weighted = static_cast<bool>(hs >> flag) && flag == "w";
  std::vector<Edge> edges;
  std::vector<double> weights;
  // The header is a claim, not an allocation budget: the list grows with
  // the edges actually read.
  edges.reserve(std::min<std::uint64_t>(m, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t u = 0, v = 0;
    if (!(is >> u >> v)) {
      throw std::invalid_argument("read_edge_list: truncated edge list");
    }
    if (u >= n || v >= n) {
      throw std::invalid_argument(
          "read_edge_list: edge " + std::to_string(i) + " (" +
          std::to_string(u) + ", " + std::to_string(v) +
          ") names a vertex outside [0, " + std::to_string(n) + ")");
    }
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
    if (weighted) {
      double w = 0;
      if (!(is >> w)) {
        throw std::invalid_argument("read_edge_list: missing weight");
      }
      weights.push_back(w);
    }
  }
  ParsedGraph out{Graph(static_cast<NodeId>(n), std::move(edges)),
                  std::nullopt};
  if (weighted) {
    // Re-validate through make_weighted (positivity etc.).
    WeightedGraph wg = make_weighted(std::move(out.graph), std::move(weights));
    out.graph = std::move(wg.graph);
    out.weights = std::move(wg.weights);
  }
  return out;
}

}  // namespace lps
