#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace lps {
namespace {

// True iff all of `t` parses as one T.
template <class T>
bool parse_whole(const std::string& t, T& out) {
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  return ec == std::errc{} && end == t.data() + t.size();
}

}  // namespace

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
  // The header is exactly `n m` or `n m w`: a flag other than `w` would
  // otherwise read as unweighted and drop every weight.
  std::istringstream hs(header);
  std::vector<std::string> tokens;
  for (std::string t; hs >> t;) tokens.push_back(t);
  const auto bad_token = [](const std::string& t) {
    return std::invalid_argument("read_edge_list: unexpected header token '" +
                                 t + "' (the header is `n m` or `n m w`)");
  };
  if (tokens.size() < 2) {
    throw std::invalid_argument(
        "read_edge_list: bad header (the header is `n m` or `n m w`)");
  }
  if (tokens.size() > 3) throw bad_token(tokens[3]);
  if (tokens.size() == 3 && tokens[2] != "w") throw bad_token(tokens[2]);
  std::uint64_t n = 0, m = 0;
  if (!parse_whole(tokens[0], n)) throw bad_token(tokens[0]);
  if (!parse_whole(tokens[1], m)) throw bad_token(tokens[1]);
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
  const bool weighted = tokens.size() == 3;
  std::vector<Edge> edges;
  std::vector<double> weights;
  // The header is a claim, not an allocation budget: the list grows with
  // the edges actually read.
  edges.reserve(std::min<std::uint64_t>(m, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < m; ++i) {
    // Ids are read as tokens and parsed whole, like the header: a sign,
    // a hex prefix or a fraction is named, never wrapped or truncated.
    std::uint64_t ids[2] = {0, 0};
    for (std::uint64_t& id : ids) {
      std::string t;
      if (!(is >> t)) {
        throw std::invalid_argument("read_edge_list: truncated edge list");
      }
      if (!parse_whole(t, id)) {
        throw std::invalid_argument("read_edge_list: edge " +
                                    std::to_string(i) + "'s endpoint '" + t +
                                    "' is not a vertex id");
      }
    }
    const auto [u, v] = ids;
    if (u >= n || v >= n) {
      throw std::invalid_argument(
          "read_edge_list: edge " + std::to_string(i) + " (" +
          std::to_string(u) + ", " + std::to_string(v) +
          ") names a vertex outside [0, " + std::to_string(n) + ")");
    }
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
    if (weighted) {
      // Read as a token, so NaN, infinities and out-of-range literals
      // are named for what they are rather than reported as missing.
      std::string t;
      if (!(is >> t)) {
        throw std::invalid_argument("read_edge_list: edge " +
                                    std::to_string(i) + " has no weight");
      }
      double w = 0;
      if (!parse_whole(t, w) || !std::isfinite(w)) {
        throw std::invalid_argument("read_edge_list: edge " +
                                    std::to_string(i) + "'s weight '" + t +
                                    "' is not a finite number");
      }
      weights.push_back(w);
    }
  }
  std::string extra;
  if (is >> extra) {
    throw std::invalid_argument("read_edge_list: unexpected token '" + extra +
                                "' after the header's " + std::to_string(m) +
                                " edges");
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
