#include "core/gain.hpp"

#include <algorithm>
#include <stdexcept>

namespace lps {

std::vector<double> gain_weights(const WeightedGraph& wg, const Matching& m,
                                 NetStats* stats, ThreadPool* /*pool*/) {
  const Graph& g = wg.graph;
  std::vector<double> gains(g.num_edges(), 0.0);

  // Columnar evaluation of w_M(e) = w(e) - w(u, M(u)) - w(v, M(v)):
  // gather-subtract over the store's endpoint columns against a
  // per-node mate-weight column. Free vertices contribute a literal
  // +0.0, an exact IEEE identity under subtraction, so the column needs
  // no mask and the result is bit-identical to the branching form
  // (operands are subtracted in the same u-then-v order).
  const GraphStore& s = g.store();
  std::vector<double> mate_w(g.num_nodes(), 0.0);
  std::uint64_t announcements = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (m.is_free(v)) continue;
    mate_w[v] = wg.weight(m.matched_edge(v));
    announcements += g.degree(v);
  }
  // Raw pointers and the edge count in locals: with vector::operator[]
  // in the body and num_edges() in the condition GCC does not vectorize
  // the loop; in this form it emits gathers under -march=native.
  const double* w = wg.weights.data();
  const double* mw = mate_w.data();
  const NodeId* eu = s.edge_u.data();
  const NodeId* ev = s.edge_v.data();
  double* out = gains.data();
  const std::size_t num_edges = g.num_edges();
  for (std::size_t e = 0; e < num_edges; ++e) {
    out[e] = w[e] - mw[eu[e]] - mw[ev[e]];
  }
  // Matched edges carry zero gain by definition.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = m.matched_edge(v);
    if (e != kInvalidEdge) gains[e] = 0.0;
  }

  if (stats != nullptr) {
    // The exchange in closed form: in round 0 every matched node sends
    // w(v, M(v)) (64 bits) to each neighbor, round 1 delivers, and
    // nothing else is sent. Nothing reads the deliveries (the gains
    // above come from the columns), so no engine execution is needed.
    NetStats exchange;
    exchange.rounds = 2;
    exchange.messages = announcements;
    exchange.total_bits = 64 * announcements;
    exchange.max_message_bits = announcements > 0 ? 64 : 0;
    stats->merge(exchange);
  }
  return gains;
}

std::vector<EdgeId> wrap_edges(const Graph& g, const Matching& m, EdgeId e) {
  std::vector<EdgeId> out;
  wrap_edges(g, m, e, out);
  return out;
}

void wrap_edges(const Graph& g, const Matching& m, EdgeId e,
                std::vector<EdgeId>& out) {
  if (m.contains(g, e)) {
    throw std::invalid_argument("wrap_edges: e must be unmatched");
  }
  const Edge& ed = g.edge(e);
  if (!m.is_free(ed.u)) out.push_back(m.matched_edge(ed.u));
  out.push_back(e);
  if (!m.is_free(ed.v)) out.push_back(m.matched_edge(ed.v));
}

void apply_wraps(const Graph& g, Matching& m,
                 const std::vector<EdgeId>& m_prime) {
  if (!is_valid_matching(g, m_prime)) {
    throw std::invalid_argument("apply_wraps: m_prime is not a matching");
  }
  std::vector<EdgeId> toggles;
  toggles.reserve(3 * m_prime.size());
  for (EdgeId e : m_prime) wrap_edges(g, m, e, toggles);
  // Matched edges can appear in two wraps (adjacent to two m_prime
  // edges); the union keeps them once.
  std::sort(toggles.begin(), toggles.end());
  toggles.erase(std::unique(toggles.begin(), toggles.end()), toggles.end());
  m.symmetric_difference(g, toggles);
}

}  // namespace lps
