// The LCA cost model, executable: oracles read the graph only through
// this adapter, which meters every access in *probes* — the standard
// complexity measure of the local-computation-algorithms literature
// (Alon-Rubinfeld-Vardi; Reingold-Vardi). One probe corresponds to one
// unit answer a remote graph store could serve: a single incidence-list
// entry, a single edge record, or a single degree lookup. Scanning a
// vertex's full neighbor list therefore costs degree(v) probes, which
// keeps the meter honest on high-degree vertices.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace lps::lca {

class GraphAccess {
 public:
  explicit GraphAccess(const Graph& g) noexcept : g_(&g) {}

  // Shape queries are free: n and m are global constants an LCA is
  // allowed to know up front.
  NodeId num_nodes() const noexcept { return g_->num_nodes(); }
  EdgeId num_edges() const noexcept { return g_->num_edges(); }

  /// One probe: the endpoints of a single edge record.
  Edge edge(EdgeId e) {
    ++probes_;
    return g_->edge(e);
  }

  /// One probe (edge record already fetched by the caller or not — the
  /// endpoint resolution itself is a store round-trip).
  NodeId other_endpoint(EdgeId e, NodeId v) {
    ++probes_;
    return g_->other_endpoint(e, v);
  }

  /// One probe: a degree counter lookup.
  NodeId degree(NodeId v) {
    ++probes_;
    return g_->degree(v);
  }

  /// degree(v) probes: the full incidence list, one probe per entry
  /// (an empty list still costs one probe to learn it is empty).
  NeighborView neighbors(NodeId v) {
    const NeighborView nbrs = g_->neighbors(v);
    probes_ += nbrs.empty() ? 1 : nbrs.size();
    return nbrs;
  }

  std::uint64_t probes() const noexcept { return probes_; }

  /// The unmetered graph, for answer *construction* (not discovery):
  /// e.g. turning an already-evaluated matched edge id into a mate id.
  const Graph& graph() const noexcept { return *g_; }

 private:
  const Graph* g_;
  std::uint64_t probes_ = 0;
};

}  // namespace lps::lca
