// Mutable graph for the fully dynamic matching subsystem (DESIGN.md
// §10).
//
// `graph::Graph` is a frozen CSR view: perfect for the solvers, the
// engine, and the oracles, but a serving system sees *changing* traffic
// (edges appearing and disappearing every timeslot in the switch
// workload). An update edits only its endpoints' rows, so DynamicGraph
// keeps exactly that:
//
//  * Rows: one sorted (to, edge) row per vertex slot; inserts and
//    deletes splice at the sorted position, O(deg).
//  * Edge table: columnar (edge_u_/edge_v_/edge_w_/edge_alive_),
//    extended by inserts; ids are recycled through a free list so
//    unbounded update streams do not grow the table without bound.
//
// The sorted-incidence invariant of the static Graph (each vertex's
// incidence list ascending by neighbor id) is preserved under every
// update, so find_edge stays a binary search and iteration order stays
// canonical across the static/dynamic boundary.
//
// Vertex ids are never reused (a removed vertex's slot stays dead) so
// stream generators can name vertices stably. `snapshot()` compacts the
// live subgraph into a `Graph` (+ weights + id maps) through
// GraphStore::build to feed the existing solver registry.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace lps::dynamic {

/// Entry in a vertex's dynamic incidence list; the same Incidence the
/// static Graph yields (same fields, same sorted-by-neighbor invariant).
using Arc = Incidence;

/// A snapshot plus the id maps back into the DynamicGraph that produced
/// it (snapshot node i == dynamic node node_to_dynamic[i], and likewise
/// for edges). dynamic_to_node is kInvalidNode for dead/unmapped slots.
struct Snapshot {
  Graph graph;
  std::vector<double> weights;          // per snapshot edge id
  std::vector<NodeId> node_to_dynamic;  // snapshot node -> dynamic node
  std::vector<EdgeId> edge_to_dynamic;  // snapshot edge -> dynamic edge
  std::vector<NodeId> dynamic_to_node;  // dynamic node -> snapshot node
};

class DynamicGraph {
 public:
  DynamicGraph();
  /// Start with `n` live, isolated vertices.
  explicit DynamicGraph(NodeId n);
  /// Seed from a static graph: copies g's rows and keeps its edge ids;
  /// `weights` (when non-null) must have one entry per edge, else every
  /// edge weighs 1.
  static DynamicGraph from_graph(const Graph& g,
                                 const std::vector<double>* weights = nullptr);

  // ----------------------------------------------------------- shape --
  /// One past the largest vertex id ever allocated (dead slots counted).
  NodeId node_slots() const noexcept {
    return static_cast<NodeId>(node_alive_.size());
  }
  /// One past the largest edge id currently allocatable.
  EdgeId edge_slots() const noexcept {
    return static_cast<EdgeId>(edge_u_.size());
  }
  NodeId num_live_nodes() const noexcept { return live_nodes_; }
  EdgeId num_live_edges() const noexcept { return live_edges_; }

  bool node_alive(NodeId v) const {
    return v < node_alive_.size() && node_alive_[v] != 0;
  }
  bool edge_alive(EdgeId e) const {
    return e < edge_alive_.size() && edge_alive_[e] != 0;
  }

  /// Endpoints of a live edge, normalized u < v (throws on dead ids).
  Edge edge(EdgeId e) const;
  double weight(EdgeId e) const;
  NodeId other_endpoint(EdgeId e, NodeId v) const;

  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(rows_[v].to.size());
  }
  /// Sorted-by-neighbor incidence row.
  NeighborView neighbors(NodeId v) const {
    const Row& row = rows_[v];
    return {row.to.data(), row.edge.data(), row.to.size()};
  }

  /// Edge id connecting u and v, or kInvalidEdge. Binary search over
  /// the smaller endpoint's row: O(log min degree).
  EdgeId find_edge(NodeId u, NodeId v) const;

  // --------------------------------------------------------- updates --
  /// New live isolated vertex; ids are never recycled.
  NodeId add_vertex();
  /// Deletes all incident edges, then kills the vertex. O(sum of
  /// endpoint degrees). Throws std::invalid_argument on dead ids.
  void remove_vertex(NodeId v);
  /// Bring a removed vertex back to life under its old id, isolated
  /// (remove_vertex deleted its incident edges; re-inserting them is
  /// the caller's recovery protocol — see faults/recovery.hpp). O(1).
  /// Throws std::invalid_argument on unallocated or live ids.
  void revive_vertex(NodeId v);
  /// Insert (u, v) with weight `w` (> 0, finite). O(deg(u) + deg(v)).
  /// Throws std::invalid_argument on self-loops, dead endpoints,
  /// duplicate edges, or bad weights. Edge ids are recycled.
  EdgeId insert_edge(NodeId u, NodeId v, double w = 1.0);
  /// Delete a live edge by id. O(deg(u) + deg(v)).
  void delete_edge(EdgeId e);
  /// Re-weight a live edge (w > 0, finite).
  void set_weight(EdgeId e, double w);

  // --------------------------------------------------------- bridges --
  /// Compact the live subgraph into a static Graph + weights + id maps
  /// (solver registry food). O(live n + live m).
  Snapshot snapshot() const;

  /// Full structural audit: mirror arcs, sorted incidence, live counts,
  /// edge table consistency. O(n + m); the soak tests call this after
  /// every update. Throws std::logic_error naming the violation.
  void check_invariants() const;

 private:
  struct Row {
    std::vector<NodeId> to;
    std::vector<EdgeId> edge;
  };

  void require_live_node(NodeId v, const char* who) const;
  void require_live_edge(EdgeId e, const char* who) const;
  /// Insert {to, edge} into v's row / remove it. O(deg(v)).
  void arc_insert(NodeId v, NodeId to, EdgeId e);
  void arc_erase(NodeId v, NodeId to);

  // Columnar edge table (parallel arrays, id-indexed, recycled).
  std::vector<NodeId> edge_u_;
  std::vector<NodeId> edge_v_;
  std::vector<double> edge_w_;
  std::vector<std::uint8_t> edge_alive_;
  std::vector<EdgeId> free_edges_;  // dead edge ids available for reuse

  std::vector<std::uint8_t> node_alive_;
  std::vector<Row> rows_;  // one per vertex slot, sorted by `to`

  NodeId live_nodes_ = 0;
  EdgeId live_edges_ = 0;
};

}  // namespace lps::dynamic
