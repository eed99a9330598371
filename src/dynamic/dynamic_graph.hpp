// Mutable graph overlay for the fully dynamic matching subsystem —
// now a copy-on-write overlay over the same columnar GraphStore the
// static solvers, the LCA oracles, and the sharded round engine read
// (DESIGN.md §11).
//
// `graph::Graph` is a frozen CSR view: perfect for the solvers, the
// engine, and the oracles, but a serving system sees *changing* traffic
// (edges appearing and disappearing every timeslot in the switch
// workload). DynamicGraph layers mutability on top of the flat base
// columns instead of keeping a second vector-of-vectors copy:
//
//  * Base: a shared_ptr<const GraphStore> — the adjacency rows of every
//    unmodified vertex are read straight from the base columns (zero
//    duplication with any static Graph holding the same store).
//  * Overlay: the first mutation touching a vertex copies its row out
//    of the base into a columnar overlay row (to/edge columns); later
//    mutations edit the overlay in place. Memory grows with churn, not
//    with n.
//  * Edge table: columnar (edge_u_/edge_v_/edge_w_/edge_alive_),
//    seeded from the base store's endpoint columns and extended by
//    inserts; ids are recycled through a free list so unbounded update
//    streams do not grow the table without bound.
//
// The sorted-incidence invariant of the static Graph (each vertex's
// incidence list ascending by neighbor id) is preserved under every
// update, so find_edge stays a binary search and iteration order stays
// canonical across the static/dynamic boundary.
//
// Vertex ids are never reused (a removed vertex's slot stays dead) so
// stream generators can name vertices stably. `snapshot()` compacts the
// live subgraph into a `Graph` (+ weights + id maps) to feed the
// existing solver registry; when the graph is structurally untouched
// since construction the snapshot *shares the base store* — a refcount
// bump instead of an O(n + m) copy. `compact()` folds the overlay back
// into a fresh flat base when churn has accumulated.
#pragma once

#include <cstdint>
#include <memory>
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
  /// True when `graph` shares the dynamic base store (no copy was made).
  bool shared_store = false;
};

class DynamicGraph {
 public:
  DynamicGraph();
  /// Start with `n` live, isolated vertices.
  explicit DynamicGraph(NodeId n);
  /// Seed from a static graph — shares its columnar store (no adjacency
  /// copy); `weights` (when non-null) must have one entry per edge.
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
    const std::int32_t ov = overlay_of_[v];
    return ov >= 0 ? static_cast<NodeId>(overlay_[ov].to.size())
                   : base_->degree(v);
  }
  /// Sorted-by-neighbor incidence row: the base store's columns for
  /// untouched vertices, the overlay row otherwise.
  NeighborView neighbors(NodeId v) const {
    const std::int32_t ov = overlay_of_[v];
    if (ov < 0) return base_->row(v);
    const OverlayRow& row = overlay_[ov];
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
  /// Re-weight a live edge (w > 0, finite). Does not dirty the
  /// structure (snapshot sharing stays possible).
  void set_weight(EdgeId e, double w);

  // --------------------------------------------------------- bridges --
  /// Compact the live subgraph into a static Graph + weights + id maps
  /// (solver registry food). O(live n + live m) — except when the graph
  /// is structurally untouched since from_graph(), where the snapshot
  /// shares the base store and only the weight column is copied.
  Snapshot snapshot() const;

  /// Fold the overlay back into a fresh flat base store (identity ids,
  /// dead vertices become empty rows). O(n + m); call when churn has
  /// accumulated and read-heavy phases are coming.
  void compact();

  /// The flat base store under the overlay; right after compact() it
  /// holds every live row.
  const GraphStore& base_store() const noexcept { return *base_; }

  /// Number of vertices whose rows currently live in the overlay (0
  /// right after construction, from_graph, or compact()).
  std::size_t overlay_rows() const noexcept { return overlay_live_; }

  /// True while snapshot() can share the base store (no structural
  /// mutation since from_graph on a store with endpoint columns).
  bool structurally_pristine() const noexcept {
    return pristine_ && base_->num_edges() == live_edges_;
  }

  /// Full structural audit: mirror arcs, sorted incidence, live counts,
  /// edge table consistency, overlay bookkeeping. O(n + m); the soak
  /// tests call this after every update. Throws std::logic_error naming
  /// the violation.
  void check_invariants() const;

 private:
  struct OverlayRow {
    std::vector<NodeId> to;
    std::vector<EdgeId> edge;
  };

  void require_live_node(NodeId v, const char* who) const;
  void require_live_edge(EdgeId e, const char* who) const;
  /// Copy v's base row into the overlay on first mutation; returns the
  /// overlay row index.
  std::int32_t materialize(NodeId v);
  /// Insert {to, edge} into v's (overlay) row / remove it. O(deg(v)).
  void arc_insert(NodeId v, NodeId to, EdgeId e);
  void arc_erase(NodeId v, NodeId to);

  std::shared_ptr<const GraphStore> base_;
  // Columnar edge table (parallel arrays, id-indexed, recycled).
  std::vector<NodeId> edge_u_;
  std::vector<NodeId> edge_v_;
  std::vector<double> edge_w_;
  std::vector<std::uint8_t> edge_alive_;
  std::vector<EdgeId> free_edges_;  // dead edge ids available for reuse

  std::vector<std::uint8_t> node_alive_;
  std::vector<std::int32_t> overlay_of_;  // node -> overlay row or -1
  std::vector<OverlayRow> overlay_;
  std::size_t overlay_live_ = 0;

  NodeId live_nodes_ = 0;
  EdgeId live_edges_ = 0;
  bool pristine_ = true;  // no structural mutation since from_graph
};

}  // namespace lps::dynamic
