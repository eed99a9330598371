// Core graph representation: a thin immutable view over the shared
// columnar GraphStore (storage.hpp) — flat CSR adjacency with stable
// edge identifiers shared by matchings, weights and the distributed
// runtime (an edge id doubles as a communication channel id).
//
// A Graph is a shared_ptr to a store GraphStore::build made and
// validated, so copies are refcount bumps (DESIGN.md §11).
// `for (const Graph::Incidence& inc : g.neighbors(v))` iterates the
// columnar rows through a zip view.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/storage.hpp"

namespace lps {

/// Immutable undirected graph over columnar CSR storage.
///
/// Self-loops and parallel edges are rejected: the matching algorithms
/// and the message model both assume simple graphs (as does the paper).
class Graph {
 public:
  /// Entry in a vertex's incidence list.
  ///
  /// Invariant: each vertex's incidence list is sorted by neighbor id
  /// (ascending), regardless of the order edges were supplied in. Code
  /// may rely on this for binary search (find_edge) and for canonical
  /// per-neighbor iteration order; slot indices into neighbors(v) are
  /// stable for the lifetime of the Graph.
  using Incidence = lps::Incidence;

  Graph() : store_(GraphStore::empty()) {}

  /// Build from an edge list; endpoints are normalized to u < v.
  /// Throws std::invalid_argument on self-loops, duplicate edges, or
  /// endpoints >= n.
  Graph(NodeId n, std::vector<Edge> edges)
      : store_(std::make_shared<const GraphStore>(
            GraphStore::build(n, std::move(edges)))) {}

  NodeId num_nodes() const noexcept { return store_->n; }
  EdgeId num_edges() const noexcept { return store_->num_edges(); }

  Edge edge(EdgeId e) const { return store_->edge(e); }
  EdgeListView edges() const noexcept { return store_->edge_list(); }

  /// The endpoint of `e` that is not `v`; requires v to be an endpoint.
  NodeId other_endpoint(EdgeId e, NodeId v) const {
    const NodeId u = store_->edge_u[e];
    return u == v ? store_->edge_v[e] : u;
  }

  NeighborView neighbors(NodeId v) const { return store_->row(v); }

  NodeId degree(NodeId v) const { return store_->degree(v); }

  NodeId max_degree() const noexcept { return store_->max_degree; }

  /// Edge id connecting u and v, or kInvalidEdge. Binary search over the
  /// smaller endpoint's sorted neighbor column: O(log min degree).
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// Two-coloring if the graph is bipartite: side[v] in {0,1}; isolated
  /// vertices get side 0. Returns std::nullopt when an odd cycle exists.
  std::optional<std::vector<std::uint8_t>> bipartition() const;

  /// Connected component index per vertex (0-based, by discovery order).
  std::vector<NodeId> components() const;

  /// The underlying columnar store (shared with every copy of this
  /// Graph).
  const GraphStore& store() const noexcept { return *store_; }

 private:
  std::shared_ptr<const GraphStore> store_;
};

/// A graph plus a positive weight per edge.
struct WeightedGraph {
  Graph graph;
  std::vector<double> weights;  // indexed by EdgeId; same size as edges

  double weight(EdgeId e) const { return weights[e]; }
};

/// Validates the weight vector (size match, strictly positive, finite)
/// and assembles a WeightedGraph. Throws std::invalid_argument otherwise.
WeightedGraph make_weighted(Graph graph, std::vector<double> weights);

/// Result of induced-subgraph extraction with mappings back to the parent.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> node_to_parent;  // subgraph node -> parent node
  std::vector<EdgeId> edge_to_parent;  // subgraph edge -> parent edge
  std::vector<NodeId> parent_to_node;  // parent node -> subgraph node or kInvalidNode
};

/// Keep a vertex iff keep_node[v]; keep an edge iff keep_edge[e] and both
/// endpoints are kept. Either mask may be empty meaning "keep all".
Subgraph induced_subgraph(const Graph& g, const std::vector<char>& keep_node,
                          const std::vector<char>& keep_edge);

}  // namespace lps
