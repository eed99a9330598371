#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lps::dynamic {

namespace {
void require_weight(double w, const char* who) {
  if (!(w > 0.0) || !std::isfinite(w)) {
    throw std::invalid_argument(std::string(who) +
                                ": weight must be positive and finite");
  }
}
}  // namespace

DynamicGraph::DynamicGraph() : DynamicGraph(0) {}

DynamicGraph::DynamicGraph(NodeId n)
    : node_alive_(n, 1), rows_(n), live_nodes_(n) {}

DynamicGraph DynamicGraph::from_graph(const Graph& g,
                                      const std::vector<double>* weights) {
  if (weights != nullptr && weights->size() != g.num_edges()) {
    throw std::invalid_argument("DynamicGraph::from_graph: weight size");
  }
  if (weights != nullptr) {
    for (double w : *weights) {
      require_weight(w, "DynamicGraph::from_graph");
    }
  }
  DynamicGraph out(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NeighborView row = g.neighbors(v);
    out.rows_[v].to.assign(row.to_data(), row.to_data() + row.size());
    out.rows_[v].edge.assign(row.edge_data(), row.edge_data() + row.size());
  }
  const EdgeId m = g.num_edges();
  out.edge_u_ = g.store().edge_u;
  out.edge_v_ = g.store().edge_v;
  out.edge_w_ = weights != nullptr ? *weights : std::vector<double>(m, 1.0);
  out.edge_alive_.assign(m, 1);
  out.live_edges_ = m;
  return out;
}

void DynamicGraph::require_live_node(NodeId v, const char* who) const {
  if (!node_alive(v)) {
    throw std::invalid_argument(std::string(who) + ": dead or unknown node " +
                                std::to_string(v));
  }
}

void DynamicGraph::require_live_edge(EdgeId e, const char* who) const {
  if (!edge_alive(e)) {
    throw std::invalid_argument(std::string(who) + ": dead or unknown edge " +
                                std::to_string(e));
  }
}

Edge DynamicGraph::edge(EdgeId e) const {
  require_live_edge(e, "DynamicGraph::edge");
  return {edge_u_[e], edge_v_[e]};
}

double DynamicGraph::weight(EdgeId e) const {
  require_live_edge(e, "DynamicGraph::weight");
  return edge_w_[e];
}

NodeId DynamicGraph::other_endpoint(EdgeId e, NodeId v) const {
  require_live_edge(e, "DynamicGraph::other_endpoint");
  return edge_u_[e] == v ? edge_v_[e] : edge_u_[e];
}

EdgeId DynamicGraph::find_edge(NodeId u, NodeId v) const {
  if (!node_alive(u) || !node_alive(v)) return kInvalidEdge;
  if (degree(u) > degree(v)) std::swap(u, v);
  const NeighborView nbrs = neighbors(u);
  const NodeId* begin = nbrs.to_data();
  const NodeId* end = begin + nbrs.size();
  const NodeId* it = std::lower_bound(begin, end, v);
  if (it != end && *it == v) {
    return nbrs.edge_data()[it - begin];
  }
  return kInvalidEdge;
}

NodeId DynamicGraph::add_vertex() {
  node_alive_.push_back(1);
  rows_.emplace_back();
  ++live_nodes_;
  return static_cast<NodeId>(node_alive_.size() - 1);
}

void DynamicGraph::remove_vertex(NodeId v) {
  require_live_node(v, "DynamicGraph::remove_vertex");
  // Snapshot the incident edge ids first: delete_edge mutates v's row.
  std::vector<EdgeId> incident;
  const NeighborView nbrs = neighbors(v);
  incident.reserve(nbrs.size());
  for (const Arc& a : nbrs) incident.push_back(a.edge);
  for (EdgeId e : incident) delete_edge(e);
  node_alive_[v] = 0;
  --live_nodes_;
}

void DynamicGraph::revive_vertex(NodeId v) {
  if (v >= node_alive_.size()) {
    throw std::invalid_argument(
        "DynamicGraph::revive_vertex: unallocated vertex id");
  }
  if (node_alive_[v] != 0) {
    throw std::invalid_argument(
        "DynamicGraph::revive_vertex: vertex is alive");
  }
  // A dead vertex's row is always empty (remove_vertex deleted every
  // incident edge), so the sorted-incidence invariant holds trivially
  // on revival.
  node_alive_[v] = 1;
  ++live_nodes_;
}

void DynamicGraph::arc_insert(NodeId v, NodeId to, EdgeId e) {
  Row& row = rows_[v];
  const auto it = std::lower_bound(row.to.begin(), row.to.end(), to);
  const std::size_t pos = static_cast<std::size_t>(it - row.to.begin());
  row.to.insert(it, to);
  row.edge.insert(row.edge.begin() + static_cast<std::ptrdiff_t>(pos), e);
}

void DynamicGraph::arc_erase(NodeId v, NodeId to) {
  Row& row = rows_[v];
  const auto it = std::lower_bound(row.to.begin(), row.to.end(), to);
  const std::size_t pos = static_cast<std::size_t>(it - row.to.begin());
  row.to.erase(it);
  row.edge.erase(row.edge.begin() + static_cast<std::ptrdiff_t>(pos));
}

EdgeId DynamicGraph::insert_edge(NodeId u, NodeId v, double w) {
  require_live_node(u, "DynamicGraph::insert_edge");
  require_live_node(v, "DynamicGraph::insert_edge");
  if (u == v) {
    throw std::invalid_argument("DynamicGraph::insert_edge: self-loop");
  }
  require_weight(w, "DynamicGraph::insert_edge");
  if (u > v) std::swap(u, v);
  if (find_edge(u, v) != kInvalidEdge) {
    throw std::invalid_argument("DynamicGraph::insert_edge: duplicate edge (" +
                                std::to_string(u) + ", " + std::to_string(v) +
                                ")");
  }
  EdgeId id;
  if (!free_edges_.empty()) {
    id = free_edges_.back();
    free_edges_.pop_back();
  } else {
    id = static_cast<EdgeId>(edge_u_.size());
    edge_u_.emplace_back();
    edge_v_.emplace_back();
    edge_w_.emplace_back();
    edge_alive_.emplace_back();
  }
  edge_u_[id] = u;
  edge_v_[id] = v;
  edge_w_[id] = w;
  edge_alive_[id] = 1;
  arc_insert(u, v, id);
  arc_insert(v, u, id);
  ++live_edges_;
  return id;
}

void DynamicGraph::delete_edge(EdgeId e) {
  require_live_edge(e, "DynamicGraph::delete_edge");
  const NodeId u = edge_u_[e];
  const NodeId v = edge_v_[e];
  arc_erase(u, v);
  arc_erase(v, u);
  edge_alive_[e] = 0;
  free_edges_.push_back(e);
  --live_edges_;
}

void DynamicGraph::set_weight(EdgeId e, double w) {
  require_live_edge(e, "DynamicGraph::set_weight");
  require_weight(w, "DynamicGraph::set_weight");
  edge_w_[e] = w;
}

Snapshot DynamicGraph::snapshot() const {
  Snapshot out;
  const NodeId slots = node_slots();
  out.dynamic_to_node.assign(slots, kInvalidNode);
  out.node_to_dynamic.reserve(live_nodes_);
  for (NodeId v = 0; v < slots; ++v) {
    if (!node_alive_[v]) continue;
    out.dynamic_to_node[v] = static_cast<NodeId>(out.node_to_dynamic.size());
    out.node_to_dynamic.push_back(v);
  }
  std::vector<Edge> edges;
  edges.reserve(live_edges_);
  out.edge_to_dynamic.reserve(live_edges_);
  out.weights.reserve(live_edges_);
  for (EdgeId e = 0; e < edge_u_.size(); ++e) {
    if (!edge_alive_[e]) continue;
    edges.push_back(
        {out.dynamic_to_node[edge_u_[e]], out.dynamic_to_node[edge_v_[e]]});
    out.edge_to_dynamic.push_back(e);
    out.weights.push_back(edge_w_[e]);
  }
  out.graph = Graph(static_cast<NodeId>(out.node_to_dynamic.size()),
                    std::move(edges));
  return out;
}

void DynamicGraph::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("DynamicGraph::check_invariants: " + what);
  };
  const NodeId slots = node_slots();
  if (rows_.size() != slots) fail("row count");
  if (edge_u_.size() != edge_v_.size() || edge_u_.size() != edge_w_.size() ||
      edge_u_.size() != edge_alive_.size()) {
    fail("edge column sizes");
  }
  NodeId live_n = 0;
  std::size_t arc_count = 0;
  for (NodeId v = 0; v < slots; ++v) {
    if (rows_[v].to.size() != rows_[v].edge.size()) {
      fail("row columns of node " + std::to_string(v) + " disagree");
    }
    if (node_alive_[v]) ++live_n;
    const NeighborView nbrs = neighbors(v);
    if (!node_alive_[v] && !nbrs.empty()) {
      fail("dead node " + std::to_string(v) + " has arcs");
    }
    arc_count += nbrs.size();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Arc a = nbrs[i];
      if (i > 0 && nbrs[i - 1].to >= a.to) {
        fail("incidence of node " + std::to_string(v) + " not sorted");
      }
      if (a.edge >= edge_u_.size() || !edge_alive_[a.edge]) {
        fail("arc to dead edge " + std::to_string(a.edge));
      }
      const NodeId eu = edge_u_[a.edge];
      const NodeId ev = edge_v_[a.edge];
      const NodeId expect_to = eu == v ? ev : eu;
      if ((eu != v && ev != v) || expect_to != a.to) {
        fail("arc/edge endpoint mismatch at edge " + std::to_string(a.edge));
      }
    }
  }
  if (live_n != live_nodes_) fail("live node count");
  EdgeId live_m = 0;
  for (EdgeId e = 0; e < edge_u_.size(); ++e) {
    if (!edge_alive_[e]) continue;
    ++live_m;
    if (edge_u_[e] >= edge_v_[e]) {
      fail("edge " + std::to_string(e) + " not normalized");
    }
    if (!node_alive(edge_u_[e]) || !node_alive(edge_v_[e])) {
      fail("edge " + std::to_string(e) + " touches a dead node");
    }
    if (!(edge_w_[e] > 0.0) || !std::isfinite(edge_w_[e])) {
      fail("edge " + std::to_string(e) + " has a bad weight");
    }
    // The mirror arcs must both exist and name this edge.
    if (find_edge(edge_u_[e], edge_v_[e]) != e) {
      fail("find_edge misses edge " + std::to_string(e));
    }
  }
  if (live_m != live_edges_) fail("live edge count");
  if (arc_count != 2 * static_cast<std::size_t>(live_edges_)) {
    fail("arc count != 2 * live edges");
  }
  if (free_edges_.size() != edge_u_.size() - live_edges_) {
    fail("free list size");
  }
}

}  // namespace lps::dynamic
