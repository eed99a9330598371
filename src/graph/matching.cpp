#include "graph/matching.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace lps {

Matching Matching::from_edges(const Graph& g, const std::vector<EdgeId>& ids) {
  Matching m(g.num_nodes());
  for (EdgeId e : ids) m.add(g, e);
  return m;
}

std::vector<EdgeId> Matching::edge_ids(const Graph& g) const {
  std::vector<EdgeId> out;
  out.reserve(size_);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const EdgeId e = match_edge_[v];
    if (e != kInvalidEdge && g.edge(e).u == v) out.push_back(e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Matching::add(const Graph& g, EdgeId e) {
  if (e >= g.num_edges()) throw std::invalid_argument("Matching::add: bad id");
  const Edge& ed = g.edge(e);
  if (!is_free(ed.u) || !is_free(ed.v)) {
    throw std::invalid_argument("Matching::add: endpoint already matched");
  }
  match_edge_[ed.u] = e;
  match_edge_[ed.v] = e;
  ++size_;
}

void Matching::remove(const Graph& g, EdgeId e) {
  const Edge& ed = g.edge(e);
  if (match_edge_[ed.u] != e || match_edge_[ed.v] != e) {
    throw std::invalid_argument("Matching::remove: edge not matched");
  }
  match_edge_[ed.u] = kInvalidEdge;
  match_edge_[ed.v] = kInvalidEdge;
  --size_;
}

void Matching::symmetric_difference(const Graph& g,
                                    const std::vector<EdgeId>& s) {
  // In place, in O(|S|): drop the toggled matched edges, then add the
  // rest. Only endpoints of S change, so saving their entries first lets
  // a failure restore M exactly; entry 2i holds s[i]'s u before any
  // change, which also tells whether s[i] was matched.
  std::vector<std::pair<NodeId, EdgeId>> saved;
  saved.reserve(2 * s.size());
  for (EdgeId e : s) {
    if (e >= g.num_edges()) {
      throw std::invalid_argument("symmetric_difference: edge id out of range");
    }
    const Edge& ed = g.edge(e);
    saved.emplace_back(ed.u, match_edge_[ed.u]);
    saved.emplace_back(ed.v, match_edge_[ed.v]);
  }
  auto fail = [&](const char* what) {
    for (const auto& [v, e] : saved) match_edge_[v] = e;
    throw std::invalid_argument(what);
  };
  std::size_t removed = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (saved[2 * i].second != s[i]) continue;
    const NodeId u = saved[2 * i].first;
    // Matched before any change, so only an earlier copy can have
    // dropped it.
    if (match_edge_[u] != s[i]) {
      fail("symmetric_difference: duplicate edges in P");
    }
    match_edge_[u] = kInvalidEdge;
    match_edge_[saved[2 * i + 1].first] = kInvalidEdge;
    ++removed;
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (saved[2 * i].second == s[i]) continue;
    const NodeId u = saved[2 * i].first;
    const NodeId v = saved[2 * i + 1].first;
    // A repeated unmatched id finds its own first copy here.
    if (!is_free(u) || !is_free(v)) {
      fail("symmetric_difference: result is not a matching");
    }
    match_edge_[u] = s[i];
    match_edge_[v] = s[i];
  }
  size_ = size_ + s.size() - 2 * removed;
}

double Matching::weight(const WeightedGraph& wg) const {
  double total = 0.0;
  for (EdgeId e : edge_ids(wg.graph)) total += wg.weight(e);
  return total;
}

bool is_valid_matching(const Graph& g, const std::vector<EdgeId>& ids) {
  std::vector<char> used(g.num_nodes(), 0);
  for (EdgeId e : ids) {
    if (e >= g.num_edges()) return false;
    const Edge& ed = g.edge(e);
    if (used[ed.u] || used[ed.v]) return false;
    used[ed.u] = used[ed.v] = 1;
  }
  return true;
}

bool is_maximal_matching(const Graph& g, const Matching& m) {
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    if (m.is_free(ed.u) && m.is_free(ed.v)) return false;
  }
  return true;
}

namespace {

/// Depth-first search over alternating simple paths.
struct AugmentingSearch {
  const Graph& g;
  const Matching& m;
  int max_len;
  std::vector<char> on_path;
  std::vector<EdgeId> path;
  NodeId root = kInvalidNode;

  AugmentingSearch(const Graph& g_in, const Matching& m_in, int max_len_in)
      : g(g_in), m(m_in), max_len(max_len_in), on_path(g_in.num_nodes(), 0) {}

  /// At vertex v with path.size() edges used so far. Returns true when an
  /// augmenting path is completed in `path`.
  bool extend(NodeId v) {
    const int used = static_cast<int>(path.size());
    if (used >= max_len) return false;
    const bool need_unmatched = (used % 2 == 0);
    if (need_unmatched) {
      for (const Graph::Incidence& inc : g.neighbors(v)) {
        if (on_path[inc.to]) continue;
        if (m.contains(g, inc.edge)) continue;
        path.push_back(inc.edge);
        if (m.is_free(inc.to)) return true;  // odd length, free end
        on_path[inc.to] = 1;
        if (extend(inc.to)) return true;
        on_path[inc.to] = 0;
        path.pop_back();
      }
    } else {
      const EdgeId e = m.matched_edge(v);
      // v was reached by an unmatched edge and is matched (else we would
      // have stopped); follow its unique matched edge.
      const NodeId w = g.other_endpoint(e, v);
      if (!on_path[w]) {
        path.push_back(e);
        on_path[w] = 1;
        if (extend(w)) return true;
        on_path[w] = 0;
        path.pop_back();
      }
    }
    return false;
  }
};

}  // namespace

std::optional<std::vector<EdgeId>> find_augmenting_path_bounded(
    const Graph& g, const Matching& m, int max_len) {
  if (max_len <= 0) return std::nullopt;
  AugmentingSearch search(g, m, max_len);
  for (NodeId r = 0; r < g.num_nodes(); ++r) {
    if (!m.is_free(r)) continue;
    search.root = r;
    search.on_path[r] = 1;
    if (search.extend(r)) return search.path;
    search.on_path[r] = 0;
  }
  return std::nullopt;
}

int shortest_augmenting_path_length(const Graph& g, const Matching& m,
                                    int cap) {
  for (int len = 1; len <= cap; len += 2) {
    if (auto p = find_augmenting_path_bounded(g, m, len)) {
      return static_cast<int>(p->size());
    }
  }
  return -1;
}

void apply_augmenting_path(const Graph& g, Matching& m,
                           const std::vector<EdgeId>& path) {
  if (path.empty() || path.size() % 2 == 0) {
    throw std::invalid_argument("augmenting path must have odd length");
  }
  // Validate endpoints and alternation by walking the path.
  const Edge& first = g.edge(path.front());
  // Determine the starting endpoint: the one not shared with edge 2 (or
  // either endpoint for a single-edge path).
  NodeId cur;
  if (path.size() == 1) {
    cur = first.u;
  } else {
    const Edge& second = g.edge(path[1]);
    cur = (first.u == second.u || first.u == second.v) ? first.v : first.u;
  }
  if (!m.is_free(cur)) {
    throw std::invalid_argument("augmenting path must start free");
  }
  NodeId walk = cur;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const bool expect_matched = (i % 2 == 1);
    if (m.contains(g, path[i]) != expect_matched) {
      throw std::invalid_argument("augmenting path does not alternate");
    }
    const Edge& ed = g.edge(path[i]);
    if (ed.u != walk && ed.v != walk) {
      throw std::invalid_argument("augmenting path is not connected");
    }
    walk = g.other_endpoint(path[i], walk);
  }
  if (!m.is_free(walk)) {
    throw std::invalid_argument("augmenting path must end free");
  }
  m.symmetric_difference(g, path);
}

std::vector<AlternatingComponent> decompose_symmetric_difference(
    const Graph& g, const Matching& a, const Matching& b) {
  // Collect edges in exactly one of the two matchings.
  std::unordered_set<EdgeId> sym;
  for (EdgeId e : a.edge_ids(g)) sym.insert(e);
  for (EdgeId e : b.edge_ids(g)) {
    if (!sym.insert(e).second) sym.erase(e);
  }
  // Each vertex has degree <= 2 in the symmetric difference.
  std::vector<std::vector<EdgeId>> inc(g.num_nodes());
  for (EdgeId e : sym) {
    inc[g.edge(e).u].push_back(e);
    inc[g.edge(e).v].push_back(e);
  }
  std::vector<char> used_edge(g.num_edges(), 0);
  std::vector<AlternatingComponent> out;

  auto walk_from = [&](NodeId start) {
    AlternatingComponent comp;
    comp.kind = AlternatingComponent::Kind::kPath;
    NodeId cur = start;
    comp.nodes.push_back(cur);
    for (;;) {
      EdgeId next = kInvalidEdge;
      for (EdgeId e : inc[cur]) {
        if (!used_edge[e]) {
          next = e;
          break;
        }
      }
      if (next == kInvalidEdge) break;
      used_edge[next] = 1;
      comp.edges.push_back(next);
      cur = g.other_endpoint(next, cur);
      if (cur == start) {
        comp.kind = AlternatingComponent::Kind::kCycle;
        break;
      }
      comp.nodes.push_back(cur);
    }
    return comp;
  };

  // Paths first: start from degree-1 vertices.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (inc[v].size() == 1 && !used_edge[inc[v][0]]) {
      out.push_back(walk_from(v));
    }
  }
  // Remaining components are cycles.
  for (EdgeId e : sym) {
    if (!used_edge[e]) out.push_back(walk_from(g.edge(e).u));
  }
  return out;
}

}  // namespace lps
