#include "graph/storage.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lps {

GraphStore GraphStore::build(NodeId n, std::vector<Edge> edges) {
  GraphStore s;
  s.n = n;
  const std::size_t m = edges.size();
  if (m > kInvalidEdge - 1) {
    throw std::invalid_argument("Graph: edge count exceeds the EdgeId range");
  }
  s.edge_u.resize(m);
  s.edge_v.resize(m);
  for (std::size_t id = 0; id < m; ++id) {
    Edge& e = edges[id];
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("Graph: endpoint out of range");
    }
    if (e.u == e.v) throw std::invalid_argument("Graph: self-loop");
    if (e.u > e.v) std::swap(e.u, e.v);
    s.edge_u[id] = e.u;
    s.edge_v[id] = e.v;
  }
  // Duplicate detection without a hash table: sort packed (u, v) keys
  // and compare neighbors. Flat memory, scales to tens of millions of
  // edges where an unordered_set would thrash.
  {
    std::vector<std::uint64_t> keys(m);
    for (std::size_t id = 0; id < m; ++id) {
      keys[id] = (static_cast<std::uint64_t>(s.edge_u[id]) << 32) |
                 s.edge_v[id];
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      throw std::invalid_argument("Graph: duplicate edge");
    }
  }
  s.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t id = 0; id < m; ++id) {
    ++s.offsets[s.edge_u[id] + 1];
    ++s.offsets[s.edge_v[id] + 1];
  }
  for (NodeId v = 0; v < n; ++v) s.offsets[v + 1] += s.offsets[v];
  s.adj_to.resize(2 * m);
  s.adj_edge.resize(2 * m);
  std::vector<std::uint64_t> cursor(s.offsets.begin(), s.offsets.end() - 1);
  for (std::size_t id = 0; id < m; ++id) {
    const NodeId u = s.edge_u[id];
    const NodeId v = s.edge_v[id];
    std::uint64_t cu = cursor[u]++;
    std::uint64_t cv = cursor[v]++;
    s.adj_to[cu] = v;
    s.adj_edge[cu] = static_cast<EdgeId>(id);
    s.adj_to[cv] = u;
    s.adj_edge[cv] = static_cast<EdgeId>(id);
  }
  // Establish the sorted-row invariant. Lex-sorted edge input already
  // satisfies it, so the sort is usually skipped; the permutation is
  // applied to both columns via an index sort when it is not.
  std::vector<std::uint32_t> perm;
  std::vector<NodeId> tmp_to;
  std::vector<EdgeId> tmp_edge;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t b = s.offsets[v];
    const std::size_t len = static_cast<std::size_t>(s.offsets[v + 1] - b);
    NodeId* to = s.adj_to.data() + b;
    EdgeId* ed = s.adj_edge.data() + b;
    if (std::is_sorted(to, to + len)) continue;
    perm.resize(len);
    for (std::size_t i = 0; i < len; ++i) perm[i] = static_cast<std::uint32_t>(i);
    std::sort(perm.begin(), perm.end(),
              [to](std::uint32_t a, std::uint32_t b2) { return to[a] < to[b2]; });
    tmp_to.assign(to, to + len);
    tmp_edge.assign(ed, ed + len);
    for (std::size_t i = 0; i < len; ++i) {
      to[i] = tmp_to[perm[i]];
      ed[i] = tmp_edge[perm[i]];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    s.max_degree = std::max(s.max_degree, s.degree(v));
  }
  return s;
}

const std::vector<std::uint32_t>& GraphStore::rev_slot() const {
  RevSlotCache::State& st = *rev_slot_.state_;
  // The pass records a bad store instead of throwing: libstdc++'s
  // call_once (pthread_once underneath) can hang the next caller after
  // an exception escapes it, e.g. under ThreadSanitizer.
  std::call_once(st.once, [&] {
    // Transpose pass: visiting senders v in ascending order reaches
    // each receiver's row in slot order (rows are sorted by neighbor
    // id), so a per-row cursor is v's position there. The check makes
    // a store that breaks the sorted-row invariant fail loudly instead
    // of yielding a wrong slot; since no cursor may pass its row's end
    // and the arcs add up to the rows, passing it for every arc also
    // proves every arc has its mirror.
    std::vector<std::uint32_t> table(adj_to.size());
    std::vector<std::uint32_t> cursor(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      for (std::uint64_t a = offsets[v]; a < offsets[v + 1]; ++a) {
        const NodeId to = adj_to[a];
        if (to >= n || cursor[to] >= degree(to) ||
            adj_to[offsets[to] + cursor[to]] != v) {
          st.error = "GraphStore::rev_slot: rows not sorted or not "
                     "mirrored at arc " +
                     std::to_string(v) + " -> " + std::to_string(to);
          return;
        }
        table[a] = cursor[to]++;
      }
    }
    st.table = std::move(table);
  });
  if (!st.error.empty()) throw std::logic_error(st.error);
  return st.table;
}

const std::shared_ptr<const GraphStore>& GraphStore::empty() {
  static const std::shared_ptr<const GraphStore> kEmpty = [] {
    auto s = std::make_shared<GraphStore>();
    s->offsets.assign(1, 0);
    return s;
  }();
  return kEmpty;
}

}  // namespace lps
