// GraphStore: the flat columnar layout every static graph consumer
// reads — the solvers, the LCA oracles and the sharded round engine:
//
//   offsets[n+1]            CSR row boundaries (vertex-contiguous, so a
//                           shard's rows are one contiguous byte range)
//   adj_to[2m], adj_edge[2m]  the incidence lists, split into columns —
//                           neighbor-id scans (find_edge's binary search,
//                           degree filters) touch only adj_to and thus
//                           half the cache lines of an AoS layout
//   edge_u[m], edge_v[m]    endpoint columns, normalized u < v
//   rev_slot()[2m]          reverse-arc table, built on first use and
//                           shared by every network on the store
//
// `Graph` wraps a shared_ptr<const GraphStore> that build() made, so
// copying a Graph is a refcount bump (DESIGN.md §11). Edge weights live
// beside the graph, in WeightedGraph::weights.
//
// Invariant (relied on throughout): each vertex's incidence slice is
// sorted ascending by neighbor id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lps {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// Undirected edge; stored with u < v (normalized on construction).
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// One incidence-list entry, materialized on demand from the columns.
struct Incidence {
  NodeId to;
  EdgeId edge;
  friend bool operator==(const Incidence&, const Incidence&) = default;
};

/// A zip view over one vertex's slice of (adj_to, adj_edge). Iterators
/// are random-access and yield Incidence by value, so the ubiquitous
/// `for (const Incidence& inc : g.neighbors(v))` loops and the
/// std::lower_bound in find_edge work unchanged on the columnar layout.
class NeighborView {
 public:
  class iterator {
   public:
    using value_type = Incidence;
    using reference = Incidence;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::random_access_iterator_tag;

    iterator() = default;
    iterator(const NodeId* to, const EdgeId* edge) : to_(to), edge_(edge) {}

    Incidence operator*() const { return {*to_, *edge_}; }
    Incidence operator[](difference_type i) const { return {to_[i], edge_[i]}; }

    iterator& operator++() { ++to_; ++edge_; return *this; }
    iterator operator++(int) { iterator t = *this; ++*this; return t; }
    iterator& operator--() { --to_; --edge_; return *this; }
    iterator operator--(int) { iterator t = *this; --*this; return t; }
    iterator& operator+=(difference_type d) { to_ += d; edge_ += d; return *this; }
    iterator& operator-=(difference_type d) { to_ -= d; edge_ -= d; return *this; }
    friend iterator operator+(iterator it, difference_type d) { return it += d; }
    friend iterator operator+(difference_type d, iterator it) { return it += d; }
    friend iterator operator-(iterator it, difference_type d) { return it -= d; }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return a.to_ - b.to_;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.to_ == b.to_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.to_ <=> b.to_;
    }

   private:
    const NodeId* to_ = nullptr;
    const EdgeId* edge_ = nullptr;
  };

  NeighborView() = default;
  NeighborView(const NodeId* to, const EdgeId* edge, std::size_t size)
      : to_(to), edge_(edge), size_(size) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  Incidence operator[](std::size_t i) const { return {to_[i], edge_[i]}; }
  Incidence front() const { return (*this)[0]; }
  Incidence back() const { return (*this)[size_ - 1]; }
  iterator begin() const { return {to_, edge_}; }
  iterator end() const { return {to_ + size_, edge_ + size_}; }

  /// Raw column pointers (the engine's inbox precompute reads these).
  const NodeId* to_data() const noexcept { return to_; }
  const EdgeId* edge_data() const noexcept { return edge_; }

 private:
  const NodeId* to_ = nullptr;
  const EdgeId* edge_ = nullptr;
  std::size_t size_ = 0;
};

/// View over the (edge_u, edge_v) columns presenting the old
/// `const std::vector<Edge>&` surface: iteration, indexing, size, ==.
class EdgeListView {
 public:
  class iterator {
   public:
    using value_type = Edge;
    using reference = Edge;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::random_access_iterator_tag;

    iterator() = default;
    iterator(const NodeId* u, const NodeId* v) : u_(u), v_(v) {}
    Edge operator*() const { return {*u_, *v_}; }
    iterator& operator++() { ++u_; ++v_; return *this; }
    iterator operator++(int) { iterator t = *this; ++*this; return t; }
    iterator& operator+=(difference_type d) { u_ += d; v_ += d; return *this; }
    friend iterator operator+(iterator it, difference_type d) { return it += d; }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return a.u_ - b.u_;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.u_ == b.u_;
    }

   private:
    const NodeId* u_ = nullptr;
    const NodeId* v_ = nullptr;
  };

  EdgeListView() = default;
  EdgeListView(const NodeId* u, const NodeId* v, std::size_t size)
      : u_(u), v_(v), size_(size) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  Edge operator[](std::size_t i) const { return {u_[i], v_[i]}; }
  iterator begin() const { return {u_, v_}; }
  iterator end() const { return {u_ + size_, v_ + size_}; }

  friend bool operator==(const EdgeListView& a, const EdgeListView& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  const NodeId* u_ = nullptr;
  const NodeId* v_ = nullptr;
  std::size_t size_ = 0;
};

/// Holder for GraphStore's lazily built reverse-arc table. A copy (or
/// copy-assignment) never carries the table over: the copy's columns
/// may be edited before first use, so it builds its own. A move hands
/// the table over with the columns it describes and leaves the source
/// without one.
class RevSlotCache {
 public:
  RevSlotCache() = default;
  RevSlotCache(const RevSlotCache&) : RevSlotCache() {}
  RevSlotCache(RevSlotCache&& o)
      : state_(std::exchange(o.state_, std::make_unique<State>())) {}
  RevSlotCache& operator=(const RevSlotCache&) {
    state_ = std::make_unique<State>();
    return *this;
  }
  RevSlotCache& operator=(RevSlotCache&& o) {
    state_ = std::exchange(o.state_, std::make_unique<State>());
    return *this;
  }

 private:
  friend struct GraphStore;
  struct State {
    std::once_flag once;
    std::vector<std::uint32_t> table;
    std::string error;  // set instead of the table for a malformed store
  };
  std::unique_ptr<State> state_ = std::make_unique<State>();
};

struct GraphStore {
  NodeId n = 0;
  NodeId max_degree = 0;
  std::vector<std::uint64_t> offsets;  // n+1
  std::vector<NodeId> adj_to;          // 2m, sorted per row
  std::vector<EdgeId> adj_edge;        // 2m, parallel to adj_to
  std::vector<NodeId> edge_u;          // m, u < v
  std::vector<NodeId> edge_v;          // m

  EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(edge_u.size());
  }
  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(offsets[v + 1] - offsets[v]);
  }
  NeighborView row(NodeId v) const {
    const std::uint64_t b = offsets[v];
    return {adj_to.data() + b, adj_edge.data() + b,
            static_cast<std::size_t>(offsets[v + 1] - b)};
  }
  Edge edge(EdgeId e) const { return {edge_u[e], edge_v[e]}; }
  EdgeListView edge_list() const {
    return {edge_u.data(), edge_v.data(), edge_u.size()};
  }

  /// Build from an edge list: normalize endpoints to u < v, reject
  /// self-loops / duplicates / out-of-range endpoints, counting-sort the
  /// incidence columns, establish the sorted-row invariant. Duplicate
  /// detection is sort-based, O(m log m) with flat memory — no hash
  /// table, so n = 2^24-scale builds stay cheap.
  static GraphStore build(NodeId n, std::vector<Edge> edges);

  /// The reverse-arc table, one entry per arc: for arc a = v -> to,
  /// rev_slot()[a] is v's position in to's row, so the mirror arc is
  /// offsets[to] + rev_slot()[a]. It depends on topology only, so every
  /// SyncNetwork on the store shares it. Built on first call (thread-
  /// safe, one O(n + m) transpose pass) and never by build(); throws
  /// std::logic_error if the rows are not sorted or not mirrored.
  const std::vector<std::uint32_t>& rev_slot() const;

  /// The shared empty store default-constructed Graphs point at.
  static const std::shared_ptr<const GraphStore>& empty();

 private:
  RevSlotCache rev_slot_;
};

}  // namespace lps
