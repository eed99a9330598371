#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace lps {

namespace {

/// Node and edge counts a generator forms as sums or products of its
/// parameters, checked before anything is allocated: ids are u32 and
/// kInvalidNode / kInvalidEdge are reserved, so a count past that range
/// would wrap.
NodeId node_count(const char* generator, std::uint64_t n) {
  if (n > kInvalidNode - 1) {
    throw std::invalid_argument(std::string(generator) + ": " +
                                std::to_string(n) +
                                " nodes exceed the NodeId range");
  }
  return static_cast<NodeId>(n);
}

void check_edge_count(const char* generator, std::uint64_t m) {
  if (m > kInvalidEdge - 1) {
    throw std::invalid_argument(std::string(generator) + ": " +
                                std::to_string(m) +
                                " edges exceed the EdgeId range");
  }
}

/// A density-p sample of `total` pairs: its edge count is `total` at
/// p >= 1 and expected p * total below that. An expectation past EdgeId
/// is refused before sampling, which would otherwise collect billions of
/// edges before the graph could refuse them.
void check_sampled_edges(const char* generator, std::uint64_t total,
                         double p) {
  if (p >= 1.0) return check_edge_count(generator, total);
  const double expected = p * static_cast<double>(total);
  if (expected > static_cast<double>(kInvalidEdge - 1)) {
    throw std::invalid_argument(
        std::string(generator) + ": an expected " +
        std::to_string(static_cast<std::uint64_t>(expected)) +
        " edges exceed the EdgeId range");
  }
}

/// A NaN density fails both the p <= 0 and the p >= 1 test of
/// sample_pairs, so it reaches the geometric walk, whose NaN skips never
/// end it.
void check_density(const char* generator, double p) {
  if (std::isnan(p)) {
    throw std::invalid_argument(std::string(generator) + ": p is NaN");
  }
}

}  // namespace

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph(n, std::move(edges));
}

Graph cycle_graph(NodeId n) {
  if (n < 3) throw std::invalid_argument("cycle_graph: n must be >= 3");
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  edges.push_back({0, n - 1});
  return Graph(n, std::move(edges));
}

Graph complete_graph(NodeId n) {
  check_edge_count("complete_graph",
                   static_cast<std::uint64_t>(n) * (n - 1) / 2);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph(n, std::move(edges));
}

Graph star_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  return Graph(n, std::move(edges));
}

Graph grid_graph(NodeId rows, NodeId cols) {
  const NodeId n =
      node_count("grid_graph", static_cast<std::uint64_t>(rows) * cols);
  if (n != 0) {
    check_edge_count("grid_graph",
                     static_cast<std::uint64_t>(rows) * (cols - 1) +
                         static_cast<std::uint64_t>(rows - 1) * cols);
  }
  std::vector<Edge> edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Graph(n, std::move(edges));
}

Graph binary_tree(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({(v - 1) / 2, v});
  return Graph(n, std::move(edges));
}

Graph complete_bipartite(NodeId a, NodeId b) {
  const NodeId n =
      node_count("complete_bipartite", static_cast<std::uint64_t>(a) + b);
  check_edge_count("complete_bipartite", static_cast<std::uint64_t>(a) * b);
  std::vector<Edge> edges;
  for (NodeId x = 0; x < a; ++x) {
    for (NodeId y = 0; y < b; ++y) edges.push_back({x, a + y});
  }
  return Graph(n, std::move(edges));
}

namespace {

/// Iterate the pairs selected by independent-p sampling using geometric
/// jumps: after the current index, skip Geometric(p) positions.
template <typename Emit>
void sample_pairs(std::uint64_t total, double p, Rng& rng, Emit emit) {
  if (p <= 0.0 || total == 0) return;
  if (p >= 1.0) {
    for (std::uint64_t i = 0; i < total; ++i) emit(i);
    return;
  }
  const double log1mp = std::log1p(-p);
  double index = -1.0;
  for (;;) {
    const double skip = std::floor(std::log(rng.uniform01_open()) / log1mp);
    index += skip + 1.0;
    if (index >= static_cast<double>(total)) break;
    emit(static_cast<std::uint64_t>(index));
  }
}

}  // namespace

Graph erdos_renyi(NodeId n, double p, Rng& rng) {
  check_density("erdos_renyi", p);
  std::vector<Edge> edges;
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  check_sampled_edges("erdos_renyi", total, p);
  sample_pairs(total, p, rng, [&](std::uint64_t idx) {
    // Decode linear index to (u,v), u < v, row-major over the triangle.
    const NodeId u = static_cast<NodeId>(
        n - 2 -
        static_cast<NodeId>(std::floor(
            (std::sqrt(8.0 * (static_cast<double>(total - 1 - idx)) + 1.0) -
             1.0) /
            2.0)));
    const std::uint64_t used =
        static_cast<std::uint64_t>(u) * n - static_cast<std::uint64_t>(u) * (u + 1) / 2;
    const NodeId v = static_cast<NodeId>(u + 1 + (idx - used));
    edges.push_back({u, v});
  });
  // The floating-point decode above can go wrong at huge n; verify and
  // fall back to exact decode if needed.
  for (Edge& e : edges) {
    if (e.u >= n || e.v >= n || e.u >= e.v) {
      throw std::logic_error("erdos_renyi: index decode failure");
    }
  }
  return Graph(n, std::move(edges));
}

BipartiteGraph random_bipartite(NodeId nx, NodeId ny, double p, Rng& rng) {
  check_density("random_bipartite", p);
  const NodeId n =
      node_count("random_bipartite", static_cast<std::uint64_t>(nx) + ny);
  check_sampled_edges("random_bipartite", static_cast<std::uint64_t>(nx) * ny,
                      p);
  BipartiteGraph out;
  out.nx = nx;
  out.ny = ny;
  std::vector<Edge> edges;
  sample_pairs(static_cast<std::uint64_t>(nx) * ny, p, rng,
               [&](std::uint64_t idx) {
                 const NodeId x = static_cast<NodeId>(idx / ny);
                 const NodeId y = static_cast<NodeId>(idx % ny);
                 edges.push_back({x, nx + y});
               });
  out.graph = Graph(n, std::move(edges));
  out.side.assign(n, 0);
  for (NodeId v = nx; v < n; ++v) out.side[v] = 1;
  return out;
}

BipartiteGraph random_bipartite_regular_left(NodeId nx, NodeId ny, NodeId d,
                                             Rng& rng) {
  if (d > ny) throw std::invalid_argument("regular_left: d > ny");
  const NodeId n =
      node_count("regular_left", static_cast<std::uint64_t>(nx) + ny);
  check_edge_count("regular_left", static_cast<std::uint64_t>(nx) * d);
  BipartiteGraph out;
  out.nx = nx;
  out.ny = ny;
  std::vector<Edge> edges;
  std::vector<NodeId> pool(ny);
  for (NodeId y = 0; y < ny; ++y) pool[y] = y;
  for (NodeId x = 0; x < nx; ++x) {
    // Partial Fisher–Yates: first d entries become x's neighbors.
    for (NodeId i = 0; i < d; ++i) {
      const NodeId j =
          i + static_cast<NodeId>(rng.below(ny - i));
      std::swap(pool[i], pool[j]);
      edges.push_back({x, nx + pool[i]});
    }
  }
  out.graph = Graph(n, std::move(edges));
  out.side.assign(n, 0);
  for (NodeId v = nx; v < n; ++v) out.side[v] = 1;
  return out;
}

Graph random_tree(NodeId n, Rng& rng) {
  if (n <= 1) return Graph(n, {});
  if (n == 2) return Graph(2, {{0, 1}});
  // Uniform labelled tree via Prüfer sequence decoding.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.below(n));
  std::vector<NodeId> degree(n, 1);
  for (NodeId x : prufer) ++degree[x];
  std::vector<Edge> edges;
  // Min-leaf extraction with a pointer (cp-algorithms style decode).
  NodeId ptr = 0;
  while (degree[ptr] != 1) ++ptr;
  NodeId leaf = ptr;
  for (NodeId x : prufer) {
    edges.push_back({leaf, x});
    if (--degree[x] == 1 && x < ptr) {
      leaf = x;  // new leaf below the pointer: use it immediately
    } else {
      ++ptr;
      while (degree[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  edges.push_back({leaf, static_cast<NodeId>(n - 1)});
  return Graph(n, std::move(edges));
}

Graph random_regular(NodeId n, NodeId d, Rng& rng) {
  if (static_cast<std::uint64_t>(n) * d % 2 != 0) {
    throw std::invalid_argument("random_regular: n*d must be even");
  }
  if (d >= n) throw std::invalid_argument("random_regular: d must be < n");
  check_edge_count("random_regular", static_cast<std::uint64_t>(n) * d / 2);
  constexpr int kMaxAttempts = 2000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * d);
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId i = 0; i < d; ++i) stubs.push_back(v);
    }
    rng.shuffle(stubs);
    std::vector<Edge> edges;
    std::unordered_set<std::uint64_t> seen;
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        ok = false;
        break;
      }
      if (u > v) std::swap(u, v);
      if (!seen.insert((static_cast<std::uint64_t>(u) << 32) | v).second) {
        ok = false;
        break;
      }
      edges.push_back({u, v});
    }
    if (ok) return Graph(n, std::move(edges));
  }
  throw std::runtime_error("random_regular: too many rejected pairings");
}

TightChain tight_bipartite_chain(int k, NodeId copies) {
  if (k < 1) throw std::invalid_argument("tight_bipartite_chain: k >= 1");
  // Each copy: vertices c*(2k+2) .. c*(2k+2) + 2k+1, path edges in
  // order; matched edges are the even-indexed ones within the copy
  // (0-indexed positions 1, 3, ..., 2k-1), i.e. every second edge
  // starting from the second — endpoints stay free.
  const std::uint64_t wide_stride = 2 * static_cast<std::uint64_t>(k) + 2;
  const NodeId n = node_count("tight_bipartite_chain", copies * wide_stride);
  check_edge_count("tight_bipartite_chain", copies * (wide_stride - 1));
  const NodeId stride = static_cast<NodeId>(wide_stride);
  std::vector<Edge> edges;
  std::vector<EdgeId> matched;
  for (NodeId c = 0; c < copies; ++c) {
    const NodeId base = c * stride;
    for (NodeId i = 0; i + 1 < stride; ++i) {
      const EdgeId id = static_cast<EdgeId>(edges.size());
      edges.push_back({base + i, base + i + 1});
      if (i % 2 == 1) matched.push_back(id);
    }
  }
  TightChain out{Graph(n, std::move(edges)), {}, std::move(matched)};
  out.side.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    out.side[v] = static_cast<std::uint8_t>(v % 2);
  }
  return out;
}

}  // namespace lps
