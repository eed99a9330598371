#include "core/pipelined_max.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/engine.hpp"

namespace lps {

namespace {

struct ChunkMsg {
  std::uint32_t chunk;
};

struct ChunkBits {
  std::uint64_t bits;
  std::uint64_t operator()(const ChunkMsg&) const noexcept { return bits; }
};

using ChunkNet = SyncNetwork<ChunkMsg, ChunkBits>;

}  // namespace

PipelinedMaxResult pipelined_max(
    const Graph& g, NodeId root,
    const std::vector<std::optional<BigCounter>>& values, int chunk_bits,
    ThreadPool* pool) {
  const NodeId n = g.num_nodes();
  if (chunk_bits < 1 || chunk_bits > 32) {
    throw std::invalid_argument("pipelined_max: chunk_bits out of range");
  }
  if (values.size() != n) {
    throw std::invalid_argument("pipelined_max: values size mismatch");
  }
  if (g.num_edges() + 1 != n) {
    throw std::invalid_argument("pipelined_max: graph is not a tree");
  }

  // BFS orientation toward the root.
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<EdgeId> parent_edge(n, kInvalidEdge);
  std::vector<std::uint32_t> depth(n, 0);
  std::vector<NodeId> order{root};
  std::vector<char> seen(n, 0);
  seen[root] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (const Graph::Incidence& inc : g.neighbors(v)) {
      if (seen[inc.to]) continue;
      seen[inc.to] = 1;
      parent[inc.to] = v;
      parent_edge[inc.to] = inc.edge;
      depth[inc.to] = depth[v] + 1;
      order.push_back(inc.to);
    }
  }
  if (order.size() != n) {
    throw std::invalid_argument("pipelined_max: tree is not connected");
  }
  const std::uint32_t tree_depth =
      *std::max_element(depth.begin(), depth.end());

  // Pad every value to a common chunk count j.
  std::size_t max_bits = 1;
  bool any = false;
  for (const auto& v : values) {
    if (v.has_value()) {
      any = true;
      max_bits = std::max(max_bits, v->bit_size());
    }
  }
  const std::size_t j =
      (max_bits + static_cast<std::size_t>(chunk_bits) - 1) /
      static_cast<std::size_t>(chunk_bits);
  PipelinedMaxResult result;
  result.tree_depth = tree_depth;
  result.chunk_count = j;
  result.any_value = any;
  if (!any) return result;

  // Per-node chunk streams for the local value ("no value" = all-zero
  // stream marked absent so it can never win over a real value; we model
  // absence with a qualified flag).
  std::vector<std::vector<std::uint32_t>> own(n);
  std::vector<char> own_qualified(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (values[v].has_value()) {
      own[v] = values[v]->to_chunks(chunk_bits, j);
      own_qualified[v] = 1;
    }
  }

  // Per-child qualification flags at CSR arc positions (offsets[v] + i
  // for v's i-th incidence — the same indexing the engine's inbox slots
  // use), and the output stream each node emits (recorded at the root
  // to reassemble the max).
  const std::vector<std::uint64_t>& adj_offset = g.store().offsets;
  std::vector<std::uint8_t> child_qualified(adj_offset[n], 1);
  std::vector<std::vector<std::uint32_t>> emitted(n);

  ChunkNet net(g, 0, ChunkBits{static_cast<std::uint64_t>(chunk_bits)});
  net.set_thread_pool(pool);

  // Node at depth d emits chunk i at round (tree_depth - d) + i.
  //
  // Active-set contract: a node's first emission round is known up
  // front, so the caller activates each depth cohort at its window
  // start (restricting the round-0 default) and keep_active carries the
  // node through the rest of its j-chunk window; per-round cost tracks
  // the advancing wavefront instead of the whole tree.
  auto step = [&](ChunkNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const std::uint64_t round = ctx.round();
    const std::uint64_t start = tree_depth - depth[v];
    if (round < start || round >= start + j) return;
    if (round + 1 < start + j) ctx.keep_active();
    const std::size_t i = static_cast<std::size_t>(round - start);

    // Merge this position: own chunk (if still qualified) vs child
    // chunks that arrived this round from still-qualified children. The
    // inbox slot IS the child's arc position — no row scan.
    std::uint32_t best = 0;
    bool have = false;
    if (own_qualified[v]) {
      best = own[v][i];
      have = true;
    }
    std::vector<std::pair<std::size_t, std::uint32_t>> arrived;
    for (const auto& in : ctx.inbox()) {
      if (in.from == parent[v]) continue;
      const std::size_t arc = adj_offset[v] + in.slot;
      if (!child_qualified[arc]) continue;
      arrived.emplace_back(arc, in.payload->chunk);
      best = have ? std::max(best, in.payload->chunk) : in.payload->chunk;
      have = true;
    }
    if (!have) return;  // no qualified source reaches v
    // Disqualify losers at this position (MSB-first elimination).
    if (own_qualified[v] && own[v][i] < best) own_qualified[v] = 0;
    for (const auto& [arc, chunk] : arrived) {
      if (chunk < best) child_qualified[arc] = 0;
    }
    emitted[v].push_back(best);
    if (v != root) {
      ctx.send(parent_edge[v], ChunkMsg{best});
    }
  };

  // Bucket nodes by window start = tree_depth - depth (deepest first).
  std::vector<std::vector<NodeId>> starts(tree_depth + 1);
  for (NodeId v = 0; v < n; ++v) {
    starts[tree_depth - depth[v]].push_back(v);
  }
  net.restrict_initial_active();
  const std::uint64_t total_rounds = tree_depth + j + 1;
  for (std::uint64_t r = 0; r < total_rounds; ++r) {
    if (r < starts.size()) {
      for (NodeId v : starts[r]) net.activate(v);
    }
    net.run_round(step);
  }
  result.stats = net.stats();
  result.maximum = BigCounter::from_chunks(emitted[root], chunk_bits);
  return result;
}

}  // namespace lps
