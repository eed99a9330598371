// Heap-allocation guards for the hot paths: a warm counting pass
// (Algorithm 3) and an Israeli-Itai solve must allocate a bounded number
// of heap blocks, not one per message, and warm Aug calls over Ĝ must
// allocate nothing graph-sized. The binary replaces the global operator
// new/delete with a counter over malloc/free, which is why it is a test
// executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/bipartite_counting.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "util/bigint.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_blocks{0};
std::atomic<std::size_t> g_largest{0};  // largest block since last cleared
}  // namespace

void* operator new(std::size_t size) {
  g_blocks.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lps {
namespace {

/// Heap blocks allocated while `fn` runs.
template <class Fn>
std::uint64_t blocks_during(Fn&& fn) {
  const std::uint64_t before = g_blocks.load();
  fn();
  return g_blocks.load() - before;
}

/// The largest heap block allocated while `fn` runs (0 if none).
template <class Fn>
std::size_t largest_block_during(Fn&& fn) {
  g_largest.store(0);
  fn();
  return g_largest.load();
}

TEST(Alloc, WarmCountingPassAllocatesNoBlockPerMessage) {
  Rng rng(1);
  const auto bg = random_bipartite(4096, 4096, 4.0 / 4096, rng);
  BipartiteMcmOptions opts;
  opts.k = 1;
  const Matching m = bipartite_mcm(bg.graph, bg.side, opts).matching;
  CountingResult out;
  count_augmenting_paths(bg.graph, bg.side, m, 5, {}, out);  // warm-up
  const std::uint64_t blocks = blocks_during(
      [&] { count_augmenting_paths(bg.graph, bg.side, m, 5, {}, out); });
  ASSERT_GT(out.stats.messages, 10000u);
  EXPECT_LT(blocks * 100, out.stats.messages)
      << blocks << " blocks for " << out.stats.messages << " messages";
  // The pass sends what the warm-up sent, into message columns that kept
  // their capacity across the reset: only the pass's own short lists
  // (its free sources) may grow.
  EXPECT_LE(blocks, 16u) << out.stats.messages << " messages";
}

TEST(Alloc, IsraeliItaiSolveAllocatesNoBlockPerMessage) {
  Rng rng(2);
  const NodeId n = NodeId{1} << 14;
  const Graph g = erdos_renyi(n, 4.0 / n, rng);
  IsraeliItaiOptions opts;
  opts.seed = 3;
  (void)israeli_itai(g, opts);  // warm-up
  DistMatchingResult res;
  const std::uint64_t blocks =
      blocks_during([&] { res = israeli_itai(g, opts); });
  ASSERT_GT(res.stats.messages, 10000u);
  EXPECT_LT(blocks * 100, res.stats.messages)
      << blocks << " blocks for " << res.stats.messages << " messages";
}

TEST(Alloc, WarmAugOverGHatAllocatesNoArcTableBlock) {
  // general_mcm's warm iterations: Aug over a fresh Ĝ per call, from a
  // near-maximal matching, with one scratch kept across calls. The first
  // call builds the networks and per-node columns; later calls may only
  // grow message-sized columns, never a block as large as one arc table.
  Rng rng(4);
  const NodeId n = NodeId{1} << 14;
  const Graph g = erdos_renyi(n, 4.0 / n, rng);
  IsraeliItaiOptions io;
  io.seed = 5;
  const Matching maximal = israeli_itai(g, io).matching;
  const std::size_t arc_table = 2 * std::size_t{g.num_edges()} * 8;

  // Ĝ as general_mcm's on-demand view, from its list of free nodes.
  Matching view_m = maximal;
  std::vector<NodeId> free;
  for (NodeId v = 0; v < n; ++v) {
    if (view_m.is_free(v)) free.push_back(v);
  }
  AugScratch view_scratch;
  const auto view_call = [&](std::uint64_t iter) {
    const BichromaticSubgraph h(g, view_m, 7, iter);
    AugOptions opts;
    opts.seed = iter;
    return bipartite_aug(g, h, view_m, 5, free, opts, view_scratch);
  };
  // The same Ĝ as masks, built before each measured call.
  Matching mask_m = maximal;
  AugScratch mask_scratch;
  std::vector<std::uint8_t> color(n);
  std::vector<char> mask(g.num_edges());
  const auto fill_masks = [&](std::uint64_t iter) {
    const BichromaticSubgraph h(g, mask_m, 7, iter);
    for (NodeId v = 0; v < n; ++v) color[v] = h.side(v);
    for (EdgeId e = 0; e < g.num_edges(); ++e) mask[e] = h.active(e);
  };
  const auto mask_call = [&](std::uint64_t iter) {
    AugOptions opts;
    opts.seed = iter;
    return bipartite_aug(g, color, mask_m, 5, mask, opts, mask_scratch);
  };

  view_call(0);  // warm-up
  fill_masks(0);
  mask_call(0);
  std::size_t paths = 0;
  for (std::uint64_t iter = 1; iter <= 8; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    AugResult res;
    EXPECT_LT(largest_block_during([&] { res = view_call(iter); }), arc_table);
    paths += res.paths_applied;
    fill_masks(iter);
    EXPECT_LT(largest_block_during([&] { res = mask_call(iter); }), arc_table);
    EXPECT_EQ(mask_m, view_m);
  }
  EXPECT_GT(paths, 0u);  // the calls did augment
}

TEST(Alloc, ClearedSpilledCounterRegrowsInItsBlock) {
  // CountingResult's reuse contract: a cleared count keeps its heap
  // block, so refilling it to its old width from one-limb operands
  // allocates nothing.
  BigCounter x(~0ULL);
  x += BigCounter(1);  // 2^64: spilled
  const std::uint64_t blocks = blocks_during([&] {
    x.clear();
    x += BigCounter(~0ULL);
    x += BigCounter(1);
  });
  EXPECT_EQ(blocks, 0u);
  EXPECT_EQ(x.bit_size(), 65u);
}

}  // namespace
}  // namespace lps
