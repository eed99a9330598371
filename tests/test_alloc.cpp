// Heap-allocation guard for the per-message hot paths: a warm counting
// pass (Algorithm 3) and an Israeli-Itai solve must allocate a bounded
// number of heap blocks, not one per message. The binary replaces the
// global operator new/delete with a counter over malloc/free, which is
// why it is a test executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/bipartite_counting.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "util/bigint.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_blocks{0};
}  // namespace

void* operator new(std::size_t size) {
  g_blocks.fetch_add(1, std::memory_order_relaxed);
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
