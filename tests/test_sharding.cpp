// Sharded execution is a pure locality optimization: for every engine
// client, every shard count, and every thread count, the execution must
// be bit-identical — same matching, same message/bit/round counts, same
// metrics (DESIGN.md §11). Solvers take the engine's auto plan, so this
// suite forces plans through the cache seam (ForcedShards) and checks,
// for all 8 engine-backed solvers (case matrix + helpers shared with
// test_telemetry via engine_cases.hpp), that 1, 2 and 4 shards agree
// wherever the instance is wide enough for them. It also checks that
// the LCA oracles (which never see the engine) agree with sharded
// global runs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "engine_cases.hpp"
#include "graph/generators.hpp"
#include "lca/oracle.hpp"
#include "runtime/engine.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

using api::Instance;
using api::SolveResult;
using api::SolverConfig;
using api::SolverRegistry;
using test_support::ForcedShards;
using test_support::ShardCase;
using test_support::case_instance;
using test_support::expect_identical;
using test_support::kEngineCases;
using test_support::solve_with;

const auto& kCases = kEngineCases;

/// The shard counts a case runs: 1, 2 and 4 at n = 4096, 1 and 2 at
/// n = 2048 (a shard is at least 1024 vertices wide).
std::vector<unsigned> shard_counts(NodeId n) {
  EXPECT_TRUE(n == 2048 || n == 4096) << "n=" << n;
  std::vector<unsigned> counts;
  for (const unsigned s : {1u, 2u, 4u}) {
    if (std::size_t{s} * 1024 <= n) counts.push_back(s);
  }
  return counts;
}

TEST(Sharding, AllEngineClientsBitIdenticalAcrossShardCounts) {
  for (const ShardCase& c : kCases) {
    const NodeId n = case_instance(c).graph().num_nodes();
    SolveResult base;
    for (const unsigned shards : shard_counts(n)) {
      const ForcedShards forced(n, shards);
      SolveResult r = solve_with(c, nullptr);
      if (shards == 1) {
        base = std::move(r);
      } else {
        expect_identical(base, r,
                         std::string(c.solver) + " shards=" +
                             std::to_string(shards) + " vs 1");
      }
    }
  }
}

TEST(Sharding, ShardsAndThreadsComposeBitIdentically) {
  ThreadPool pool(4);
  for (const ShardCase& c : kCases) {
    const NodeId n = case_instance(c).graph().num_nodes();
    SolveResult base;
    {
      const ForcedShards forced(n, 1);
      base = solve_with(c, nullptr);
    }
    for (const unsigned shards : shard_counts(n)) {
      const ForcedShards forced(n, shards);
      const SolveResult r = solve_with(c, &pool);
      expect_identical(base, r,
                       std::string(c.solver) + " shards=" +
                           std::to_string(shards) + " threads=4 vs 1/seq");
    }
  }
}

// The tests above compare plans of one build with each other, so a
// change that alters every plan alike would pass them. These
// fingerprints pin the executions themselves (instance seed 7, solver
// seed 11, the host's auto plan, no pool); a change that is meant to be
// execution-neutral must leave every one of them untouched. The
// matching itself is pinned by an order-independent hash of its edge
// ids (the wrapping sum of splitmix64(e)) and, on weighted instances,
// by its exact weight.
struct PinnedExecution {
  const char* solver;
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t total_bits;
  std::uint64_t max_message_bits;
  std::size_t matching_size;
  std::uint64_t edge_hash;
  double weight;  // 0 on unweighted instances
};

constexpr PinnedExecution kPinned[] = {
    {"israeli_itai", 36, 16959, 135672, 8, 1694, 0xe897751c54eb0195, 0.0},
    {"bipartite_mcm", 48, 9891, 152819, 77, 854, 0x8c224d06ec6e341d, 0.0},
    {"general_mcm", 2760, 1801129, 2019940, 77, 893, 0x6cf83c19c93556be,
     0.0},
    {"generic_mcm", 76, 83976, 9785435, 644, 875, 0xae8e42463c1a2893, 0.0},
    {"hoepman_mwm", 9, 11199, 22398, 2, 818, 0x20670b7e1b105a3c,
     60987.13688928014},
    {"class_mwm", 56, 30660, 271884, 12, 775, 0xa00cf45ea0f50ad7, 9006.0},
    {"weighted_mwm", 161, 68895, 2588092, 64, 863, 0xc185192753f9eb8c,
     62413.380134112987},
    {"pipelined_max", 125, 4095, 32760, 8, 0, 0x0, 0.0},
};

TEST(Sharding, ExecutionsMatchPinnedFingerprints) {
  ASSERT_EQ(std::size(kPinned), std::size(kCases));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const ShardCase& c = kCases[i];
    const PinnedExecution& pin = kPinned[i];
    ASSERT_EQ(std::string(c.solver), pin.solver);
    const Instance inst = api::make_instance(c.generator, /*seed=*/7);
    const SolveResult r = solve_with(c, nullptr);
    EXPECT_EQ(r.stats.rounds, pin.rounds) << c.solver;
    EXPECT_EQ(r.stats.messages, pin.messages) << c.solver;
    EXPECT_EQ(r.stats.total_bits, pin.total_bits) << c.solver;
    EXPECT_EQ(r.stats.max_message_bits, pin.max_message_bits) << c.solver;
    EXPECT_EQ(r.matching.size(), pin.matching_size) << c.solver;
    std::uint64_t edge_hash = 0;
    for (EdgeId e : r.matching.edge_ids(inst.graph())) {
      edge_hash += splitmix64(e);
    }
    EXPECT_EQ(edge_hash, pin.edge_hash) << c.solver;
    const double weight =
        inst.has_weights() ? r.matching.weight(inst.weighted_graph()) : 0.0;
    EXPECT_EQ(weight, pin.weight) << c.solver;
  }
}

TEST(Sharding, LcaOracleAgreesWithShardedGlobalRun) {
  // The oracle simulates the virtual global execution per query and
  // never touches the engine; its answers must match a sharded global
  // solve edge for edge (same consistency contract as test_lca.cpp,
  // now with a nontrivial shard plan on the global side).
  const Instance inst = api::make_instance("er:n=4096,deg=4", /*seed=*/7);
  for (const std::string& name : lca::oracle_names()) {
    SolverConfig cfg;
    cfg.seed(11);
    const SolveResult global = [&] {
      const ForcedShards forced(inst.graph().num_nodes(), 4);
      return SolverRegistry::global().at(name).solve(inst, cfg);
    }();
    lca::OracleOptions opts;
    opts.seed = 11;
    const auto oracle = lca::make_oracle(name, inst.graph(), opts);
    for (EdgeId e = 0; e < inst.graph().num_edges(); ++e) {
      ASSERT_EQ(oracle->in_matching(e),
                global.matching.contains(inst.graph(), e))
          << name << " disagrees at edge " << e;
    }
  }
}

TEST(ShardPlan, WidthAndCoverage) {
  // Forced counts: power-of-two width >= 1024 covering [0, n).
  for (NodeId n : {0u, 1u, 1023u, 1024u, 4096u, 100000u}) {
    for (unsigned req : {0u, 1u, 2u, 8u, 4096u}) {
      const ShardPlan plan = plan_shards(n, req);
      ASSERT_GE(plan.count, 1u);
      ASSERT_LE(plan.count, 4096u);
      if (req >= 1) {
        ASSERT_LE(plan.count, std::max(req, 1u));
      }
      ASSERT_GE(std::uint64_t{1} << plan.shift, 1024u);
      // Every vertex maps to a shard, ranges tile [0, n) exactly.
      NodeId covered = 0;
      for (unsigned s = 0; s < plan.count; ++s) {
        ASSERT_EQ(plan.shard_begin(s), covered);
        ASSERT_LE(plan.shard_begin(s), plan.shard_end(s));
        for (NodeId v = plan.shard_begin(s); v < plan.shard_end(s);
             v = (plan.shard_end(s) - v > 500 ? v + 499 : v + 1)) {
          ASSERT_EQ(plan.shard_of(v), s);
        }
        covered = plan.shard_end(s);
      }
      ASSERT_EQ(covered, n);
    }
  }
}

TEST(CacheDetect, FallbackWhenSysfsAbsent) {
  // No sysfs (containers, non-Linux): every field keeps its conservative
  // default.
  const CacheInfo info = detect_cache_at("/nonexistent/lps-cache-test");
  EXPECT_EQ(info.l1d_bytes, std::size_t{32} << 10);
  EXPECT_EQ(info.l2_bytes, std::size_t{1} << 20);
  EXPECT_EQ(info.l3_bytes, std::size_t{8} << 20);
}

TEST(CacheDetect, ReadsSyntheticSysfs) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "lps_cache_sysfs";
  fs::remove_all(root);
  auto write = [&](const std::string& index, const std::string& file,
                   const std::string& content) {
    fs::create_directories(root / index);
    std::ofstream(root / index / file) << content << "\n";
  };
  // index0: L1 Instruction — must be skipped for l1d sizing.
  write("index0", "level", "1");
  write("index0", "type", "Instruction");
  write("index0", "size", "64K");
  // index1: L1 Data 48K.
  write("index1", "level", "1");
  write("index1", "type", "Data");
  write("index1", "size", "48K");
  // index2/index3: L2/L3.
  write("index2", "level", "2");
  write("index2", "type", "Unified");
  write("index2", "size", "2048K");
  write("index3", "level", "3");
  write("index3", "type", "Unified");
  write("index3", "size", "16M");

  const CacheInfo info = detect_cache_at(root.string());
  EXPECT_EQ(info.l1d_bytes, std::size_t{48} << 10);
  EXPECT_EQ(info.l2_bytes, std::size_t{2048} << 10);
  EXPECT_EQ(info.l3_bytes, std::size_t{16} << 20);
  fs::remove_all(root);
}

TEST(CacheDetect, OverrideFakesTheL2UntilItEnds) {
  // The seam the solver-level identity tests force plans through: a
  // faked L2 moves the auto plan of every network built meanwhile, and
  // detect_cache() reads sysfs again once the override ends.
  Rng rng(3);
  const Graph g = erdos_renyi(4096, 4.0 / 4096, rng);
  for (const auto& [l2, shards] :
       {std::pair{std::size_t{128} << 10, 4u},
        std::pair{std::size_t{256} << 10, 2u},
        std::pair{std::size_t{64} << 20, 1u}}) {
    CacheInfo fake;
    fake.l2_bytes = l2;
    const ScopedCacheOverride override_l2(fake);
    EXPECT_EQ(detect_cache().l2_bytes, l2);
    EXPECT_EQ(plan_shards(4096, 0).count, shards) << "L2 " << l2;
    const SyncNetwork<std::uint32_t> net(g, /*seed=*/1);
    EXPECT_EQ(net.shards(), shards) << "L2 " << l2;
  }
  const CacheInfo sysfs = detect_cache_at("/sys/devices/system/cpu/cpu0/cache");
  EXPECT_EQ(detect_cache().l1d_bytes, sysfs.l1d_bytes);
  EXPECT_EQ(detect_cache().l2_bytes, sysfs.l2_bytes);
  EXPECT_EQ(detect_cache().l3_bytes, sysfs.l3_bytes);
}

TEST(ShardPlan, AutoPlanTracksDetectedCache) {
  const CacheInfo& cache = detect_cache();
  ASSERT_GT(cache.l2_bytes, 0u);
  ASSERT_GT(cache.l3_bytes, 0u);
  // The auto plan targets ~half of L2 per shard: shard width (in
  // engine bytes) must be within a power-of-two rounding of it.
  const NodeId n = 1u << 22;
  const ShardPlan plan = plan_shards(n, 0);
  const std::uint64_t width = std::uint64_t{1} << plan.shift;
  const std::uint64_t bytes = width * kEngineBytesPerVertex;
  const std::uint64_t target =
      std::max<std::uint64_t>(cache.l2_bytes / 2, 64u << 10);
  EXPECT_LT(bytes, 4 * target);
  EXPECT_GT(bytes * 4, target);
}

}  // namespace
}  // namespace lps
