// Shared identity harness for the 8 engine-backed registry solvers:
// one representative instance per client plus the solve/compare
// helpers, and ForcedShards, the one way a test above the engine picks
// a shard plan. Used by test_sharding.cpp (bit-identity across
// shard/thread plans) and test_telemetry.cpp (bit-identity with
// telemetry on vs off) — any knob that claims to be execution-neutral
// proves it against this matrix.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "api/registry.hpp"
#include "api/runner.hpp"  // make_instance
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"

namespace lps::test_support {

/// While alive, every network built on an n-node graph runs `count`
/// shards: solvers take the engine's auto plan, so this fakes the L2
/// that plan reads (runtime/shard's ScopedCacheOverride) at twice the
/// engine state of ceil(n / count) vertices. Checks that the plan really
/// has `count` shards, which needs shards of at least 1024 vertices.
class ForcedShards {
 public:
  ForcedShards(NodeId n, unsigned count) : override_(fake_cache(n, count)) {
    EXPECT_EQ(plan_shards(n, /*requested=*/0).count, count) << "n=" << n;
  }

 private:
  static CacheInfo fake_cache(NodeId n, unsigned count) {
    CacheInfo cache;
    const std::size_t width =
        std::max<std::size_t>((std::size_t{n} + count - 1) / count, 1024);
    cache.l2_bytes = 2 * width * kEngineBytesPerVertex;
    return cache;
  }

  ScopedCacheOverride override_;
};

struct ShardCase {
  const char* solver;
  const char* generator;  // api::make_instance spec
  const char* config;     // extra solver config ("" = defaults)
};

// One instance per engine-backed solver, sized so forced shard counts
// are genuinely different partitions (shard width is >= 1024: n = 4096
// gives up to 4 shards, n = 2048 two) while the whole matrix stays
// test-suite fast. The multi-phase solvers (aug/conflict/black-box
// stacks) run hundreds of engine executions per solve, so they get the
// smaller instances — the engine code exercised per shard plan is
// identical.
inline constexpr ShardCase kEngineCases[] = {
    {"israeli_itai", "er:n=4096,deg=4", ""},
    {"bipartite_mcm", "bipartite:nx=1024,ny=1024,deg=3", "k=2"},
    {"general_mcm", "er:n=2048,deg=3", "k=3"},
    {"generic_mcm", "tree:n=2048", ""},
    {"hoepman_mwm", "er:n=2048,deg=4,w=uniform,wlo=1,whi=100", ""},
    {"class_mwm", "er:n=2048,deg=4,w=pow2,wlevels=5", ""},
    {"weighted_mwm", "er:n=2048,deg=4,w=uniform,wlo=1,whi=100", ""},
    {"pipelined_max", "tree:n=4096", ""},
};

inline api::Instance case_instance(const ShardCase& c) {
  return api::make_instance(c.generator, /*seed=*/7);
}

inline api::SolveResult solve_with(const ShardCase& c, ThreadPool* pool) {
  api::SolverConfig cfg = api::SolverConfig::parse(c.config);
  cfg.seed(11).pool(pool);
  return api::SolverRegistry::global().at(c.solver).solve(case_instance(c),
                                                          cfg);
}

inline void expect_identical(const api::SolveResult& a,
                             const api::SolveResult& b,
                             const std::string& label) {
  EXPECT_EQ(a.matching, b.matching) << label;
  EXPECT_EQ(a.stats.rounds, b.stats.rounds) << label;
  EXPECT_EQ(a.stats.messages, b.stats.messages) << label;
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits) << label;
  EXPECT_EQ(a.stats.max_message_bits, b.stats.max_message_bits) << label;
  EXPECT_EQ(a.metrics, b.metrics) << label;
}

}  // namespace lps::test_support
