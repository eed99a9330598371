// Failure-injection and robustness tests: wrong-sized masks, degenerate
// inputs, hostile black boxes, exception propagation through the
// runtime, fuzzed Matching mutation sequences checked against a
// reference implementation, and metamorphic vertex relabeling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "core/bipartite_counting.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/class_mwm.hpp"
#include "core/israeli_itai.hpp"
#include "core/luby_mis.hpp"
#include "core/weighted_mwm.hpp"
#include "engine_cases.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "runtime/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "seq/blossom.hpp"
#include "seq/exact_small.hpp"
#include "seq/hopcroft_karp.hpp"
#include "seq/hungarian.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

// ------------------------------------------------ bad-input rejection --

TEST(Robustness, WrongSizedMasksAreRejected) {
  Rng rng(1);
  const Graph g = erdos_renyi(20, 0.2, rng);
  IsraeliItaiOptions opts;
  opts.active_edges.assign(g.num_edges() + 1, 1);
  EXPECT_THROW(israeli_itai(g, opts), std::invalid_argument);

  IsraeliItaiOptions bad_init;
  bad_init.initial = Matching(5);  // wrong node count
  EXPECT_THROW(israeli_itai(g, bad_init), std::invalid_argument);
}

TEST(Robustness, DegenerateGraphsEverywhere) {
  const Graph empty(0, {});
  const Graph isolated(6, {});
  // Every top-level algorithm must handle vertex-only graphs.
  EXPECT_EQ(israeli_itai(isolated).matching.size(), 0u);
  {
    BipartiteMcmOptions o;
    std::vector<std::uint8_t> side(6, 0);
    EXPECT_EQ(bipartite_mcm(isolated, side, o).matching.size(), 0u);
  }
  {
    const WeightedGraph wg{isolated, {}};
    WeightedMwmOptions o;
    EXPECT_EQ(weighted_mwm(wg, o).matching.size(), 0u);
    EXPECT_EQ(class_mwm(wg).matching.size(), 0u);
  }
  EXPECT_EQ(israeli_itai(empty).matching.size(), 0u);
}

TEST(Robustness, HostileBlackBoxStillYieldsValidMatching) {
  // A black box that returns the empty matching: Algorithm 5 makes no
  // progress but must stay valid and terminate at its budget.
  Rng rng(3);
  Graph g = erdos_renyi(20, 0.2, rng);
  auto w = uniform_weights(g.num_edges(), 1.0, 9.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  WeightedMwmOptions opts;
  opts.eps = 0.1;
  opts.black_box = [](const Graph& g, std::span<const double>, std::uint64_t,
                      NetStats*) { return Matching(g.num_nodes()); };
  const WeightedMwmResult res = weighted_mwm(wg, opts);
  EXPECT_EQ(res.matching.size(), 0u);
  EXPECT_TRUE(is_valid_matching(wg.graph, res.matching.edge_ids(wg.graph)));
  EXPECT_FALSE(res.converged_early);
}

TEST(Robustness, AdversarialBlackBoxCannotCorruptTheMatching) {
  // A black box that returns single arbitrary positive-gain edges: the
  // reduction's wrap application must keep the global matching valid.
  Rng rng(5);
  Graph g = erdos_renyi(24, 0.2, rng);
  auto w = uniform_weights(g.num_edges(), 1.0, 9.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  WeightedMwmOptions opts;
  opts.eps = 0.1;
  opts.black_box = [](const Graph& g, std::span<const double> gains,
                      std::uint64_t seed, NetStats*) {
    std::vector<EdgeId> positive;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (gains[e] > 0.0) positive.push_back(e);
    }
    Matching m(g.num_nodes());
    if (!positive.empty()) m.add(g, positive[seed % positive.size()]);
    return m;
  };
  const WeightedMwmResult res = weighted_mwm(wg, opts);
  EXPECT_TRUE(is_valid_matching(wg.graph, res.matching.edge_ids(wg.graph)));
  // Single positive-gain wraps strictly increase weight each iteration.
  for (std::size_t i = 1; i < res.weight_trajectory.size(); ++i) {
    EXPECT_GE(res.weight_trajectory[i] + 1e-9, res.weight_trajectory[i - 1]);
  }
}

TEST(Robustness, CountingRejectsInconsistentSides) {
  // A side labeling that leaves a *matched* edge monochromatic routes a
  // count through it and trips the structural parity check: node 1
  // (labeled Y) forwards to its mate node 2 (also labeled Y), which is
  // then first-reached at an even round.
  Graph g = path_graph(3);  // 0-1-2: node 2 is only reachable via 1
  Matching m(3);
  m.add(g, 1);  // matched edge 1-2, labeled monochromatic below
  EXPECT_THROW(count_augmenting_paths(g, {0, 1, 1}, m, 3, {}),
               std::logic_error);
}

// -------------------------------------------- runtime failure paths ----

struct ThrowMsg {
  int x;
};

TEST(Robustness, ExceptionsInStepPropagate) {
  const Graph g = path_graph(4);
  SyncNetwork<ThrowMsg> net(g, 1);
  EXPECT_THROW(net.run_round([&](SyncNetwork<ThrowMsg>::Ctx& ctx) {
    if (ctx.id() == 2) throw std::runtime_error("injected");
  }),
               std::runtime_error);
}

TEST(Robustness, EngineSurvivesZeroNodeGraph) {
  const Graph g(0, {});
  SyncNetwork<ThrowMsg> net(g, 1);
  std::uint64_t rounds =
      net.run(5, true, [&](SyncNetwork<ThrowMsg>::Ctx&) { FAIL(); });
  EXPECT_EQ(rounds, 1u);  // one silent round, then stop
}

// ------------------------------------------------ fuzzed Matching ------

TEST(Robustness, MatchingFuzzAgainstReferenceModel) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = erdos_renyi(16, 0.3, rng);
    if (g.num_edges() == 0) continue;
    Matching m(g.num_nodes());
    std::set<EdgeId> reference;
    for (int op = 0; op < 200; ++op) {
      const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
      const Edge& ed = g.edge(e);
      const bool in_ref = reference.count(e) > 0;
      EXPECT_EQ(m.contains(g, e), in_ref);
      if (in_ref) {
        if (rng.coin()) {
          m.remove(g, e);
          reference.erase(e);
        }
        continue;
      }
      // Insert if endpoints free in the reference.
      bool endpoint_taken = false;
      for (EdgeId other : reference) {
        const Edge& oe = g.edge(other);
        if (oe.u == ed.u || oe.u == ed.v || oe.v == ed.u || oe.v == ed.v) {
          endpoint_taken = true;
          break;
        }
      }
      if (endpoint_taken) {
        EXPECT_THROW(m.add(g, e), std::invalid_argument);
      } else {
        m.add(g, e);
        reference.insert(e);
      }
      EXPECT_EQ(m.size(), reference.size());
    }
    // Final cross-check of the full edge set.
    std::vector<EdgeId> ids = m.edge_ids(g);
    EXPECT_EQ(std::set<EdgeId>(ids.begin(), ids.end()), reference);
  }
}

// ----------------------------------- delivery-order perturbation -------
//
// The engine sorts every inbox into a canonical order; the `reorder`
// fault profile deterministically shuffles each receiver's inbox every
// round. A randomized protocol whose correctness leans on delivery
// order would break here; one whose *distribution* is order-invariant
// must produce valid results of statistically indistinguishable size.

struct SizeStats {
  double mean = 0.0;
  double stderr_mean = 0.0;
};

template <typename RunFn>
SizeStats size_distribution(RunFn&& run, int seeds) {
  std::vector<double> sizes;
  for (int s = 1; s <= seeds; ++s) {
    sizes.push_back(static_cast<double>(run(static_cast<std::uint64_t>(s))));
  }
  SizeStats st;
  for (const double x : sizes) st.mean += x;
  st.mean /= static_cast<double>(sizes.size());
  double var = 0.0;
  for (const double x : sizes) var += (x - st.mean) * (x - st.mean);
  var /= static_cast<double>(sizes.size() - 1);
  st.stderr_mean = std::sqrt(var / static_cast<double>(sizes.size()));
  return st;
}

/// Means are "indistinguishable" when they differ by less than four
/// pooled standard errors (plus an absolute floor for near-zero
/// variance cases) — loose enough to be seed-stable, tight enough to
/// catch any systematic order dependence.
void expect_indistinguishable(const SizeStats& a, const SizeStats& b) {
  const double tol = std::max(
      1.0, 4.0 * std::sqrt(a.stderr_mean * a.stderr_mean +
                           b.stderr_mean * b.stderr_mean));
  EXPECT_NEAR(a.mean, b.mean, tol);
}

TEST(Robustness, IsraeliItaiIndifferentToDeliveryOrder) {
  Rng rng(41);
  const Graph g = erdos_renyi(512, 8.0 / 512.0, rng);
  constexpr int kSeeds = 20;
  const auto run = [&](const std::string& faults) {
    return size_distribution(
        [&](std::uint64_t seed) {
          IsraeliItaiOptions opts;
          opts.seed = seed;
          opts.faults = faults;
          const DistMatchingResult res = israeli_itai(g, opts);
          EXPECT_TRUE(is_valid_matching(g, res.matching.edge_ids(g)));
          return res.matching.size();
        },
        kSeeds);
  };
  expect_indistinguishable(run(""), run("reorder"));
}

TEST(Robustness, LubyIndifferentToDeliveryOrder) {
  Rng rng(43);
  const Graph g = erdos_renyi(512, 8.0 / 512.0, rng);
  constexpr int kSeeds = 20;
  const auto run = [&](const std::string& faults) {
    return size_distribution(
        [&](std::uint64_t seed) {
          MisOptions opts;
          opts.seed = seed;
          opts.faults = faults;
          const MisResult res = luby_mis(g, opts);
          EXPECT_TRUE(is_independent_set(g, res.in_mis));
          std::size_t size = 0;
          for (const char c : res.in_mis) size += c != 0;
          return size;
        },
        kSeeds);
  };
  expect_indistinguishable(run(""), run("reorder"));
}

TEST(Robustness, ReorderedInboxesStayBitIdenticalAcrossThreads) {
  // The shuffle derives from (receiver, round), not from which worker
  // or shard sorts the inbox — so even the *perturbed* execution is
  // reproducible across thread and shard counts (n = 4096 is wide
  // enough for 4 shards).
  Rng rng(47);
  const Graph g = erdos_renyi(4096, 8.0 / 4096.0, rng);
  IsraeliItaiOptions opts;
  opts.seed = 3;
  opts.faults = "reorder";
  const DistMatchingResult inline_run = [&] {
    const test_support::ForcedShards forced(g.num_nodes(), 1);
    return israeli_itai(g, opts);
  }();
  ThreadPool pool(4);
  opts.pool = &pool;
  const DistMatchingResult pooled_run = [&] {
    const test_support::ForcedShards forced(g.num_nodes(), 4);
    return israeli_itai(g, opts);
  }();
  EXPECT_EQ(inline_run.matching.edge_ids(g), pooled_run.matching.edge_ids(g));
  EXPECT_EQ(inline_run.stats.messages, pooled_run.stats.messages);
}

// ----------------------------------------- seed-sensitivity sweeps -----

class SeedRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedRobustness, AlgorithmsNeverProduceInvalidOutput) {
  // Whatever the seed, outputs must be valid matchings within bounds.
  Rng rng(GetParam());
  const Graph g = erdos_renyi(40, 0.12, rng);
  auto w = uniform_weights(std::max<EdgeId>(g.num_edges(), 1), 1.0, 99.0,
                           rng);
  w.resize(g.num_edges());
  IsraeliItaiOptions io;
  io.seed = GetParam();
  const auto ii = israeli_itai(g, io);
  EXPECT_TRUE(is_valid_matching(g, ii.matching.edge_ids(g)));
  if (g.num_edges() > 0) {
    const WeightedGraph wg = make_weighted(Graph(g), std::move(w));
    ClassMwmOptions co;
    co.seed = GetParam();
    const auto cm = class_mwm(wg, co);
    EXPECT_TRUE(is_valid_matching(g, cm.matching.edge_ids(g)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values(0u, 1u, 0xffffffffffffffffULL,
                                           0x8000000000000000ULL, 12345u));

// ------------------------------------------- metamorphic relabeling -----
// Relabeling the vertices by a permutation pi does not change the graph:
// edge i of piG is pi applied to edge i of G, so weights carry over by
// edge id. Exact solvers must report the same optimum on piG, and the
// randomized ones must keep their guarantees there.

std::vector<NodeId> seeded_permutation(NodeId n, std::uint64_t seed) {
  std::vector<NodeId> pi(n);
  std::iota(pi.begin(), pi.end(), NodeId{0});
  Rng rng(seed);
  for (NodeId i = n; i > 1; --i) std::swap(pi[i - 1], pi[rng.below(i)]);
  return pi;
}

Graph relabel(const Graph& g, const std::vector<NodeId>& pi) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (const Edge& e : g.edges()) edges.push_back({pi[e.u], pi[e.v]});
  return Graph(g.num_nodes(), std::move(edges));
}

std::vector<std::uint8_t> relabel_sides(const std::vector<std::uint8_t>& side,
                                        const std::vector<NodeId>& pi) {
  std::vector<std::uint8_t> out(side.size());
  for (NodeId v = 0; v < side.size(); ++v) out[pi[v]] = side[v];
  return out;
}

/// The instances: seeded ER(200, deg 4), bipartite 100+100 (deg 4) with
/// its sides, and n=24 graphs small enough for the exhaustive oracles.
struct RelabelCase {
  Graph g;
  std::vector<std::uint8_t> side;  // empty: not bipartite
};

std::vector<RelabelCase> relabel_cases() {
  std::vector<RelabelCase> out;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    out.push_back({erdos_renyi(200, 4.0 / 200, rng), {}});
    BipartiteGraph bg = random_bipartite(100, 100, 4.0 / 100, rng);
    out.push_back({std::move(bg.graph), std::move(bg.side)});
    out.push_back({erdos_renyi(24, 0.15, rng), {}});
  }
  return out;
}

TEST(Metamorphic, RelabelingKeepsExactOptima) {
  std::uint64_t perm_seed = 100;
  for (const RelabelCase& c : relabel_cases()) {
    const NodeId n = c.g.num_nodes();
    const std::vector<NodeId> pi = seeded_permutation(n, ++perm_seed);
    const Graph pg = relabel(c.g, pi);
    Rng wrng(perm_seed);
    const std::vector<double> w =
        uniform_weights(c.g.num_edges(), 1.0, 100.0, wrng);
    const WeightedGraph wg = make_weighted(Graph(c.g), w);
    const WeightedGraph pwg = make_weighted(Graph(pg), w);
    const auto same_weight = [](double a, double b) {
      return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), 1.0);
    };
    EXPECT_EQ(blossom_mcm(pg).size(), blossom_mcm(c.g).size()) << n;
    if (!c.side.empty()) {
      const std::vector<std::uint8_t> pside = relabel_sides(c.side, pi);
      EXPECT_EQ(hopcroft_karp(pg, pside).size(),
                hopcroft_karp(c.g, c.side).size());
      const double opt = hungarian_mwm(wg, c.side).weight(wg);
      const double popt = hungarian_mwm(pwg, pside).weight(pwg);
      EXPECT_TRUE(same_weight(popt, opt)) << popt << " vs " << opt;
    }
    if (n <= 24) {
      EXPECT_EQ(exact_mcm_small(pg).size(), exact_mcm_small(c.g).size());
      const double opt = exact_mwm_small(wg).weight(wg);
      const double popt = exact_mwm_small(pwg).weight(pwg);
      EXPECT_TRUE(same_weight(popt, opt)) << popt << " vs " << opt;
    }
  }
}

TEST(Metamorphic, RandomizedSolversKeepGuaranteesUnderRelabeling) {
  std::uint64_t perm_seed = 200;
  for (const RelabelCase& c : relabel_cases()) {
    const std::vector<NodeId> pi =
        seeded_permutation(c.g.num_nodes(), ++perm_seed);
    const Graph pg = relabel(c.g, pi);
    IsraeliItaiOptions io;
    io.seed = perm_seed;
    const Matching ii = israeli_itai(pg, io).matching;
    EXPECT_TRUE(is_valid_matching(pg, ii.edge_ids(pg)));
    EXPECT_TRUE(is_maximal_matching(pg, ii));
    if (c.side.empty()) continue;
    BipartiteMcmOptions bo;
    bo.k = 3;
    bo.seed = perm_seed;
    const BipartiteMcmResult r =
        bipartite_mcm(pg, relabel_sides(c.side, pi), bo);
    EXPECT_TRUE(is_valid_matching(pg, r.matching.edge_ids(pg)));
    if (r.converged) {
      // Theorem 3.8 at k=3: |M| >= (1 - 1/(k+1)) |M*| = 3/4 |M*|.
      EXPECT_GE(4 * r.matching.size(),
                3 * hopcroft_karp(c.g, c.side).size());
    }
  }
}

}  // namespace
}  // namespace lps
