// Fault-injection subsystem tests (src/faults): plan parsing and
// rejection, injector determinism, bit-identical fault schedules across
// thread and shard counts, engine-client validity under every
// registered failure profile, crash/recover round trips through
// DynamicGraph, and the FaultSession recovery protocol.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "core/israeli_itai.hpp"
#include "core/luby_mis.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/matcher.hpp"
#include "dynamic/stream.hpp"
#include "engine_cases.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "faults/recovery.hpp"
#include "faults/scenarios.hpp"
#include "graph/generators.hpp"
#include "run_record.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

/// The message-layer half of a plan (graph faults stripped), as a spec.
std::string message_half(const faults::FaultPlan& plan) {
  faults::FaultPlan msg = plan;
  msg.flap = 0.0;
  msg.adversarial = 0.0;
  msg.epochs = 0;
  return msg.to_spec();
}

// ---------------------------------------------------- plan parsing ----

TEST(FaultPlan, PresetsResolveAndRoundTrip) {
  for (const faults::FaultScenario& sc : faults::fault_scenarios()) {
    EXPECT_TRUE(faults::is_fault_preset(sc.name));
    const faults::FaultPlan plan = faults::make_fault_plan(sc.name);
    EXPECT_TRUE(plan.any()) << sc.name;
    // The canonical spec re-parses to the same plan.
    const faults::FaultPlan again = faults::make_fault_plan(plan.to_spec());
    EXPECT_DOUBLE_EQ(plan.drop, again.drop);
    EXPECT_DOUBLE_EQ(plan.dup, again.dup);
    EXPECT_DOUBLE_EQ(plan.delay_p, again.delay_p);
    EXPECT_EQ(plan.delay_rounds, again.delay_rounds);
    EXPECT_EQ(plan.reorder, again.reorder);
    EXPECT_DOUBLE_EQ(plan.flap, again.flap);
    EXPECT_EQ(plan.down_epochs, again.down_epochs);
    EXPECT_DOUBLE_EQ(plan.adversarial, again.adversarial);
    EXPECT_EQ(plan.epochs, again.epochs);
  }
  EXPECT_FALSE(faults::is_fault_preset("nosuchpreset"));
  EXPECT_FALSE(faults::make_fault_plan("").any());
}

TEST(FaultPlan, ExplicitPlanParses) {
  const faults::FaultPlan p = faults::parse_fault_plan(
      "x:drop=0.1,dup=0.05,delay=4,delay_p=0.2,reorder,flap=0.01,down=2,"
      "adversarial=0.02,epochs=3");
  EXPECT_EQ(p.name, "x");
  EXPECT_DOUBLE_EQ(p.drop, 0.1);
  EXPECT_DOUBLE_EQ(p.dup, 0.05);
  EXPECT_EQ(p.delay_rounds, 4u);
  EXPECT_DOUBLE_EQ(p.delay_p, 0.2);
  EXPECT_TRUE(p.reorder);
  EXPECT_DOUBLE_EQ(p.flap, 0.01);
  EXPECT_EQ(p.down_epochs, 2u);
  EXPECT_DOUBLE_EQ(p.adversarial, 0.02);
  EXPECT_EQ(p.epochs, 3u);
  EXPECT_TRUE(p.message_faults());
  EXPECT_TRUE(p.graph_faults());
}

TEST(FaultPlan, MalformedPlansAreRejected) {
  EXPECT_THROW(faults::make_fault_plan("nosuchpreset"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_plan("x:drop=1.5"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_plan("x:drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_plan("x:frobnicate=1"),
               std::invalid_argument);
  // The one-draw budget: drop + delay_p + dup must not exceed 1.
  EXPECT_THROW(faults::parse_fault_plan("x:drop=0.6,dup=0.6"),
               std::invalid_argument);
  // delay_p without a delay bound is meaningless.
  EXPECT_THROW(faults::parse_fault_plan("x:delay_p=0.5"),
               std::invalid_argument);
  // Graph faults need at least one epoch to act in.
  EXPECT_THROW(faults::parse_fault_plan("x:flap=0.01,epochs=0"),
               std::invalid_argument);
}

// ---------------------------------------------- injector determinism --

TEST(Injector, FatesArePureFunctionsOfSeedChannelRound) {
  const auto inj1 = faults::make_message_injector("chaosmsg:drop=0.2,dup=0.1",
                                                  42);
  const auto inj2 = faults::make_message_injector("chaosmsg:drop=0.2,dup=0.1",
                                                  42);
  const auto inj3 = faults::make_message_injector("chaosmsg:drop=0.2,dup=0.1",
                                                  43);
  ASSERT_NE(inj1, nullptr);
  bool seed_matters = false;
  for (EdgeId e = 0; e < 64; ++e) {
    for (std::uint64_t round = 0; round < 8; ++round) {
      const faults::MessageFate a = inj1->decide(e, e % 7, round);
      const faults::MessageFate b = inj2->decide(e, e % 7, round);
      EXPECT_EQ(a.drop, b.drop);
      EXPECT_EQ(a.dup, b.dup);
      EXPECT_EQ(a.delay, b.delay);
      const faults::MessageFate c = inj3->decide(e, e % 7, round);
      seed_matters = seed_matters || a.drop != c.drop || a.dup != c.dup;
    }
  }
  EXPECT_TRUE(seed_matters);
  // At most one fault per message, and the counters add up.
  const faults::InjectorCounters c = inj1->counters();
  EXPECT_EQ(c.decided, 64u * 8u);
  EXPECT_GT(c.dropped, 0u);
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_LE(c.dropped + c.duplicated + c.delayed, c.decided);
}

TEST(Injector, InertAndGraphOnlySpecsYieldNoInjector) {
  EXPECT_EQ(faults::make_message_injector("", 1), nullptr);
  EXPECT_EQ(faults::make_message_injector("flap1", 1), nullptr);
  EXPECT_THROW(faults::make_message_injector("bogus:drop=2", 1),
               std::invalid_argument);
}

// ------------------------------------- engine clients under faults ----

constexpr const char* kMessageChaos =
    "mchaos:drop=0.1,dup=0.05,delay=4,delay_p=0.2,reorder";

TEST(EngineFaults, ScheduleBitIdenticalAcrossThreadsAndShards) {
  // n = 4096: wide enough for 4 shards of the minimum 1024 vertices.
  Rng rng(7);
  const Graph g = erdos_renyi(4096, 6.0 / 4096.0, rng);
  std::vector<EdgeId> reference;
  NetStats ref_stats;
  bool first = true;
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (const unsigned shards : {1u, 4u}) {
      const test_support::ForcedShards forced(g.num_nodes(), shards);
      IsraeliItaiOptions opts;
      opts.seed = 99;
      opts.faults = kMessageChaos;
      opts.pool = threads == 1 ? nullptr : &pool;
      const DistMatchingResult res = israeli_itai(g, opts);
      EXPECT_TRUE(is_valid_matching(g, res.matching.edge_ids(g)));
      if (first) {
        reference = res.matching.edge_ids(g);
        ref_stats = res.stats;
        first = false;
      } else {
        EXPECT_EQ(res.matching.edge_ids(g), reference)
            << "threads=" << threads << " shards=" << shards;
        EXPECT_EQ(res.stats.rounds, ref_stats.rounds);
        EXPECT_EQ(res.stats.messages, ref_stats.messages);
        EXPECT_EQ(res.stats.total_bits, ref_stats.total_bits);
      }
    }
  }
}

TEST(EngineFaults, EveryScenarioMessageHalfYieldsValidMatching) {
  Rng rng(11);
  const Graph g = erdos_renyi(256, 8.0 / 256.0, rng);
  for (const faults::FaultScenario& sc : faults::fault_scenarios()) {
    const faults::FaultPlan plan = faults::make_fault_plan(sc.name);
    if (!plan.message_faults()) continue;
    IsraeliItaiOptions opts;
    opts.seed = 5;
    opts.faults = message_half(plan);
    const DistMatchingResult res = israeli_itai(g, opts);
    EXPECT_TRUE(is_valid_matching(g, res.matching.edge_ids(g))) << sc.name;
    EXPECT_GT(res.matching.size(), 0u) << sc.name;
  }
}

TEST(EngineFaults, DelayOnlyPlanLosesNoProgress) {
  // Every message held back up to 3 rounds, none dropped: the protocol
  // must still converge to a valid (and, with resync, sizable) matching.
  Rng rng(13);
  const Graph g = erdos_renyi(256, 6.0 / 256.0, rng);
  IsraeliItaiOptions opts;
  opts.seed = 21;
  opts.faults = "alldelay:delay=3,delay_p=0.9";
  const DistMatchingResult res = israeli_itai(g, opts);
  EXPECT_TRUE(is_valid_matching(g, res.matching.edge_ids(g)));
  EXPECT_GT(res.matching.size(), 0u);
}

TEST(EngineFaults, LongDelayExecutionsMatchPinnedFingerprints) {
  // Messages held back five rounds or more leave stale free-flags across
  // phases: a free node that saw no candidate at stage 0 can still be
  // proposed to, and then the coin it drew at its last stage 0 decides.
  // So under message faults the schedule steps at the next stage 0 every
  // free node that received mail at stage 1 or 2, and these executions
  // are pinned: waking only the nodes that saw a candidate moves every
  // one of them.
  struct Pin {
    const char* plan;
    std::uint64_t seed;
    std::uint64_t rounds;
    std::uint64_t messages;
    std::uint64_t total_bits;
    std::size_t matching_size;
    std::uint32_t resyncs;
  };
  constexpr Pin kPins[] = {
      {"b:delay=9,delay_p=0.5", 3, 636, 5112, 40896, 122, 8},
      {"c:delay=6,delay_p=0.8", 1, 636, 9075, 72600, 120, 8},
      {"c:delay=6,delay_p=0.8", 2, 636, 9780, 78240, 118, 8},
      {"e:drop=0.3,delay=5,delay_p=0.5", 1, 636, 13623, 108984, 102, 8},
  };
  Rng rng(1000);
  const Graph g = erdos_renyi(300, 3.0 / 300.0, rng);
  for (const Pin& pin : kPins) {
    const std::string what =
        std::string(pin.plan) + " seed " + std::to_string(pin.seed);
    IsraeliItaiOptions opts;
    opts.seed = pin.seed;
    opts.faults = pin.plan;
    const DistMatchingResult res = israeli_itai(g, opts);
    EXPECT_EQ(res.stats.rounds, pin.rounds) << what;
    EXPECT_EQ(res.stats.messages, pin.messages) << what;
    EXPECT_EQ(res.stats.total_bits, pin.total_bits) << what;
    EXPECT_EQ(res.matching.size(), pin.matching_size) << what;
    EXPECT_EQ(res.resyncs, pin.resyncs) << what;
  }
}

TEST(EngineFaults, MisClientsStayIndependentUnderChaos) {
  Rng rng(17);
  const Graph g = erdos_renyi(256, 8.0 / 256.0, rng);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    MisOptions opts;
    opts.seed = seed;
    opts.faults = kMessageChaos;
    const MisResult luby = luby_mis(g, opts);
    EXPECT_TRUE(is_independent_set(g, luby.in_mis)) << "luby seed " << seed;
    const MisResult abi = abi_mis(g, opts);
    EXPECT_TRUE(is_independent_set(g, abi.in_mis)) << "abi seed " << seed;
  }
  // Fault-free runs are untouched by the seam: resyncs stay zero and
  // the result is a *maximal* independent set.
  MisOptions clean;
  clean.seed = 1;
  const MisResult res = luby_mis(g, clean);
  EXPECT_EQ(res.resyncs, 0u);
  EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis));
}

// ------------------------------------- crash/recover via DynamicGraph --

TEST(Revive, RoundTripPreservesInvariants) {
  dynamic::DynamicGraph g(6);
  g.insert_edge(0, 1, 1.0);
  g.insert_edge(1, 2, 1.0);
  g.insert_edge(1, 3, 1.0);
  g.insert_edge(4, 5, 1.0);
  const EdgeId slots_before = g.edge_slots();

  g.remove_vertex(1);
  EXPECT_FALSE(g.node_alive(1));
  EXPECT_EQ(g.num_live_edges(), 1u);
  g.check_invariants();

  g.revive_vertex(1);
  EXPECT_TRUE(g.node_alive(1));
  EXPECT_EQ(g.degree(1), 0u);  // revived isolated; edges are re-inserted
  g.check_invariants();

  // Re-inserting the crashed incidence recycles the freed edge ids
  // rather than growing the id space.
  g.insert_edge(0, 1, 1.0);
  g.insert_edge(1, 2, 1.0);
  g.insert_edge(1, 3, 1.0);
  EXPECT_EQ(g.edge_slots(), slots_before);
  EXPECT_EQ(g.num_live_edges(), 4u);
  EXPECT_NE(g.find_edge(1, 2), kInvalidEdge);
  g.check_invariants();
}

TEST(Revive, RejectsLiveAndUnallocatedIds) {
  dynamic::DynamicGraph g(3);
  EXPECT_THROW(g.revive_vertex(0), std::invalid_argument);  // alive
  EXPECT_THROW(g.revive_vertex(7), std::invalid_argument);  // never allocated
  g.remove_vertex(0);
  g.revive_vertex(0);
  EXPECT_TRUE(g.node_alive(0));
}

TEST(Revive, ThousandRandomFlapsThroughMaintainers) {
  for (const char* name : {"greedy", "repair"}) {
    // Build a standing graph, then flap vertices at random through the
    // maintainer's update path, re-inserting each crashed incidence on
    // revival (link-flap semantics, same as FaultSession).
    const dynamic::StreamSpec stream = dynamic::make_update_stream(
        "churn:n=128,m0=512,updates=1000", 23);
    auto matcher = dynamic::make_matcher(
        name, dynamic::DynamicGraph(stream.initial_nodes), {});
    matcher->apply_trace(stream.trace);

    struct Parked {
      NodeId u, v;
      double w;
    };
    Rng rng(29);
    std::vector<NodeId> downed;
    std::vector<Parked> parked;
    for (int flap = 0; flap < 1000; ++flap) {
      const bool revive = !downed.empty() && rng.coin();
      if (revive) {
        const std::size_t pick = rng.below(downed.size());
        const NodeId v = downed[pick];
        downed.erase(downed.begin() + static_cast<std::ptrdiff_t>(pick));
        matcher->apply({dynamic::UpdateKind::kReviveVertex, v, kInvalidNode});
        // Restore every parked edge whose endpoints are both back.
        std::vector<Parked> keep;
        for (const Parked& pe : parked) {
          if (matcher->graph().node_alive(pe.u) &&
              matcher->graph().node_alive(pe.v) &&
              matcher->graph().find_edge(pe.u, pe.v) == kInvalidEdge) {
            matcher->apply(
                {dynamic::UpdateKind::kInsertEdge, pe.u, pe.v, pe.w});
          } else if (!matcher->graph().node_alive(pe.u) ||
                     !matcher->graph().node_alive(pe.v)) {
            keep.push_back(pe);
          }
        }
        parked.swap(keep);
      } else {
        // Crash a random live vertex.
        NodeId v = kInvalidNode;
        for (int tries = 0; tries < 64; ++tries) {
          const NodeId cand =
              static_cast<NodeId>(rng.below(matcher->graph().node_slots()));
          if (matcher->graph().node_alive(cand)) {
            v = cand;
            break;
          }
        }
        if (v == kInvalidNode) continue;
        const auto row = matcher->graph().neighbors(v);
        for (const auto& a : row) {
          parked.push_back({v, a.to, matcher->graph().weight(a.edge)});
        }
        matcher->apply({dynamic::UpdateKind::kRemoveVertex, v, kInvalidNode});
        downed.push_back(v);
      }
      if (flap % 100 == 0) {
        matcher->flush();
        matcher->graph().check_invariants();
        matcher->check_matching();
      }
    }
    matcher->flush();
    matcher->graph().check_invariants();
    matcher->check_matching();
  }
}

// -------------------------------------------- FaultSession recovery ----

TEST(FaultSession, EveryEpochEndsValidAndHealsBack) {
  for (const char* name : {"greedy", "repair"}) {
    const dynamic::StreamSpec stream = dynamic::make_update_stream(
        "churn:n=512,m0=1024,updates=2000", 31);
    auto matcher = dynamic::make_matcher(
        name, dynamic::DynamicGraph(stream.initial_nodes), {});
    matcher->apply_trace(stream.trace);
    matcher->flush();

    faults::FaultPlan plan =
        faults::parse_fault_plan("t:flap=0.02,adversarial=0.05,epochs=3");
    faults::FaultSession session(*matcher, plan, 47);
    const faults::SessionResult res = session.run();
    EXPECT_EQ(res.epochs.size(), 3u) << name;
    EXPECT_TRUE(res.all_valid) << name;
    EXPECT_TRUE(res.final_valid) << name;
    EXPECT_GT(res.min_ratio, 0.5) << name;
    EXPECT_GE(res.final_ratio, 0.9) << name;
    EXPECT_GT(res.crashed, 0u) << name;
    EXPECT_EQ(res.crashed, res.revived) << name;
    EXPECT_GT(res.adversarial, 0u) << name;
    for (const faults::EpochReport& ep : res.epochs) {
      EXPECT_TRUE(ep.valid) << name << " epoch " << ep.epoch;
    }
  }
}

TEST(FaultSession, ScheduleIsAPureFunctionOfTheSeed) {
  const auto run_session = [](std::uint64_t seed) {
    const dynamic::StreamSpec stream = dynamic::make_update_stream(
        "churn:n=256,m0=512,updates=1000", 53);
    auto matcher = dynamic::make_matcher(
        "greedy", dynamic::DynamicGraph(stream.initial_nodes), {});
    matcher->apply_trace(stream.trace);
    matcher->flush();
    faults::FaultPlan plan =
        faults::parse_fault_plan("t:flap=0.03,adversarial=0.04,epochs=4");
    return faults::FaultSession(*matcher, plan, seed).run();
  };
  const faults::SessionResult a = run_session(7);
  const faults::SessionResult b = run_session(7);
  const faults::SessionResult c = run_session(8);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].crashed, b.epochs[i].crashed);
    EXPECT_EQ(a.epochs[i].adversarial, b.epochs[i].adversarial);
    EXPECT_EQ(a.epochs[i].matching_size, b.epochs[i].matching_size);
    EXPECT_EQ(a.epochs[i].reinserted, b.epochs[i].reinserted);
  }
  // A different seed crashes a different schedule (sizes may tie, but
  // the whole trajectory matching would be a coincidence).
  bool differs = false;
  for (std::size_t i = 0; i < a.epochs.size() && i < c.epochs.size(); ++i) {
    differs = differs || a.epochs[i].matching_size != c.epochs[i].matching_size;
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------- runner integration --

TEST(RunnerFaults, FaultLegLandsInRunResult) {
  api::RunSpec spec;
  spec.generator = "path:n=2";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.dynamic = "repair";
  spec.dynamic_stream = "churn:n=512,m0=1024,updates=1000";
  spec.dynamic_checkpoints = 0;
  spec.faults = "flap1";
  const api::RunResult res = api::run_one(spec);
  EXPECT_EQ(res.fault_epochs, 4u);
  EXPECT_TRUE(res.fault_all_valid);
  EXPECT_TRUE(res.fault_final_valid);
  EXPECT_GT(res.fault_baseline_size, 0u);
  EXPECT_GT(res.fault_crashed, 0u);
  EXPECT_GE(res.fault_final_ratio, 0.9);
  EXPECT_GT(res.fault_recovery_p50_ns, 0u);
  // The canonical plan echo and the JSON record carry the fields.
  EXPECT_FALSE(res.fault_plan.empty());
  const JsonValue rec = testing::parse_record(res.to_json());
  using testing::field;
  EXPECT_EQ(field(rec, "faults").string, "flap1");
  EXPECT_EQ(field(rec, "fault_plan").string, res.fault_plan);
  EXPECT_EQ(field(rec, "fault_epochs").number, 4.0);
  EXPECT_TRUE(field(rec, "fault_all_valid").boolean);
  EXPECT_TRUE(field(rec, "fault_final_valid").boolean);
  EXPECT_EQ(field(rec, "fault_min_ratio").number, res.fault_min_ratio);
  EXPECT_EQ(field(rec, "fault_final_ratio").number, res.fault_final_ratio);
  EXPECT_EQ(field(rec, "fault_baseline_size").number,
            static_cast<double>(res.fault_baseline_size));
  EXPECT_EQ(field(rec, "fault_crashed").number,
            static_cast<double>(res.fault_crashed));
  EXPECT_EQ(field(rec, "fault_revived").number,
            static_cast<double>(res.fault_revived));
  EXPECT_EQ(field(rec, "fault_recovery_p50_ns").number,
            static_cast<double>(res.fault_recovery_p50_ns));
}

TEST(RunnerFaults, MalformedAndMisdirectedSpecsThrowEagerly) {
  api::RunSpec spec;
  spec.generator = "path:n=8";
  spec.solver = "israeli_itai";
  spec.faults = "bogus:drop=2";
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
  spec.faults = "flap1";  // graph faults need the dynamic leg
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
  spec.faults = "drop10";
  spec.solver = "greedy_mcm";  // no `faults` config key
  EXPECT_THROW(api::run_one(spec), std::invalid_argument);
}

}  // namespace
}  // namespace lps
