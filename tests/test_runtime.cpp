// Tests for the synchronous message-passing runtime: delivery semantics
// (the model of the paper's Section 2), channel exclusivity, bit
// metering, determinism, thread-pool equivalence, and the epoch-stamped
// mailbox / active-set scheduler introduced in DESIGN.md §9.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "core/israeli_itai.hpp"
#include "faults/fault_plan.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "runtime/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

struct IntMsg {
  int value;
};

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, 100, 9, [&](std::size_t b, std::size_t e) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int counter = 0;
  pool.parallel_for(0, 10, 3, [&](std::size_t b, std::size_t e) {
    counter += static_cast<int>(e - b);
  });
  EXPECT_EQ(counter, 10);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, CountsPastTheCeilingAreRefused) {
  // Only the parse and validation steps run here, never a pool, so a
  // regressed check cannot start a thread.
  constexpr unsigned kMax = ThreadPool::kMaxThreads;
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(kMax), kMax);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_LE(ThreadPool::resolve_threads(0), kMax);
  EXPECT_THROW(ThreadPool::resolve_threads(kMax + 1), std::invalid_argument);
  // A -1 that wrapped on its way in.
  EXPECT_THROW(ThreadPool::resolve_threads(static_cast<unsigned>(-1)),
               std::invalid_argument);
  // The binaries' --threads parse refuses the same counts, and a
  // negative one, before any cast to unsigned.
  for (const std::string& arg : {std::string("--threads=-1"),
                                 "--threads=" + std::to_string(kMax + 1),
                                 std::string("--threads=4294967295")}) {
    const char* argv[] = {"prog", arg.c_str()};
    const Options opts(2, const_cast<char**>(argv));
    EXPECT_EQ(opts.get_count("threads", 1, kMax), 1u) << arg;
    EXPECT_THROW(opts.check_flags(), std::invalid_argument) << arg;
  }
}

TEST(SyncNetwork, OneRoundDeliveryDelay) {
  Graph g = path_graph(2);
  SyncNetwork<IntMsg> net(g, 1);
  std::vector<int> received_at_round(2, -1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0 && ctx.id() == 0) {
      ctx.send(0, IntMsg{42});
    }
    for (const auto& in : ctx.inbox()) {
      EXPECT_EQ(in.payload->value, 42);
      EXPECT_EQ(in.from, 0u);
      received_at_round[ctx.id()] = static_cast<int>(ctx.round());
    }
  };
  net.run_round(step);
  EXPECT_EQ(received_at_round[1], -1);  // not yet delivered
  net.run_round(step);
  EXPECT_EQ(received_at_round[1], 1);  // delivered exactly one round later
  EXPECT_EQ(received_at_round[0], -1);  // sender got nothing
}

TEST(SyncNetwork, DoubleSendOnChannelThrows) {
  Graph g = path_graph(2);
  SyncNetwork<IntMsg> net(g, 1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.id() == 0) {
      ctx.send(0, IntMsg{1});
      EXPECT_THROW(ctx.send(0, IntMsg{2}), std::logic_error);
    }
  };
  net.run_round(step);
}

TEST(SyncNetwork, NonEndpointSendThrows) {
  Graph g = path_graph(3);  // edges 0:0-1, 1:1-2
  SyncNetwork<IntMsg> net(g, 1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.id() == 0) {
      EXPECT_THROW(ctx.send(1, IntMsg{1}), std::logic_error);
    }
  };
  net.run_round(step);
}

TEST(SyncNetwork, OppositeDirectionsShareEdgeFine) {
  Graph g = path_graph(2);
  SyncNetwork<IntMsg> net(g, 1);
  int delivered = 0;
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0) ctx.send(0, IntMsg{static_cast<int>(ctx.id())});
    for (const auto& in : ctx.inbox()) {
      ++delivered;
      EXPECT_EQ(in.payload->value, static_cast<int>(in.from));
    }
  };
  net.run_round(step);
  net.run_round(step);
  EXPECT_EQ(delivered, 2);
}

TEST(SyncNetwork, BitMeteringAndStats) {
  Graph g = star_graph(5);
  auto meter = [](const IntMsg& m) {
    return static_cast<std::uint64_t>(m.value);
  };
  SyncNetwork<IntMsg> net(g, 1, meter);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0 && ctx.id() == 0) {
      int bits = 10;
      for (const auto& inc : ctx.graph().neighbors(0)) {
        ctx.send(inc.edge, IntMsg{bits});
        bits += 10;
      }
    }
  };
  net.run_round(step);
  EXPECT_EQ(net.stats().rounds, 1u);
  EXPECT_EQ(net.stats().messages, 4u);
  EXPECT_EQ(net.stats().total_bits, 10u + 20 + 30 + 40);
  EXPECT_EQ(net.stats().max_message_bits, 40u);
}

TEST(SyncNetwork, RunStopsWhenSilent) {
  Graph g = path_graph(4);
  SyncNetwork<IntMsg> net(g, 1);
  // A wave: node 0 sends once; everyone forwards right, then silence.
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0 && ctx.id() == 0) {
      ctx.send(0, IntMsg{1});
      return;
    }
    for (const auto& in : ctx.inbox()) {
      for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
        if (inc.to > ctx.id()) ctx.send(inc.edge, IntMsg{in.payload->value});
      }
    }
  };
  const std::uint64_t rounds = net.run(100, /*stop_when_silent=*/true, step);
  // Wave takes 3 hops (0->1,1->2,2->3), then one silent round detection.
  EXPECT_LE(rounds, 5u);
  EXPECT_GE(rounds, 3u);
}

TEST(SyncNetwork, ChargedMessagesAreMeteredNotDelivered) {
  // Round 0: node v charges v % 3 messages of v % 5 + 6 bits, and every
  // seventh node also sends one 8-bit message. Charged messages meter
  // like sent ones at every thread and shard setting, but only the sent
  // ones are delivered.
  Rng rng(53);
  const Graph g = erdos_renyi(4096, 4.0 / 4096, rng);
  NetStats want;
  std::uint64_t want_sent = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId i = 0; i < v % 3; ++i) want.note_message(v % 5 + 6);
    if (v % 7 == 0 && g.degree(v) > 0) {
      want.note_message(8);
      ++want_sent;
    }
  }
  auto meter = [](const IntMsg& m) {
    return static_cast<std::uint64_t>(m.value);
  };
  auto step = [](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() != 0) return;
    const NodeId v = ctx.id();
    ctx.charge(v % 3, IntMsg{static_cast<int>(v % 5 + 6)});
    const auto nbrs = ctx.graph().neighbors(v);
    if (v % 7 == 0 && !nbrs.empty()) ctx.send(nbrs[0].edge, IntMsg{8});
  };
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const unsigned shards : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   (p != nullptr ? " threads=4" : " no pool"));
      SyncNetwork<IntMsg> net(g, 1, meter);
      net.set_thread_pool(p);
      net.set_shards(shards);
      ASSERT_EQ(net.shards(), shards);
      net.run_round(step);
      EXPECT_EQ(net.stats().messages, want.messages);
      EXPECT_EQ(net.stats().total_bits, want.total_bits);
      EXPECT_EQ(net.stats().max_message_bits, 10u);
      net.run_round(step);
      EXPECT_EQ(net.last_round_deliveries(), want_sent);
      EXPECT_EQ(net.stats().messages, want.messages);
    }
  }
  // A round that only charged leaves nothing in flight.
  SyncNetwork<IntMsg> net(g, 1, meter);
  auto charge_only = [](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0) ctx.charge(2, IntMsg{8});
  };
  EXPECT_EQ(net.run(100, /*stop_when_silent=*/true, charge_only), 1u);
  EXPECT_EQ(net.stats().messages, 2u * g.num_nodes());
}

TEST(SyncNetwork, RngSubstreamsIndependentOfExecutionOrder) {
  // The per-(node, round) substream must not depend on which nodes ran
  // first; we capture draws across two runs and compare.
  Graph g = complete_graph(6);
  std::vector<std::uint64_t> draws_a(6), draws_b(6);
  {
    SyncNetwork<IntMsg> net(g, 99);
    net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
      draws_a[ctx.id()] = ctx.rng()();
    });
  }
  {
    SyncNetwork<IntMsg> net(g, 99);
    net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
      draws_b[ctx.id()] = ctx.rng()();
    });
  }
  EXPECT_EQ(draws_a, draws_b);
  // Different rounds give different draws.
  SyncNetwork<IntMsg> net(g, 99);
  std::vector<std::uint64_t> round0(6), round1(6);
  net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
    round0[ctx.id()] = ctx.rng()();
  });
  net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
    round1[ctx.id()] = ctx.rng()();
  });
  EXPECT_NE(round0, round1);
}

TEST(SyncNetwork, ParallelEqualsSequential) {
  // A small gossip protocol; node states must match across thread counts.
  Rng rng(17);
  Graph g = erdos_renyi(120, 0.05, rng);
  auto run_with = [&](ThreadPool* pool) {
    std::vector<std::uint64_t> state(g.num_nodes(), 0);
    SyncNetwork<IntMsg> net(g, 5);
    net.set_thread_pool(pool);
    auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
      const NodeId v = ctx.id();
      for (const auto& in : ctx.inbox()) {
        state[v] = state[v] * 31 + static_cast<std::uint64_t>(
                                       in.payload->value);
      }
      const int draw = static_cast<int>(ctx.rng().below(1000));
      state[v] += static_cast<std::uint64_t>(draw);
      if (ctx.round() < 6) {
        for (const auto& inc : ctx.graph().neighbors(v)) {
          if ((draw + inc.to) % 3 == 0) ctx.send(inc.edge, IntMsg{draw});
        }
      }
    };
    for (int r = 0; r < 8; ++r) net.run_round(step);
    return std::make_pair(state, net.stats());
  };
  const auto [seq_state, seq_stats] = run_with(nullptr);
  ThreadPool pool(4);
  const auto [par_state, par_stats] = run_with(&pool);
  EXPECT_EQ(seq_state, par_state);
  EXPECT_EQ(seq_stats.messages, par_stats.messages);
  EXPECT_EQ(seq_stats.total_bits, par_stats.total_bits);
  EXPECT_EQ(seq_stats.max_message_bits, par_stats.max_message_bits);
}

TEST(SyncNetwork, InFlightMessagesSurviveSilentSenders) {
  // stop_when_silent must not cut off messages already in flight: the
  // engine stops only after a round in which nothing was sent, by which
  // time everything previously sent has been delivered.
  Graph g = path_graph(5);
  SyncNetwork<IntMsg> net(g, 1);
  std::vector<int> got(5, -1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    for (const auto& in : ctx.inbox()) {
      got[ctx.id()] = in.payload->value;
      // Forward right with the hop count; the original sender stays
      // silent from round 1 on, so there is always exactly one message
      // in flight until the wave hits node 4.
      for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
        if (inc.to > ctx.id()) {
          ctx.send(inc.edge, IntMsg{in.payload->value + 1});
        }
      }
    }
    if (ctx.round() == 0 && ctx.id() == 0) ctx.send(0, IntMsg{1});
  };
  const std::uint64_t rounds = net.run(100, /*stop_when_silent=*/true, step);
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 2);
  EXPECT_EQ(got[3], 3);
  EXPECT_EQ(got[4], 4);  // the last in-flight hop was delivered, not dropped
  EXPECT_EQ(rounds, 5u);  // 4 forwarding rounds + 1 silent detection round
  EXPECT_EQ(net.stats().messages, 4u);
}

TEST(SyncNetwork, InboxIsInIncidenceOrder) {
  // The mailbox's counting-sort delivery must present each inbox in the
  // receiver's incidence order — the invariant protocols and the lca
  // re-executor rely on for RNG-draw determinism.
  Rng rng(3);
  Graph g = erdos_renyi(40, 0.3, rng);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SyncNetwork<IntMsg> net(g, 1);
    net.set_thread_pool(p);
    auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
      if (ctx.round() == 0) {
        ctx.send_all(IntMsg{static_cast<int>(ctx.id())});
        return;
      }
      const auto nbrs = ctx.graph().neighbors(ctx.id());
      ASSERT_EQ(ctx.inbox().size(), nbrs.size());
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_EQ(ctx.inbox()[i].from, nbrs[i].to);
        EXPECT_EQ(ctx.inbox()[i].edge, nbrs[i].edge);
      }
    };
    net.run_round(step);
    net.run_round(step);
  }
}

TEST(SyncNetwork, ActiveSetStepsOnlyReceiversKeepersAndActivated) {
  Graph g = path_graph(6);
  SyncNetwork<IntMsg> net(g, 1);
  net.restrict_initial_active();
  net.activate(2);
  std::vector<int> steps(6, 0);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    ++steps[ctx.id()];
    if (ctx.round() == 0) {
      // Node 2 messages its right neighbor and keeps itself alive.
      ctx.send(ctx.graph().find_edge(2, 3), IntMsg{7});
      ctx.keep_active();
    }
  };
  net.run_round(step);
  EXPECT_EQ(net.last_round_stepped(), 1u);  // only the activated node
  EXPECT_EQ(steps, (std::vector<int>{0, 0, 1, 0, 0, 0}));
  net.run_round(step);
  // Round 1: receiver (3) plus the keep_active caller (2), nobody else.
  EXPECT_EQ(net.last_round_stepped(), 2u);
  EXPECT_EQ(steps, (std::vector<int>{0, 0, 2, 1, 0, 0}));
  net.run_round(step);
  EXPECT_EQ(net.last_round_stepped(), 0u);  // everyone went dormant
}

TEST(SyncNetwork, StepAllNodesRestoresFullSweep) {
  Graph g = path_graph(6);
  SyncNetwork<IntMsg> net(g, 1);
  net.step_all_nodes();
  int stepped = 0;
  auto step = [&](SyncNetwork<IntMsg>::Ctx&) { ++stepped; };
  net.run_round(step);
  net.run_round(step);
  EXPECT_EQ(stepped, 12);
  EXPECT_EQ(net.last_round_stepped(), 6u);
}

// Runs israeli_itai under active-set scheduling and with every node
// stepped every round, and expects the same execution bit for bit: same
// matching, same rounds, same message/bit meters.
void expect_active_set_matches_step_all(const Graph& g,
                                        IsraeliItaiOptions opts,
                                        const std::string& what) {
  opts.step_all_nodes = false;
  const DistMatchingResult ra = israeli_itai(g, opts);
  opts.step_all_nodes = true;
  const DistMatchingResult rb = israeli_itai(g, opts);
  EXPECT_EQ(ra.converged, rb.converged) << what;
  EXPECT_EQ(ra.stats.rounds, rb.stats.rounds) << what;
  EXPECT_EQ(ra.stats.messages, rb.stats.messages) << what;
  EXPECT_EQ(ra.stats.total_bits, rb.stats.total_bits) << what;
  EXPECT_EQ(ra.stats.max_message_bits, rb.stats.max_message_bits) << what;
  ASSERT_EQ(ra.matching.num_nodes(), rb.matching.num_nodes()) << what;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(ra.matching.matched_edge(v), rb.matching.matched_edge(v))
        << what << " at node " << v;
  }
}

// The israeli_itai cases the active-set, pin and stepping tests share: an
// unmasked run, then three masked ones (random 10%, one edge, and one
// weight class of a power-of-two weighted instance, as class_mwm runs
// it — with these weights a class is one weight value).
struct IiCase {
  std::string what;
  Graph g;
  IsraeliItaiOptions opts;
};

std::vector<IiCase> israeli_itai_cases() {
  std::vector<IiCase> cases;
  Rng rng(21);
  const Graph g = erdos_renyi(400, 8.0 / 400, rng);
  IsraeliItaiOptions opts;
  opts.seed = 5;
  cases.push_back({"unmasked", g, opts});

  opts.active_edges.assign(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    opts.active_edges[e] = rng.below(10) == 0 ? 1 : 0;
  }
  cases.push_back({"random 10% mask", g, opts});

  opts.active_edges.assign(g.num_edges(), 0);
  opts.active_edges[g.num_edges() / 2] = 1;
  cases.push_back({"one-edge mask", g, opts});

  const Graph h = erdos_renyi(1000, 4.0 / 1000, rng);
  const std::vector<double> w = power_of_two_weights(h.num_edges(), 10, rng);
  opts.active_edges.assign(h.num_edges(), 0);
  std::size_t in_class = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (w[e] == w[0]) {
      opts.active_edges[e] = 1;
      ++in_class;
    }
  }
  EXPECT_GT(in_class, 50u);
  EXPECT_LT(in_class, h.num_edges() / 2);
  cases.push_back({"pow2 weight class", h, opts});
  return cases;
}

TEST(SyncNetwork, ActiveSetMatchesStepAllOnIsraeliItai) {
  // The migrated israeli_itai keeps every node alive that could act
  // spontaneously, so active-set scheduling must reproduce the
  // step-everything execution. A masked run also steps only its mask's
  // endpoints in round 0, which must not change the execution either.
  for (const IiCase& c : israeli_itai_cases()) {
    expect_active_set_matches_step_all(c.g, c.opts, c.what);
  }
}

/// Calls run() with the tracer on and returns the parsed trace.
template <typename F>
telemetry::TraceDoc traced(F&& run) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  run();
  tracer.set_recording(false);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.reset();
  telemetry::TraceDoc doc;
  std::string error;
  EXPECT_TRUE(telemetry::load_chrome_trace(os.str(), doc, &error)) << error;
  return doc;
}

// An israeli_itai run with the tracer on, and its parsed trace.
struct TracedRun {
  DistMatchingResult result;
  telemetry::TraceDoc doc;
};

TracedRun traced_israeli_itai(const Graph& g, const IsraeliItaiOptions& opts) {
  TracedRun run;
  run.doc = traced([&] { run.result = israeli_itai(g, opts); });
  return run;
}

/// Messages delivered in each engine round of a trace, by round.
std::map<std::uint64_t, double> delivered_by_round(
    const telemetry::TraceDoc& doc) {
  std::map<std::uint64_t, double> delivered;
  for (const telemetry::TraceSpan& span : doc.spans) {
    if (span.name == "engine.round") {
      delivered[static_cast<std::uint64_t>(span.args.at("round"))] =
          span.args.at("delivered");
    }
  }
  return delivered;
}

TEST(SyncNetwork, MaskedIsraeliItaiReproducesPinnedSendCounts) {
  // A masked run charges its announcements instead of sending them. The
  // pins are what the same runs charge with every announcement sent
  // through the engine: the charges must reproduce them, while the
  // engine delivers fewer messages than NetStats reports.
  struct Pin {
    std::uint64_t rounds;
    std::uint64_t messages;
    std::uint64_t total_bits;
    std::uint64_t max_message_bits;
    std::size_t matching_size;
  };
  const std::map<std::string, Pin> pins = {
      {"random 10% mask", {30, 1671, 13368, 8, 87}},
      {"one-edge mask", {15, 13, 104, 8, 1}},
      {"pow2 weight class", {27, 1568, 12544, 8, 134}},
  };
  std::size_t checked = 0;
  for (const IiCase& c : israeli_itai_cases()) {
    const auto pin = pins.find(c.what);
    if (pin == pins.end()) continue;
    ++checked;
    const TracedRun run = traced_israeli_itai(c.g, c.opts);
    const NetStats& s = run.result.stats;
    EXPECT_EQ(s.rounds, pin->second.rounds) << c.what;
    EXPECT_EQ(s.messages, pin->second.messages) << c.what;
    EXPECT_EQ(s.total_bits, pin->second.total_bits) << c.what;
    EXPECT_EQ(s.max_message_bits, pin->second.max_message_bits) << c.what;
    EXPECT_EQ(run.result.matching.size(), pin->second.matching_size)
        << c.what;
    double delivered = 0.0;
    for (const telemetry::TraceSpan& span : run.doc.spans) {
      if (span.name == "engine.round") delivered += span.args.at("delivered");
    }
    EXPECT_LT(delivered, static_cast<double>(s.messages)) << c.what;
  }
  EXPECT_EQ(checked, pins.size());
}

TEST(SyncNetwork, IsraeliItaiStagesOneAndTwoStepOnlyReceivers) {
  // Stages 1 and 2 step only nodes with mail, so a round never steps
  // more nodes than it delivers messages; only stage 0 wakes the free
  // nodes that saw a candidate.
  for (const IiCase& c : israeli_itai_cases()) {
    const TracedRun run = traced_israeli_itai(c.g, c.opts);
    const std::map<std::uint64_t, double> delivered =
        delivered_by_round(run.doc);
    std::map<std::uint64_t, double> stepped;
    for (const telemetry::TraceSpan& span : run.doc.spans) {
      if (span.name == "engine.step") {
        stepped[static_cast<std::uint64_t>(span.args.at("round"))] =
            span.args.at("stepped");
      }
    }
    ASSERT_EQ(stepped.size(), run.result.stats.rounds) << c.what;
    std::size_t checked = 0;
    for (const auto& [round, count] : stepped) {
      if (round % 3 == 0) continue;
      ++checked;
      EXPECT_LE(count, delivered.at(round))
          << c.what << " round " << round;
    }
    EXPECT_GT(checked, 0u) << c.what;
  }
}

// The israeli_itai cases fault-free and under two message-fault plans:
// NetStats and the matched-edge hash (the wrapping sum of splitmix64(e)
// over matched edge ids, as the sharding fingerprints take it), recorded
// while every announcement still travelled as a message.
struct IiFingerprint {
  const char* what;
  const char* faults;  // "" = fault-free
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t total_bits;
  std::uint64_t max_message_bits;
  std::uint64_t edge_hash;
};

constexpr IiFingerprint kIiPinned[] = {
    {"unmasked", "", 24, 3179, 25432, 8, 0x006833455ee517bf},
    {"unmasked", "drop10", 516, 5368, 42944, 8, 0xd6a1c96432096207},
    {"unmasked", "dup5", 33, 3227, 25816, 8, 0x678e1d78459473e5},
    {"random 10% mask", "", 30, 1671, 13368, 8, 0x00b2340e05a01004},
    {"random 10% mask", "drop10", 468, 2456, 19648, 8, 0xc98f0b13727a1ea3},
    {"random 10% mask", "dup5", 30, 1671, 13368, 8, 0x00b2340e05a01004},
    {"one-edge mask", "", 15, 13, 104, 8, 0x9280b7dd012d5656},
    {"one-edge mask", "drop10", 18, 14, 112, 8, 0x9280b7dd012d5656},
    {"one-edge mask", "dup5", 15, 13, 104, 8, 0x9280b7dd012d5656},
    {"pow2 weight class", "", 27, 1568, 12544, 8, 0x3acc79d3b9d3ade1},
    {"pow2 weight class", "drop10", 528, 3567, 28536, 8, 0xca6d0cfa1e805787},
    {"pow2 weight class", "dup5", 27, 1568, 12544, 8, 0x3acc79d3b9d3ade1},
};

void expect_fingerprint(const std::string& what, const std::string& faults,
                        const NetStats& s, const std::vector<EdgeId>& ids) {
  const IiFingerprint* pin = nullptr;
  for (const IiFingerprint& p : kIiPinned) {
    if (what == p.what && faults == p.faults) pin = &p;
  }
  ASSERT_NE(pin, nullptr) << what << " " << faults;
  std::uint64_t edge_hash = 0;
  for (const EdgeId e : ids) edge_hash += splitmix64(e);
  EXPECT_EQ(s.rounds, pin->rounds);
  EXPECT_EQ(s.messages, pin->messages);
  EXPECT_EQ(s.total_bits, pin->total_bits);
  EXPECT_EQ(s.max_message_bits, pin->max_message_bits);
  EXPECT_EQ(edge_hash, pin->edge_hash);
}

TEST(SyncNetwork, IsraeliItaiAppliesAnnouncementsInPlaceOnlyFaultFree) {
  // Fault-free, a node that matches clears its neighbors' flags itself:
  // stage 2 sends nothing else, so no stage-0 round after round 0
  // delivers a message, while NetStats still counts every announcement.
  // Under message faults announcements stay messages the injector acts
  // on, so stage-0 rounds deliver them. The weight-class case also runs
  // as an IsraeliItaiClassRuns run. Both at 1 and at 4 threads.
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string threads = p != nullptr ? " threads=4" : " no pool";
    for (const IiCase& c : israeli_itai_cases()) {
      for (const std::string faults : {"", "drop10", "dup5"}) {
        SCOPED_TRACE(c.what + " faults=" + faults + threads);
        IsraeliItaiOptions opts = c.opts;
        opts.pool = p;
        opts.faults = faults;
        const TracedRun run = traced_israeli_itai(c.g, opts);
        expect_fingerprint(c.what, faults, run.result.stats,
                           run.result.matching.edge_ids(c.g));
        double stage0 = 0.0;
        for (const auto& [round, count] : delivered_by_round(run.doc)) {
          if (round % 3 != 0 || round == 0) continue;
          if (faults.empty()) {
            EXPECT_EQ(count, 0.0) << "round " << round;
          }
          stage0 += count;
        }
        // The one active edge of the one-edge mask carries no
        // announcement, faulty or not.
        if (!faults.empty() && c.what != "one-edge mask") {
          EXPECT_GT(stage0, 0.0);
        }
      }
      if (c.what != "pow2 weight class") continue;
      SCOPED_TRACE(c.what + " as a class run" + threads);
      std::vector<std::uint32_t> edge_class(c.g.num_edges());
      std::vector<EdgeId> edges;
      for (EdgeId e = 0; e < c.g.num_edges(); ++e) {
        edge_class[e] = c.opts.active_edges[e] ? 0 : 1;
        if (c.opts.active_edges[e]) edges.push_back(e);
      }
      std::vector<NodeId> degree(c.g.num_nodes());
      for (NodeId v = 0; v < c.g.num_nodes(); ++v) degree[v] = c.g.degree(v);
      IsraeliItaiClassRuns runs(c.g, edge_class, degree, p);
      IsraeliItaiClassRuns::Run run;
      const telemetry::TraceDoc doc =
          traced([&] { run = runs.run(0, edges, c.opts.seed); });
      expect_fingerprint(c.what, "", run.stats, run.matching);
      for (const auto& [round, count] : delivered_by_round(doc)) {
        if (round % 3 == 0 && round != 0) {
          EXPECT_EQ(count, 0.0) << "round " << round;
        }
      }
    }
  }
}

TEST(SyncNetwork, MaskedIsraeliItaiStepsOnlyMaskEndpointsInRoundZero) {
  // An unmasked run steps all n nodes in round 0; a one-edge mask steps
  // its two endpoints.
  Rng rng(23);
  const Graph g = erdos_renyi(400, 8.0 / 400, rng);
  IsraeliItaiOptions opts;
  opts.active_edges.assign(g.num_edges(), 0);
  opts.active_edges[g.num_edges() / 3] = 1;
  const TracedRun run = traced_israeli_itai(g, opts);
  EXPECT_EQ(run.result.matching.size(), 1u);
  int round0_steps = 0;
  for (const telemetry::TraceSpan& span : run.doc.spans) {
    if (span.name != "engine.step" || span.args.at("round") != 0.0) continue;
    ++round0_steps;
    EXPECT_EQ(span.args.at("stepped"), 2.0);
  }
  EXPECT_EQ(round0_steps, 1);
}

TEST(SyncNetwork, PoolBitIdenticalToSequentialAt8Threads) {
  // Active-set execution with per-worker send lists and stat slots must
  // stay a pure function of the seed across thread counts.
  Rng rng(31);
  Graph g = erdos_renyi(500, 0.02, rng);
  auto run_with = [&](ThreadPool* pool) {
    std::vector<std::uint64_t> state(g.num_nodes(), 0);
    SyncNetwork<IntMsg> net(g, 12);
    net.set_thread_pool(pool);
    auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
      const NodeId v = ctx.id();
      for (const auto& in : ctx.inbox()) {
        state[v] = state[v] * 31 +
                   static_cast<std::uint64_t>(in.payload->value);
      }
      const int draw = static_cast<int>(ctx.rng().below(1000));
      state[v] += static_cast<std::uint64_t>(draw);
      if (ctx.round() < 10 && draw % 4 != 0) {
        ctx.keep_active();
        for (const auto& inc : ctx.graph().neighbors(v)) {
          if ((draw + inc.to) % 3 == 0) ctx.send(inc.edge, IntMsg{draw});
        }
      }
    };
    for (int r = 0; r < 12; ++r) net.run_round(step);
    return std::make_pair(state, net.stats());
  };
  const auto [seq_state, seq_stats] = run_with(nullptr);
  ThreadPool pool(8);
  const auto [par_state, par_stats] = run_with(&pool);
  EXPECT_EQ(seq_state, par_state);
  EXPECT_EQ(seq_stats.rounds, par_stats.rounds);
  EXPECT_EQ(seq_stats.messages, par_stats.messages);
  EXPECT_EQ(seq_stats.total_bits, par_stats.total_bits);
  EXPECT_EQ(seq_stats.max_message_bits, par_stats.max_message_bits);
}

/// Round 0: every node sends its id to every neighbor. Round 1: returns
/// how many deliveries name a slot whose row entry is not the sender.
std::uint64_t count_slot_mismatches(const Graph& g, std::uint64_t seed) {
  SyncNetwork<IntMsg> net(g, seed);
  std::uint64_t bad = 0;
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0) {
      ctx.send_all(IntMsg{static_cast<int>(ctx.id())});
      return;
    }
    const auto row = ctx.graph().neighbors(ctx.id());
    for (const auto& in : ctx.inbox()) {
      if (row[in.slot].to != in.from ||
          in.payload->value != static_cast<int>(in.from)) {
        ++bad;
      }
    }
  };
  net.run_round(step);
  net.run_round(step);
  return bad;
}

TEST(SyncNetwork, NetworksOnOneStoreShareOneReverseArcTable) {
  Rng rng(41);
  const Graph g = erdos_renyi(400, 0.02, rng);
  EXPECT_EQ(count_slot_mismatches(g, 1), 0u);  // first network builds it
  const std::uint32_t* table = g.store().rev_slot().data();
  const Graph copy = g;  // same store
  EXPECT_EQ(count_slot_mismatches(copy, 2), 0u);
  EXPECT_EQ(copy.store().rev_slot().data(), table);
}

TEST(SyncNetwork, ConcurrentConstructionOnOneStoreBuildsOneTable) {
  // Eight threads race to build the first networks on a fresh store:
  // the table is built once (call_once) and every network reads it.
  Rng rng(43);
  const Graph g = erdos_renyi(2000, 0.004, rng);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> mismatches(kThreads, 1);
  std::vector<const std::uint32_t*> tables(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const Graph mine = g;
      mismatches[t] =
          count_slot_mismatches(mine, static_cast<std::uint64_t>(t));
      tables[t] = mine.store().rev_slot().data();
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_EQ(tables[t], tables[0]) << "thread " << t;
  }
}

/// One run of a gossip protocol whose nodes send in every round, the last
/// included, so every run ends with messages in flight.
struct LoggedRun {
  std::uint64_t seed;
  int rounds;
  std::vector<NodeId> activate;  // empty: round 0 steps every node
  bool draw;                     // steps draw from ctx.rng()
  bool faults;                   // a message-fault injector is attached
};

/// Everything a run shows its nodes: per node, each step's round, inbox
/// (sender, edge, slot, payload) and draw; plus the run's stats.
struct RunLog {
  std::vector<std::vector<std::uint64_t>> steps;
  NetStats stats;
  std::uint64_t round0_deliveries = 0;
};

RunLog run_logged(SyncNetwork<IntMsg>& net, const LoggedRun& run) {
  RunLog log;
  log.steps.resize(net.graph().num_nodes());
  if (!run.activate.empty()) {
    net.restrict_initial_active();
    for (const NodeId v : run.activate) net.activate(v);
  }
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    const NodeId v = ctx.id();
    std::vector<std::uint64_t>& out = log.steps[v];
    out.push_back(ctx.round());
    for (const auto& in : ctx.inbox()) {
      out.insert(out.end(), {in.from, in.edge, in.slot,
                             static_cast<std::uint64_t>(in.payload->value)});
    }
    const std::uint64_t draw = run.draw ? ctx.rng()() : v * 7 + ctx.round();
    out.push_back(draw);
    for (const auto& inc : ctx.graph().neighbors(v)) {
      if ((draw + inc.to) % 3 == 0) {
        ctx.send(inc.edge, IntMsg{static_cast<int>(draw % 1000)});
      }
    }
    if (draw % 5 == 0) ctx.keep_active();
  };
  for (int r = 0; r < run.rounds; ++r) {
    net.run_round(step);
    if (r == 0) log.round0_deliveries = net.last_round_deliveries();
  }
  log.stats = net.stats();
  return log;
}

TEST(SyncNetwork, ResetRunsMatchFreshNetworks) {
  // One network restarted across runs that differ in seed, activation
  // set, RNG use and message faults, one reset sweeping the stamp tables
  // (the forced epoch wrap): every run must match a fresh network with
  // the same seed bit for bit.
  Rng rng(47);
  const NodeId n = 2500;
  const Graph g = erdos_renyi(n, 4.0 / n, rng);
  ThreadPool pool(4);
  const faults::FaultPlan plan = faults::parse_fault_plan(
      "mix:drop=0.1,dup=0.05,delay=3,delay_p=0.2,reorder");
  std::vector<NodeId> odd;
  for (NodeId v = 1; v < n; v += 2) odd.push_back(v);
  // Run 2 outlasts run 1 by more than the plan's delays, so records run
  // 1 leaves parked would come due inside run 2 if the reset kept them.
  const std::vector<LoggedRun> runs = {
      {11, 6, {0, 5, 9, 400, 2499}, true, false},
      {12, 8, odd, true, true},
      {13, 12, {}, false, true},  // the reset after it sweeps the stamps
      {11, 6, {0, 5, 9, 400, 2499}, true, false},  // run 0, post-sweep
      {14, 9, odd, false, false},
  };
  SyncNetwork<IntMsg> reused(g, 0);
  reused.set_thread_pool(&pool);
  reused.set_shards(4);
  faults::MessageFaultInjector reused_faults(plan, 99);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const LoggedRun& run = runs[i];
    reused.reset(run.seed);
    // Attached once for runs 1-2 (kept across the reset between them).
    if (i == 1) reused.set_message_faults(&reused_faults);
    if (i == 3) reused.set_message_faults(nullptr);
    if (i == 2) reused.advance_epoch_base_for_testing();
    const RunLog got = run_logged(reused, run);

    SyncNetwork<IntMsg> fresh(g, run.seed);
    fresh.set_thread_pool(&pool);
    fresh.set_shards(4);
    faults::MessageFaultInjector fresh_faults(plan, 99);
    if (run.faults) fresh.set_message_faults(&fresh_faults);
    const RunLog want = run_logged(fresh, run);

    // Nothing the previous run sent or held back is delivered now.
    EXPECT_EQ(got.round0_deliveries, 0u);
    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.stats.rounds, want.stats.rounds);
    EXPECT_EQ(got.stats.messages, want.stats.messages);
    EXPECT_EQ(got.stats.total_bits, want.stats.total_bits);
    EXPECT_EQ(got.stats.max_message_bits, want.stats.max_message_bits);
    EXPECT_GT(want.stats.messages, 0u);
  }
}

TEST(SyncNetwork, EpochBaseMovesOnlyBetweenRuns) {
  const Graph g = path_graph(4);
  SyncNetwork<IntMsg> net(g, 1);
  net.run_round([](SyncNetwork<IntMsg>::Ctx&) {});
  EXPECT_THROW(net.advance_epoch_base_for_testing(), std::logic_error);
  net.reset(2);
  EXPECT_NO_THROW(net.advance_epoch_base_for_testing());
}

TEST(NetStats, MergeAndScaledMerge) {
  NetStats a;
  a.rounds = 10;
  a.note_message(100);
  NetStats b;
  b.rounds = 4;
  b.note_message(50);
  b.note_message(30);
  NetStats merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.rounds, 14u);
  EXPECT_EQ(merged.messages, 3u);
  EXPECT_EQ(merged.total_bits, 180u);
  EXPECT_EQ(merged.max_message_bits, 100u);
  NetStats scaled = a;
  scaled.merge_scaled_rounds(b, 5);
  EXPECT_EQ(scaled.rounds, 10u + 20u);
}

}  // namespace
}  // namespace lps
