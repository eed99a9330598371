// The observability contracts (DESIGN.md §14): the closed event
// vocabulary and its Chrome-trace instant shape, empty-histogram
// percentiles, per-run JSON omission of unmeasured percentile blocks,
// each leg's latency stated once in the run record, write_json
// collision ordinals, the monitor reading the engine's counters, the
// stall watchdog's dump + distinct exit code (including a dump racing
// other threads' trace emission), and crash/revive pairing in a run's
// trace.
// The bit-identity of engine clients with tracing and a Monitor on
// lives in test_telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/runner.hpp"
#include "graph/generators.hpp"
#include "run_record.hpp"
#include "runtime/engine.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

namespace tel = telemetry;

std::filesystem::path fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("lps_obs_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The `cat:"event"` instants of a loaded trace, in document order.
std::vector<tel::TraceSpan> event_instants(const tel::TraceDoc& doc) {
  std::vector<tel::TraceSpan> out;
  for (const tel::TraceSpan& s : doc.spans) {
    if (s.cat == "event") out.push_back(s);
  }
  return out;
}

struct StallMsg {
  std::uint32_t x;
};
using StallNet = SyncNetwork<StallMsg, DefaultBitMeter<StallMsg>>;

/// What the global tracer holds now, written and parsed back.
tel::TraceDoc tracer_contents() {
  std::ostringstream os;
  tel::Tracer::global().write_chrome_trace(os);
  tel::TraceDoc doc;
  std::string error;
  EXPECT_TRUE(tel::load_chrome_trace(os.str(), doc, &error)) << error;
  return doc;
}

TEST(EventVocabulary, NamesAreClosedAndUnique) {
  std::set<std::string> names;
  for (unsigned k = 0; k < tel::kEventKinds; ++k) {
    const auto kind = static_cast<tel::EventKind>(k);
    const std::string name = tel::event_kind_name(kind);
    EXPECT_TRUE(names.insert(name).second) << name;
    // Arg names pack to the front, and the first is the clock the fact
    // happened on.
    const auto args = tel::event_arg_names(kind);
    ASSERT_NE(args[0], nullptr) << name;
    EXPECT_TRUE(std::string(args[0]) == "round" ||
                std::string(args[0]) == "epoch")
        << name;
    for (unsigned i = 1; i < tel::kMaxArgs; ++i) {
      if (args[i] != nullptr) {
        EXPECT_NE(args[i - 1], nullptr) << name;
      }
    }
  }
  EXPECT_EQ(names.size(), tel::kEventKinds);
  for (const char* kind : {"drop", "dup", "delay", "crash", "revive", "cut",
                           "reinsert", "resync", "watchdog"}) {
    EXPECT_EQ(names.count(kind), 1u) << kind;
  }
  EXPECT_EQ(tel::event_arg_names(tel::EventKind::kDelay)[3],
            std::string("rounds"));
}

TEST(Histogram, EmptyPercentilesAreZero) {
  // Percentile on a never-recorded histogram is 0, not garbage from an
  // empty bucket walk.
  tel::Histogram h;
  const tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.percentile(90), 0.0);
  EXPECT_EQ(s.percentile(99), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(TraceEvents, FourArgInstantsRoundTripThroughChromeTrace) {
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  tracer.event(tel::EventKind::kDelay, 5, 40, 17, 3);
  tracer.event(tel::EventKind::kCrash, 2, 17);
  // A second thread's instants land in its own buffer (its own tid).
  std::thread other([&] { tracer.event(tel::EventKind::kRevive, 3, 17); });
  other.join();
  tracer.set_recording(false);
  EXPECT_EQ(tracer.events(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::vector<tel::TraceSpan> ev = event_instants(tracer_contents());
  tracer.reset();
  ASSERT_EQ(ev.size(), 3u);
  std::map<std::string, tel::TraceSpan> by_name;
  for (const tel::TraceSpan& s : ev) {
    EXPECT_EQ(s.ph, 'i') << s.name;
    by_name[s.name] = s;
  }
  const tel::TraceSpan& delay = by_name.at("delay");
  ASSERT_EQ(delay.args.size(), 4u);
  EXPECT_EQ(delay.args.at("round"), 5.0);
  EXPECT_EQ(delay.args.at("edge"), 40.0);
  EXPECT_EQ(delay.args.at("from"), 17.0);
  EXPECT_EQ(delay.args.at("rounds"), 3.0);
  const tel::TraceSpan& crash = by_name.at("crash");
  ASSERT_EQ(crash.args.size(), 2u);  // unnamed slots are not written
  EXPECT_EQ(crash.args.at("epoch"), 2.0);
  EXPECT_EQ(crash.args.at("vertex"), 17.0);
  EXPECT_NE(by_name.at("revive").tid, crash.tid);
}

TEST(TraceEvents, CapacityCapCountsDrops) {
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_capacity(4);
  tracer.set_recording(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.event(tel::EventKind::kResync, i, i, 1);
  }
  tracer.set_recording(false);
  EXPECT_EQ(tracer.events(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(event_instants(tracer_contents()).size(), 4u);
  tracer.set_capacity(std::size_t{1} << 20);
  tracer.reset();
}

TEST(RunJson, OmitsPercentileBlocksWithoutRounds) {
  // Satellite (a), JSON half: a run with zero engine rounds (sequential
  // solver) reports no round/phase blocks — absent beats zeros that
  // read as measurements.
  api::RunSpec spec;
  spec.generator = "path:n=8";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  const api::RunResult r = api::run_one(spec);
  ASSERT_TRUE(r.telemetry.enabled);
  EXPECT_EQ(r.telemetry.rounds, 0u);
  using testing::field;
  const JsonValue rec = testing::parse_record(r.to_json());
  const JsonValue& tel = field(rec, "telemetry");
  EXPECT_TRUE(field(tel, "enabled").boolean);
  EXPECT_EQ(field(tel, "rounds").number, 0.0);
  EXPECT_EQ(tel.find("round"), nullptr);
  EXPECT_EQ(tel.find("phase_mean_per_round"), nullptr);

  // And the blocks appear as soon as rounds were measured.
  api::RunResult synthetic = r;
  synthetic.telemetry.rounds = 3;
  synthetic.telemetry.round_ns_p99 = 5.0;
  synthetic.telemetry.step_ns_mean = 0.25;
  const JsonValue with =
      field(testing::parse_record(synthetic.to_json()), "telemetry");
  EXPECT_EQ(field(field(with, "round"), "p99_ns").number, 5.0);
  EXPECT_EQ(field(field(with, "phase_mean_per_round"), "step_ns").number,
            0.25);
}

TEST(RunJson, EveryLegFillsItsLatencyPercentiles) {
  // Each leg times its own unit of work and reports it next to its
  // other fields: a run with all three legs reports all three p50/p99
  // pairs, in the RunResult and in the record, and the engine's
  // telemetry block carries none of them.
  api::RunSpec spec;
  spec.generator = "er:n=200,deg=4";
  spec.solver = "israeli_itai";
  spec.oracle = "none";
  spec.lca = "auto";
  spec.dynamic = "repair";
  spec.dynamic_stream = "churn:n=512,m0=1024,updates=1000";
  spec.dynamic_checkpoints = 0;
  spec.faults = "flap1";
  const api::RunResult r = api::run_one(spec);
  using testing::field;
  const JsonValue rec = testing::parse_record(r.to_json());
  const struct {
    const char* name;
    std::uint64_t p50;
    std::uint64_t p99;
  } legs[] = {
      {"lca_query", r.lca_query_p50_ns, r.lca_query_p99_ns},
      {"dynamic_update", r.dynamic_update_p50_ns, r.dynamic_update_p99_ns},
      {"fault_recovery", r.fault_recovery_p50_ns, r.fault_recovery_p99_ns},
  };
  for (const auto& leg : legs) {
    const std::string name = leg.name;
    EXPECT_GT(leg.p50, 0u) << name;
    EXPECT_LE(leg.p50, leg.p99) << name;
    EXPECT_EQ(field(rec, name + "_p50_ns").number,
              static_cast<double>(leg.p50));
    EXPECT_EQ(field(rec, name + "_p99_ns").number,
              static_cast<double>(leg.p99));
  }
  for (const auto& [key, value] : field(rec, "telemetry").object) {
    EXPECT_EQ(key.find("lca"), std::string::npos) << key;
    EXPECT_EQ(key.find("dynamic"), std::string::npos) << key;
    EXPECT_EQ(key.find("recovery"), std::string::npos) << key;
  }
}

TEST(RunJson, BootstrapOnlyStreamReportsNoUpdateLatency) {
  // A stream whose every update is bootstrap (off the clock) has no
  // measured update, so it reports no update latency: the bootstrap
  // inserts are warm-up, not samples.
  api::RunSpec spec;
  spec.generator = "path:n=2";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.dynamic = "repair";
  spec.dynamic_stream = "churn:n=1024,m0=2048,updates=0";
  spec.dynamic_checkpoints = 0;
  const api::RunResult r = api::run_one(spec);
  EXPECT_EQ(r.dynamic_bootstrap_updates, 2048u);
  EXPECT_EQ(r.dynamic_updates, 0u);
  EXPECT_EQ(r.dynamic_update_p50_ns, 0u);
  EXPECT_EQ(r.dynamic_update_p99_ns, 0u);
  using testing::field;
  const JsonValue rec = testing::parse_record(r.to_json());
  EXPECT_EQ(field(rec, "dynamic_update_p50_ns").number, 0.0);
  EXPECT_EQ(field(rec, "dynamic_update_p99_ns").number, 0.0);
}

TEST(WriteJson, CollidingSpecsGetOrdinalSuffixes) {
  // Satellite (f): identical specs never overwrite each other's record.
  api::RunSpec spec;
  spec.generator = "path:n=8";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  const api::RunResult r = api::run_one(spec);
  const std::filesystem::path dir = fresh_dir("write_json");
  const std::string p1 = api::write_json(r, dir.string());
  const std::string p2 = api::write_json(r, dir.string());
  const std::string p3 = api::write_json(r, dir.string());
  EXPECT_NE(p1, p2);
  EXPECT_NE(p2, p3);
  EXPECT_TRUE(std::filesystem::exists(p1));
  EXPECT_TRUE(std::filesystem::exists(p2));
  EXPECT_TRUE(std::filesystem::exists(p3));
  EXPECT_NE(p2.find("__r2.json"), std::string::npos) << p2;
  EXPECT_NE(p3.find("__r3.json"), std::string::npos) << p3;
}

TEST(Monitor, WatchdogDumpsStateAndCountersThenLatches) {
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);

  std::ostringstream sink;
  tel::MonitorOptions mo;
  mo.interval_ms = 10;
  mo.stall_timeout_ms = 60;
  mo.abort_on_stall = false;
  mo.out = &sink;
  tel::Monitor monitor(mo);
  // Seven rounds delivering 100 messages since arming, then nothing
  // more -> the deadline passes.
  tel::EngineMetrics& em = tel::EngineMetrics::get();
  em.rounds.add(7);
  em.messages_delivered.add(100);
  for (int i = 0; i < 200 && !monitor.stalled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  monitor.stop();
  tracer.set_recording(false);
  EXPECT_TRUE(monitor.stalled());
  const std::string dump = sink.str();
  EXPECT_NE(dump.find("watchdog: stall detected"), std::string::npos) << dump;
  EXPECT_NE(dump.find("watchdog: state: round=7 delivered=100"),
            std::string::npos);
  EXPECT_NE(dump.find("watchdog: shard_exchange_ns"), std::string::npos);
  EXPECT_NE(dump.find("watchdog: worker_busy_ns"), std::string::npos);
  EXPECT_NE(dump.find("watchdog: engine totals"), std::string::npos);
  // The dump itself lands on the trace timeline as a watchdog instant.
  const std::vector<tel::TraceSpan> ev = event_instants(tracer_contents());
  tracer.reset();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].name, "watchdog");
  EXPECT_EQ(ev[0].args.at("round"), 7.0);
  EXPECT_EQ(ev[0].args.at("delivered"), 100.0);
}

TEST(Monitor, StatusLinesFollowEngineCountersWithMetricsOff) {
  // The caller never turned metrics on: arming the monitor does, so the
  // engine's counters move and the status line follows them; stopping
  // it turns metrics back off.
  const bool prev = tel::enabled();
  tel::set_enabled(false);
  Rng rng(5);
  const Graph g = erdos_renyi(256, 4.0 / 256, rng);
  StallNet net(g, 1, {});
  tel::EngineMetrics& em = tel::EngineMetrics::get();
  std::ostringstream sink;
  tel::MonitorOptions mo;
  mo.interval_ms = 10;
  mo.out = &sink;
  mo.label = "t";
  tel::Monitor monitor(mo);
  EXPECT_TRUE(tel::enabled());
  const std::uint64_t delivered0 = em.messages_delivered.value();
  for (int r = 0; r < 6; ++r) {
    net.run_round([](StallNet::Ctx& ctx) {
      for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
        ctx.send(inc.edge, StallMsg{ctx.id()});
        break;
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  const std::uint64_t delivered = em.messages_delivered.value() - delivered0;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  monitor.stop();
  EXPECT_FALSE(tel::enabled());
  tel::set_enabled(prev);

  // Each line reads `monitor[t]: round=R msgs/s=X delivered=D` (or the
  // wait line); the rounds climb to all six, and the last line has
  // every delivery.
  std::vector<std::uint64_t> rounds;
  std::string last;
  std::istringstream lines(sink.str());
  for (std::string line; std::getline(lines, line);) {
    EXPECT_EQ(line.find("active="), std::string::npos) << line;
    const auto at = line.find("monitor[t]: round=");
    if (at == std::string::npos) continue;
    rounds.push_back(std::stoull(line.substr(at + 18)));
    last = line;
  }
  ASSERT_FALSE(rounds.empty()) << sink.str();
  EXPECT_TRUE(std::is_sorted(rounds.begin(), rounds.end())) << sink.str();
  EXPECT_EQ(rounds.back(), 6u) << sink.str();
  EXPECT_GT(delivered, 0u);
  EXPECT_NE(last.find(" delivered=" + std::to_string(delivered)),
            std::string::npos)
      << last;
}

// The dump must not read what other threads are still recording: here
// a second thread keeps emitting trace instants while the watchdog
// fires (the CI TSan job runs this test).
TEST(Monitor, WatchdogFiresWhileAnotherThreadEmits) {
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);

  std::ostringstream sink;
  tel::MonitorOptions mo;
  mo.interval_ms = 10;
  mo.stall_timeout_ms = 40;
  mo.out = &sink;
  tel::Monitor monitor(mo);
  std::atomic<bool> done{false};
  std::uint64_t emitted = 0;
  std::thread emitter([&] {
    for (std::uint64_t i = 0; !done.load(); ++i) {
      tracer.event(tel::EventKind::kDrop, i, i % 64, 1);
      ++emitted;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (int i = 0; i < 200 && !monitor.stalled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Keep emitting a little past the dump, then quiesce.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true);
  emitter.join();
  monitor.stop();
  tracer.set_recording(false);
  EXPECT_TRUE(monitor.stalled());
  EXPECT_NE(sink.str().find("watchdog: stall detected"), std::string::npos);

  std::size_t drops = 0;
  std::size_t watchdogs = 0;
  for (const tel::TraceSpan& s : event_instants(tracer_contents())) {
    drops += s.name == "drop";
    watchdogs += s.name == "watchdog";
  }
  tracer.reset();
  EXPECT_EQ(drops, emitted);
  EXPECT_EQ(watchdogs, 1u);
}

// A genuinely stalled *engine*: rounds advance (the round counter
// moves), then the step function wedges mid-run. The watchdog must dump
// and abort the process with its distinct exit code.
TEST(MonitorDeathTest, StalledEngineAbortsWithDistinctExitCode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        Rng rng(3);
        const Graph g = erdos_renyi(256, 4.0 / 256, rng);
        StallNet net(g, 1, {});
        tel::MonitorOptions mo;
        mo.interval_ms = 10;
        mo.stall_timeout_ms = 80;
        mo.abort_on_stall = true;
        mo.out = nullptr;  // dump goes to stderr for the EXPECT_EXIT regex
        tel::Monitor monitor(mo);
        for (int r = 0;; ++r) {
          net.run_round([](StallNet::Ctx& ctx) {
            if ((ctx.id() & 7u) == 0) {
              ctx.keep_active();
              for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
                ctx.send(inc.edge, StallMsg{ctx.id()});
                break;
              }
            }
          });
          if (r == 3) {  // wedge: no further rounds complete
            std::this_thread::sleep_for(std::chrono::seconds(30));
          }
        }
      },
      ::testing::ExitedWithCode(tel::kWatchdogExitCode),
      "watchdog: stall detected");
}

TEST(FaultEvents, EveryCrashHasAMatchingRevive) {
  const std::filesystem::path dir = fresh_dir("fault_events");
  api::RunSpec spec;
  spec.generator = "er:n=256,deg=4";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.dynamic = "greedy";
  spec.dynamic_stream = "churn:n=256,m0=512,updates=256";
  spec.dynamic_checkpoints = 0;
  spec.faults = "flap1";
  spec.trace = (dir / "trace.json").string();
  const api::RunResult r = api::run_one(spec);
  ASSERT_EQ(r.trace_path, spec.trace);
  ASSERT_GT(r.fault_crashed, 0u);
  EXPECT_EQ(r.fault_crashed, r.fault_revived);

  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace_file(spec.trace, doc, &error)) << error;
  // Crash and revive are both emitted by the fault session's thread, so
  // document order is time order.
  std::map<std::uint64_t, std::int64_t> down;
  std::uint64_t crashes = 0;
  std::uint64_t revives = 0;
  for (const tel::TraceSpan& s : event_instants(doc)) {
    if (s.name != "crash" && s.name != "revive") continue;
    ASSERT_EQ(s.args.count("vertex"), 1u) << s.name;
    const auto vid = static_cast<std::uint64_t>(s.args.at("vertex"));
    down[vid] += s.name == "crash" ? 1 : -1;
    EXPECT_GE(down[vid], 0) << "revive before crash for vertex " << vid;
    ++(s.name == "crash" ? crashes : revives);
  }
  EXPECT_EQ(crashes, r.fault_crashed);
  EXPECT_EQ(revives, r.fault_revived);
  for (const auto& [vid, outstanding] : down) {
    EXPECT_EQ(outstanding, 0) << "vertex " << vid << " still down";
  }
}

}  // namespace
}  // namespace lps
