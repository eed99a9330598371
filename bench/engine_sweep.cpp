// Implementation of bench_micro's engine sweep modes (engine_sweep.hpp).
// Kept as a small TU so the engine's hot-loop instantiations get clean
// codegen — see the header comment for the measured why.
#include "bench/engine_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "runtime/shard.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lps {
namespace {

struct EngineStep {
  void operator()(EngineNet::Ctx& ctx) const {
    if ((ctx.id() & 7u) == 0) {
      ctx.keep_active();
      for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
        ctx.send(inc.edge, EngineMsg{ctx.id()});
        break;
      }
    }
  }
};

struct EngineRunResult {
  NodeId n;
  double avg_deg;
  EdgeId m;
  unsigned shards;  // shard count the engine actually used
  std::uint64_t rounds;
  std::uint64_t messages;
  double elapsed;

  double rounds_per_sec() const { return rounds / elapsed; }
  double messages_per_sec() const { return messages / elapsed; }
  double ns_per_message() const { return 1e9 * elapsed / messages; }
};

/// Time the EngineStep workload on erdos_renyi(n, avg_deg/n, seed 15):
/// fresh graph and engine, 3 warmup rounds, then rounds until
/// min_seconds elapse (>= 10 rounds).
EngineRunResult measure_engine_rounds(NodeId n, double avg_deg,
                                      double min_seconds,
                                      unsigned shards_req) {
  Rng rng(15);
  const Graph g = erdos_renyi(n, avg_deg / n, rng);
  EngineNet net(g, 1, {});
  net.set_shards(shards_req);
  for (int r = 0; r < 3; ++r) net.run_round(EngineStep{});
  const std::uint64_t msgs0 = net.stats().messages;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rounds = 0;
  double elapsed = 0.0;
  while (elapsed < min_seconds || rounds < 10) {
    net.run_round(EngineStep{});
    ++rounds;
    elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return {n,      avg_deg,       g.num_edges(), net.shards(),
          rounds, net.stats().messages - msgs0, elapsed};
}

void print_engine_row(const EngineRunResult& r) {
  std::printf(
      "engine n=%-8u avg_deg=%-4.0f m=%-9u shards=%-4u rounds/s=%-10.1f "
      "msgs/s=%-12.0f ns/msg=%.1f\n",
      r.n, r.avg_deg, r.m, r.shards, r.rounds_per_sec(),
      r.messages_per_sec(), r.ns_per_message());
}

// ------------------------------------------- tracing-overhead probe --

/// Paired bare and fully observed runs of one workload: pair i is
/// off[i] and on[i], run back to back.
struct TraceOverheadResult {
  std::vector<EngineRunResult> off;  // telemetry switched off
  std::vector<EngineRunResult> on;   // metrics + recording + silent monitor
  std::size_t events = 0;  // events the last observed run captured

  /// Pair i's cost of observation: 1 - observed / bare rounds/sec.
  double overhead(std::size_t i) const {
    return 1.0 - on[i].rounds_per_sec() / off[i].rounds_per_sec();
  }
  /// The nearest-rank median pair (util/stats percentile).
  double median_overhead() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < on.size(); ++i) v.push_back(overhead(i));
    std::sort(v.begin(), v.end());
    return percentile(v, 0.5);
  }
  std::size_t pairs_over(double budget) const {
    std::size_t k = 0;
    for (std::size_t i = 0; i < on.size(); ++i) k += overhead(i) > budget;
    return k;
  }
};

/// One fully observed run: trace recording on, and a silent Monitor
/// sampling the engine's counters, which turns metrics on while armed.
EngineRunResult observed_engine_rounds(NodeId n, double avg_deg,
                                       double min_seconds,
                                       std::size_t& events) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.reset();  // a fresh event budget per run: no drop skew
  tracer.set_recording(true);
  telemetry::MonitorOptions mo;
  mo.interval_ms = 50;
  mo.out = nullptr;  // silent: sample the counters, print nothing
  telemetry::Monitor monitor(mo);
  const EngineRunResult r =
      measure_engine_rounds(n, avg_deg, min_seconds, /*shards=*/0);
  monitor.stop();
  tracer.set_recording(false);
  events = tracer.events();
  tracer.reset();
  return r;
}

/// `pairs` back-to-back pairs of a bare and a fully observed run of the
/// EngineStep workload, alternating which side runs first, so a slow
/// spell of the host lands on both sides alike and each pair's ratio
/// compares runs that shared it.
TraceOverheadResult measure_trace_overhead(NodeId n, double avg_deg,
                                           double min_seconds, int pairs) {
  TraceOverheadResult out;
  for (int i = 0; i < pairs; ++i) {
    const auto bare = [&] {
      out.off.push_back(
          measure_engine_rounds(n, avg_deg, min_seconds, /*shards=*/0));
    };
    const auto observed = [&] {
      out.on.push_back(
          observed_engine_rounds(n, avg_deg, min_seconds, out.events));
    };
    if (i % 2 == 0) {
      bare();
      observed();
    } else {
      observed();
      bare();
    }
  }
  return out;
}

/// The run with the nearest-rank median rounds/sec.
EngineRunResult median_run(std::vector<EngineRunResult> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const EngineRunResult& a, const EngineRunResult& b) {
              return a.rounds_per_sec() < b.rounds_per_sec();
            });
  return runs[runs.size() / 2];
}

}  // namespace

namespace bench_detail {
void engine_round(EngineNet& net) { net.run_round(EngineStep{}); }
}  // namespace bench_detail

int run_engine_sweep(const std::string& json_path, bool smoke) {
  const double min_seconds = smoke ? 0.02 : 0.5;
  std::vector<std::pair<NodeId, double>> configs;
  if (smoke) {
    configs = {{1u << 10, 4.0}, {1u << 12, 16.0}};
  } else {
    configs = {{1u << 14, 4.0},  {1u << 14, 16.0}, {1u << 17, 4.0},
               {1u << 17, 16.0}, {1u << 20, 4.0},  {1u << 20, 16.0},
               {1u << 24, 4.0}};
  }
  std::vector<EngineRunResult> results;
  for (const auto& [n, avg_deg] : configs) {
    // Best-of-5 per row, graph and engine rebuilt fresh each rep, same
    // discipline as the overhead probes: peak throughput is the
    // noise-stable quantity on a host with DRAM-bandwidth jitter; a
    // single 0.5s window can read 1.5-2x slow when a burst lands on it.
    // The rebuild matters as much as the repeat — the graph is
    // deterministic (seed 15) so the bits are identical, but a fresh
    // allocation rerolls page placement, and one badly-placed CSR block
    // would otherwise tax all five reps.
    EngineRunResult r{};
    for (int rep = 0; rep < 5; ++rep) {
      const EngineRunResult one =
          measure_engine_rounds(n, avg_deg, min_seconds, /*shards=*/0);
      if (rep == 0 || one.rounds_per_sec() > r.rounds_per_sec()) r = one;
    }
    if (r.messages == 0 || r.rounds == 0) {
      std::fprintf(stderr, "engine sweep: no traffic at n=%u\n", n);
      return 1;
    }
    print_engine_row(r);
    results.push_back(r);
  }
  if (json_path.empty()) return 0;
  // The telemetry acceptance number rides along with every full
  // regeneration: traced vs untraced throughput at the flagship
  // n=2^20 deg 4 row (ISSUE 7 budget: <= 5% rounds/sec).
  TraceOverheadResult overhead;
  if (!smoke && telemetry::Tracer::global().recording()) {
    // The probe's "untraced" half would record into the outer --trace
    // (and its reset() would erase it) — skip under an active trace.
    std::printf("tracing overhead probe skipped (outer --trace active)\n");
  } else if (!smoke) {
    overhead = measure_trace_overhead(1u << 20, 4.0, min_seconds, 5);
    std::printf("untraced ");
    print_engine_row(median_run(overhead.off));
    std::printf("traced   ");
    print_engine_row(median_run(overhead.on));
    std::printf("tracing overhead: median %.2f%% rounds/sec over %zu pairs "
                "(%zu events)\n",
                100.0 * overhead.median_overhead(), overhead.on.size(),
                overhead.events);
  }
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  const CacheInfo& cache = detect_cache();
  JsonObject head;
  head.add("schema", "lps-bench-engine-v3")
      .add("harness",
           "erdos_renyi(n, avg_deg/n, seed 15); every 8th node "
           "keep-active-sends 1 msg on its first edge per round; 3 warmup "
           "rounds then >=0.5s timed, best of 5 repeats")
      .add("generated_by", "bench_micro --engine-json")
      .add("cache",
           JsonObject()
               .add("l2_bytes", static_cast<std::uint64_t>(cache.l2_bytes))
               .add("l3_bytes", static_cast<std::uint64_t>(cache.l3_bytes)));
  if (!overhead.on.empty()) {
    const EngineRunResult off = median_run(overhead.off);
    const EngineRunResult on = median_run(overhead.on);
    head.add("telemetry_overhead",
             JsonObject()
                 .add("n", static_cast<std::uint64_t>(off.n))
                 .add("avg_deg", off.avg_deg)
                 .add("pairs", static_cast<std::uint64_t>(overhead.on.size()))
                 .add("untraced_rounds_per_sec", off.rounds_per_sec())
                 .add("traced_rounds_per_sec", on.rounds_per_sec())
                 .add("untraced_ns_per_msg", off.ns_per_message())
                 .add("traced_ns_per_msg", on.ns_per_message())
                 .add("overhead_frac", overhead.median_overhead())
                 .add("trace_events",
                      static_cast<std::uint64_t>(overhead.events)));
  }
  JsonRows rows(out, head, "results");
  for (const EngineRunResult& r : results) {
    rows.push(JsonObject()
                  .add("n", static_cast<std::uint64_t>(r.n))
                  .add("avg_deg", r.avg_deg)
                  .add("m", static_cast<std::uint64_t>(r.m))
                  .add("shards", static_cast<std::uint64_t>(r.shards))
                  .add("rounds", r.rounds)
                  .add("rounds_per_sec", r.rounds_per_sec())
                  .add("messages_per_sec", r.messages_per_sec())
                  .add("ns_per_delivered_message", r.ns_per_message()));
  }
  rows.close();
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

int run_shard_sweep() {
  // The locality curve: one size, one density, shard count swept. Auto
  // (0) last so the chosen count is visible against the forced points.
  const NodeId n = 1u << 20;
  for (unsigned s : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 0u}) {
    EngineRunResult r = measure_engine_rounds(n, 4.0, 0.5, s);
    std::printf("%s", s == 0 ? "(auto) " : "       ");
    print_engine_row(r);
  }
  return 0;
}

/// CI observability-overhead gate (--trace-overhead): the telemetry
/// contract says a fully observed engine run (metrics, trace recording
/// and a silent Monitor all on) stays within 5% of bare rounds/sec.
/// One pair's ratio swings far past 5% either way on a shared host, so
/// the verdict counts every pair: it fails only when at least
/// kGatePairsOver of the kGatePairs pairs are over budget, which puts
/// the median pair over budget too.
int run_trace_overhead(unsigned nexp) {
  constexpr int kGatePairs = 10;
  constexpr std::size_t kGatePairsOver = 8;
  constexpr double kBudget = 0.05;
  const NodeId n = NodeId{1} << nexp;
  const TraceOverheadResult r =
      measure_trace_overhead(n, 4.0, 0.5, kGatePairs);
  for (std::size_t i = 0; i < r.on.size(); ++i) {
    std::printf("pair %zu: untraced rounds/s=%.1f traced rounds/s=%.1f "
                "overhead %+.2f%%\n",
                i, r.off[i].rounds_per_sec(), r.on[i].rounds_per_sec(),
                100.0 * r.overhead(i));
  }
  const std::size_t over = r.pairs_over(kBudget);
  std::printf(
      "trace overhead: median %.2f%% rounds/sec, %zu of %zu pairs over the "
      "5%% budget (%zu events captured per traced run)\n",
      100.0 * r.median_overhead(), over, r.on.size(), r.events);
  if (over >= kGatePairsOver) {
    std::fprintf(stderr,
                 "trace overhead: %zu of %zu observed runs are more than 5%% "
                 "slower than their bare pair\n",
                 over, r.on.size());
    return 1;
  }
  return 0;
}

/// Cheap invariant checks for the CI smoke job: crash/assert here means
/// the engine or a migrated protocol regressed in Release mode.
int run_smoke_checks() {
  // Active-set and step-everything executions must be bit-identical.
  Rng rng(77);
  const Graph g = erdos_renyi(1u << 10, 6.0 / (1u << 10), rng);
  IsraeliItaiOptions a;
  a.seed = 9;
  IsraeliItaiOptions b = a;
  b.step_all_nodes = true;
  const auto ra = israeli_itai(g, a);
  const auto rb = israeli_itai(g, b);
  if (ra.matching.size() != rb.matching.size() ||
      ra.stats.messages != rb.stats.messages ||
      ra.stats.total_bits != rb.stats.total_bits ||
      ra.stats.rounds != rb.stats.rounds) {
    std::fprintf(stderr, "smoke: active-set != step_all on israeli_itai\n");
    return 1;
  }
  // Double-send on one channel must still throw.
  const Graph p = path_graph(2);
  EngineNet net(p, 1, {});
  bool threw = false;
  try {
    net.run_round([&](EngineNet::Ctx& ctx) {
      if (ctx.id() == 0) {
        ctx.send(0, EngineMsg{1});
        ctx.send(0, EngineMsg{2});
      }
    });
  } catch (const std::logic_error&) {
    threw = true;
  }
  if (!threw) {
    std::fprintf(stderr, "smoke: double-send did not throw\n");
    return 1;
  }
  return 0;
}

}  // namespace lps
