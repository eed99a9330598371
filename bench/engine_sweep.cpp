// Implementation of bench_micro's engine sweep modes (engine_sweep.hpp).
// Kept as a small TU so the engine's hot-loop instantiations get clean
// codegen — see the header comment for the measured why.
#include "bench/engine_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "runtime/shard.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/rng.hpp"

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

/// Time the EngineStep workload on an already-built graph: fresh
/// engine, 3 warmup rounds, then rounds until min_seconds elapse
/// (>= 10 rounds).
EngineRunResult measure_engine_rounds_on(const Graph& g, NodeId n,
                                         double avg_deg, double min_seconds,
                                         unsigned shards_req) {
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

/// Convenience wrapper: generate erdos_renyi(n, avg_deg/n, seed 15) and
/// measure on it.
EngineRunResult measure_engine_rounds(NodeId n, double avg_deg,
                                      double min_seconds,
                                      unsigned shards_req) {
  Rng rng(15);
  const Graph g = erdos_renyi(n, avg_deg / n, rng);
  return measure_engine_rounds_on(g, n, avg_deg, min_seconds, shards_req);
}

void print_engine_row(const EngineRunResult& r) {
  std::printf(
      "engine n=%-8u avg_deg=%-4.0f m=%-9u shards=%-4u rounds/s=%-10.1f "
      "msgs/s=%-12.0f ns/msg=%.1f\n",
      r.n, r.avg_deg, r.m, r.shards, r.rounds_per_sec(),
      r.messages_per_sec(), r.ns_per_message());
}

// ------------------------------------------- tracing-overhead probe --

struct TraceOverheadResult {
  EngineRunResult off;   // telemetry switched off
  EngineRunResult on;    // metrics + recording on + silent monitor
  std::size_t events = 0;  // spans captured during the best traced repeat

  double overhead_frac() const {
    return 1.0 - on.rounds_per_sec() / off.rounds_per_sec();
  }
};

/// Best-of-`reps` bare vs fully observed runs of the EngineStep workload:
/// metrics on, trace recording on, and a silent Monitor sampling the
/// progress board the engine then publishes every round. Best-of on both
/// sides: peak throughput is the noise-stable quantity, and comparing
/// peaks isolates the instrumentation cost from scheduler jitter.
TraceOverheadResult measure_trace_overhead(NodeId n, double avg_deg,
                                           double min_seconds, int reps) {
  TraceOverheadResult out{};
  for (int rep = 0; rep < reps; ++rep) {
    const EngineRunResult r =
        measure_engine_rounds(n, avg_deg, min_seconds, /*shards=*/0);
    if (rep == 0 || r.rounds_per_sec() > out.off.rounds_per_sec()) {
      out.off = r;
    }
  }
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const bool prev = telemetry::enabled();
  telemetry::set_enabled(true);
  for (int rep = 0; rep < reps; ++rep) {
    tracer.reset();  // fresh event budget per repeat — no drop skew
    tracer.set_recording(true);
    telemetry::MonitorOptions mo;
    mo.interval_ms = 50;
    mo.out = nullptr;  // silent: sample the board, print nothing
    telemetry::Monitor monitor(mo);
    const EngineRunResult r =
        measure_engine_rounds(n, avg_deg, min_seconds, /*shards=*/0);
    monitor.stop();
    tracer.set_recording(false);
    if (rep == 0 || r.rounds_per_sec() > out.on.rounds_per_sec()) {
      out.on = r;
      out.events = tracer.events();
    }
  }
  telemetry::set_enabled(prev);
  tracer.reset();
  return out;
}

/// Re-measure one gate row with metrics on and print where the round
/// time goes — the first clue when a gate row regresses. Per-round
/// means from EngineMetrics deltas; p2/sort/shard sums are totals
/// across shards, matching the runner's telemetry block.
void print_phase_breakdown(NodeId n, double avg_deg) {
  const bool prev = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
  const std::uint64_t rounds0 = em.rounds.value();
  telemetry::HistogramSnapshot round = em.round_ns.snapshot();
  telemetry::HistogramSnapshot p1 = em.exchange_p1_ns.snapshot();
  telemetry::HistogramSnapshot p2 = em.exchange_p2_ns.snapshot();
  telemetry::HistogramSnapshot sort = em.inbox_sort_ns.snapshot();
  telemetry::HistogramSnapshot step = em.step_ns.snapshot();
  measure_engine_rounds(n, avg_deg, /*min_seconds=*/0.2, /*shards=*/0);
  const std::uint64_t rounds = em.rounds.value() - rounds0;
  telemetry::set_enabled(prev);
  if (rounds == 0) return;
  const auto per_round = [rounds](telemetry::Histogram& h,
                                  const telemetry::HistogramSnapshot& before) {
    telemetry::HistogramSnapshot s = h.snapshot();
    s -= before;
    return static_cast<double>(s.sum) / static_cast<double>(rounds);
  };
  std::printf(
      "  phase/round: exchange_p1=%.0fns exchange_p2=%.0fns "
      "inbox_sort=%.0fns step=%.0fns round=%.0fns\n",
      per_round(em.exchange_p1_ns, p1), per_round(em.exchange_p2_ns, p2),
      per_round(em.inbox_sort_ns, sort), per_round(em.step_ns, step),
      per_round(em.round_ns, round));
}

/// Top-level `"key": value` blocks of `text` whose key contains
/// "baseline", returned verbatim (value brace/bracket-matched). This is
/// what keeps hand-annotated baseline blocks alive across --engine-json
/// regenerations.
std::vector<std::pair<std::string, std::string>> baseline_blocks(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  int depth = 0;
  bool in_string = false;
  std::string key;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      } else {
        key += c;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      key.clear();
      continue;
    }
    if (c == '{' || c == '[') {
      ++depth;
      continue;
    }
    if (c == '}' || c == ']') {
      --depth;
      continue;
    }
    if (c == ':' && depth == 1 && key.find("baseline") != std::string::npos) {
      // Capture the value: skip whitespace, then match braces/brackets
      // (baseline values are objects; scalars end at , or }).
      std::size_t j = i + 1;
      while (j < text.size() && (text[j] == ' ' || text[j] == '\n')) ++j;
      std::size_t start = j;
      int vdepth = 0;
      bool vstring = false;
      for (; j < text.size(); ++j) {
        const char vc = text[j];
        if (vstring) {
          if (vc == '\\') {
            ++j;
          } else if (vc == '"') {
            vstring = false;
          }
          continue;
        }
        if (vc == '"') {
          vstring = true;
        } else if (vc == '{' || vc == '[') {
          ++vdepth;
        } else if (vc == '}' || vc == ']') {
          if (vdepth == 0) break;  // enclosing object closed (scalar value)
          --vdepth;
          if (vdepth == 0) {
            ++j;
            break;
          }
        } else if ((vc == ',') && vdepth == 0) {
          break;
        }
      }
      out.emplace_back(key, text.substr(start, j - start));
      i = j - 1;
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

namespace bench_detail {
void engine_round(EngineNet& net) { net.run_round(EngineStep{}); }
}  // namespace bench_detail

int run_engine_sweep(const std::string& json_path, bool smoke,
                     unsigned shards_req) {
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
    // discipline as the perf gate and the overhead probes: peak
    // throughput is the noise-stable quantity on a host with
    // DRAM-bandwidth jitter; a single 0.5s window can read 1.5-2x slow
    // when a burst lands on it. The rebuild matters as much as the
    // repeat — the graph is deterministic (seed 15) so the bits are
    // identical, but a fresh allocation rerolls page placement, and one
    // badly-placed CSR block would otherwise tax all five reps.
    EngineRunResult r{};
    for (int rep = 0; rep < 5; ++rep) {
      const EngineRunResult one =
          measure_engine_rounds(n, avg_deg, min_seconds, shards_req);
      if (rep == 0 || one.rounds_per_sec() > r.rounds_per_sec()) r = one;
    }
    if (r.messages == 0 || r.rounds == 0) {
      std::fprintf(stderr, "engine sweep: no traffic at n=%u\n", n);
      return 1;
    }
    print_engine_row(r);
    // Ledger rows keyed to join against the BENCH_engine.json baseline
    // (perf_diff pins per config+metric): rounds/sec as the throughput
    // series, ns/msg as the per-message-cost series — the schema v3
    // pair every sweep row trends.
    const std::string cfg =
        "engine:n=" + std::to_string(r.n) + ",deg=" +
        std::to_string(static_cast<unsigned>(r.avg_deg));
    bench::ledger_append(cfg, "rounds_per_sec", r.rounds_per_sec(),
                         /*higher_is_better=*/true);
    bench::ledger_append(cfg, "ns_per_msg", r.ns_per_message(),
                         /*higher_is_better=*/false);
    results.push_back(r);
  }
  if (json_path.empty()) return 0;
  // The telemetry acceptance number rides along with every full
  // regeneration: traced vs untraced throughput at the flagship
  // n=2^20 deg 4 row (ISSUE 7 budget: <= 5% rounds/sec).
  TraceOverheadResult overhead{};
  if (!smoke && telemetry::Tracer::global().recording()) {
    // The probe's "untraced" half would record into the outer --trace
    // (and its reset() would erase it) — skip under an active trace.
    std::printf("tracing overhead probe skipped (outer --trace active)\n");
  } else if (!smoke) {
    overhead = measure_trace_overhead(1u << 20, 4.0, min_seconds, 3);
    std::printf("untraced ");
    print_engine_row(overhead.off);
    std::printf("traced   ");
    print_engine_row(overhead.on);
    std::printf("tracing overhead: %.2f%% rounds/sec (%zu events)\n",
                100.0 * overhead.overhead_frac(), overhead.events);
  }
  // Preserve hand-annotated baseline blocks from the previous file: a
  // regeneration must not erase the history the perf gate and the PR
  // notes diff against.
  const std::vector<std::pair<std::string, std::string>> keep =
      baseline_blocks(read_file(json_path));
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  const CacheInfo& cache = detect_cache();
  out << "{\n"
      << "  \"schema\": \"lps-bench-engine-v3\",\n"
      << "  \"harness\": \"erdos_renyi(n, avg_deg/n, seed 15); every 8th "
         "node keep-active-sends 1 msg on its first edge per round; 3 "
         "warmup rounds then >=0.5s timed, best of 5 repeats\",\n"
      << "  \"generated_by\": \"bench_micro --engine-json\",\n"
      << "  \"cache\": {\"l2_bytes\": " << cache.l2_bytes
      << ", \"l3_bytes\": " << cache.l3_bytes << "},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EngineRunResult& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"n\": %u, \"avg_deg\": %.0f, \"m\": %u, "
                  "\"shards\": %u, \"rounds\": %llu, "
                  "\"rounds_per_sec\": %.1f, \"messages_per_sec\": %.0f, "
                  "\"ns_per_delivered_message\": %.1f}%s\n",
                  r.n, r.avg_deg, r.m, r.shards,
                  static_cast<unsigned long long>(r.rounds),
                  r.rounds_per_sec(), r.messages_per_sec(),
                  r.ns_per_message(), i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]";
  if (!smoke && overhead.off.rounds > 0) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\n  \"telemetry_overhead\": {\"n\": %u, \"avg_deg\": %.0f, "
        "\"untraced_rounds_per_sec\": %.1f, \"traced_rounds_per_sec\": %.1f, "
        "\"untraced_ns_per_msg\": %.1f, \"traced_ns_per_msg\": %.1f, "
        "\"overhead_frac\": %.4f, \"trace_events\": %zu}",
        overhead.off.n, overhead.off.avg_deg, overhead.off.rounds_per_sec(),
        overhead.on.rounds_per_sec(), overhead.off.ns_per_message(),
        overhead.on.ns_per_message(), overhead.overhead_frac(),
        overhead.events);
    out << buf;
  }
  for (const auto& [key, value] : keep) {
    out << ",\n  \"" << key << "\": " << value;
  }
  out << "\n}\n";
  std::printf("wrote %s (%zu baseline block%s preserved)\n",
              json_path.c_str(), keep.size(), keep.size() == 1 ? "" : "s");
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

/// CI perf-regression gate: re-measure the sweep rows with n <= 2^17
/// (the big rows are too slow for CI) and fail when rounds/sec drops
/// more than 20% below the checked-in baseline file. Each row takes
/// the best of three repeats — peak throughput is the stable quantity
/// under scheduler noise; a real regression lowers all three. The
/// documented override for noisy hosts: LPS_BENCH_GATE_SKIP=1 reports
/// but exits 0.
int run_perf_gate(const std::string& baseline_path) {
  const std::string text = read_file(baseline_path);
  if (text.empty()) {
    std::fprintf(stderr, "perf gate: cannot read %s\n",
                 baseline_path.c_str());
    return 1;
  }
  telemetry::JsonValue doc;
  std::string error;
  if (!telemetry::parse_json(text, doc, &error)) {
    std::fprintf(stderr, "perf gate: %s: %s\n", baseline_path.c_str(),
                 error.c_str());
    return 1;
  }
  const telemetry::JsonValue* rows = doc.find("results");
  if (rows == nullptr || !rows->is_array() || rows->array.empty()) {
    std::fprintf(stderr, "perf gate: no results in %s\n",
                 baseline_path.c_str());
    return 1;
  }
  bool failed = false;
  std::size_t compared = 0;
  for (const telemetry::JsonValue& row : rows->array) {
    const telemetry::JsonValue* n = row.find("n");
    const telemetry::JsonValue* deg = row.find("avg_deg");
    const telemetry::JsonValue* rps = row.find("rounds_per_sec");
    if (n == nullptr || deg == nullptr || rps == nullptr || !n->is_number() ||
        !deg->is_number() || !rps->is_number() || rps->number <= 0.0) {
      continue;
    }
    const double bn = n->number;
    const double bdeg = deg->number;
    const double brps = rps->number;
    if (bn > static_cast<double>(1u << 17)) continue;  // CI time budget
    Rng rng(15);
    const Graph g =
        erdos_renyi(static_cast<NodeId>(bn), bdeg / bn, rng);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const EngineRunResult r = measure_engine_rounds_on(
          g, static_cast<NodeId>(bn), bdeg, /*min_seconds=*/0.2,
          /*shards=*/0);
      best = std::max(best, r.rounds_per_sec());
    }
    ++compared;
    const double ratio = best / brps;
    std::printf(
        "perf gate n=%-8.0f avg_deg=%-4.0f baseline=%-10.1f now=%-10.1f "
        "ratio=%.2f%s\n",
        bn, bdeg, brps, best, ratio,
        ratio < 0.8 ? "  << REGRESSION" : "");
    if (ratio < 0.8) {
      failed = true;
      print_phase_breakdown(static_cast<NodeId>(bn), bdeg);
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "perf gate: no comparable rows in %s\n",
                 baseline_path.c_str());
    return 1;
  }
  if (failed) {
    const char* skip = std::getenv("LPS_BENCH_GATE_SKIP");
    if (skip != nullptr && skip[0] == '1') {
      std::printf(
          "perf gate: regression detected but LPS_BENCH_GATE_SKIP=1 — "
          "ignoring\n");
      return 0;
    }
    std::fprintf(stderr,
                 "perf gate: rounds/sec regressed >20%% vs %s (set "
                 "LPS_BENCH_GATE_SKIP=1 to override on noisy hosts)\n",
                 baseline_path.c_str());
    return 1;
  }
  std::printf("perf gate: OK (%zu rows within 20%% of %s)\n", compared,
              baseline_path.c_str());
  return 0;
}

/// CI observability-overhead gate (--trace-overhead): the telemetry
/// contract says a fully observed engine run (metrics, trace recording
/// and a silent Monitor all on) stays within 5% of bare rounds/sec. Same
/// best-of-3 discipline and LPS_BENCH_GATE_SKIP override as the perf
/// gate.
int run_trace_overhead(unsigned nexp) {
  const NodeId n = NodeId{1} << nexp;
  const TraceOverheadResult r = measure_trace_overhead(n, 4.0, 0.3, 3);
  std::printf("untraced ");
  print_engine_row(r.off);
  std::printf("traced   ");
  print_engine_row(r.on);
  const double frac = r.overhead_frac();
  std::printf(
      "trace overhead: %.2f%% rounds/sec (%zu events captured, budget "
      "5%%)\n",
      100.0 * frac, r.events);
  if (frac > 0.05) {
    const char* skip = std::getenv("LPS_BENCH_GATE_SKIP");
    if (skip != nullptr && skip[0] == '1') {
      std::printf(
          "trace overhead: over budget but LPS_BENCH_GATE_SKIP=1 — "
          "ignoring\n");
      return 0;
    }
    std::fprintf(stderr,
                 "trace overhead: traced run >5%% slower than untraced (set "
                 "LPS_BENCH_GATE_SKIP=1 to override on noisy hosts)\n");
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
