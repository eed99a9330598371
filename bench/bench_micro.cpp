// Experiment MICRO — google-benchmark microbenchmarks of the substrates
// (engineering numbers, not paper claims): exact solvers, the
// synchronous engine's per-round overhead, BigCounter arithmetic, and
// the generators.
//
// Extra modes (custom main):
//   --engine-json[=PATH]  run the engine round-throughput sweep (4 sizes
//                         x 2 densities + one n=2^24 run, fixed seeds)
//                         and write PATH (default BENCH_engine.json, for
//                         committing to the repo root so future PRs can
//                         diff). Also measures tracing overhead at
//                         n=2^20 deg 4 into a "telemetry_overhead"
//                         block.
//   --shard-sweep         n=2^20 avg_deg=4, shard counts 1..128 and
//                         auto: the locality curve behind DESIGN.md §11.
//   --smoke               tiny sweep + engine sanity asserts, exit 0/1;
//                         the CI bench smoke job runs this in Release.
//   --trace=PATH          record a Chrome/Perfetto trace of whichever
//                         sweep mode runs and write it to PATH.
//   --trace-overhead[=E]  observability-overhead gate: best-of-3
//                         rounds/sec at n=2^E (E in 10..24, the sizes the
//                         sweep covers; default 20) deg 4, bare vs
//                         fully observed (metrics, trace recording and a
//                         silent Monitor sampling progress); exit 1 when
//                         the observed run is >5% slower
//                         (LPS_BENCH_GATE_SKIP=1 reports but exits 0,
//                         the override for noisy CI hosts).
//
// These are engine numbers for one host. Comparing two commits is
// tools/ab.py's job: a paired perfbench A/B on one host.
//
// The sweep/gate implementations live in bench/engine_sweep.cpp: the
// engine hot loops measured there need a small TU for clean codegen
// (see engine_sweep.hpp), so this TU holds only the BM_* suite and the
// CLI dispatch.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/engine_sweep.hpp"
#include "core/bipartite_counting.hpp"
#include "core/israeli_itai.hpp"
#include "core/luby_mis.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "telemetry/telemetry.hpp"
#include "seq/blossom.hpp"
#include "seq/greedy.hpp"
#include "seq/hopcroft_karp.hpp"
#include "seq/hungarian.hpp"
#include "util/bigint.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

void BM_ErdosRenyi(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(erdos_renyi(n, 8.0 / n, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ErdosRenyi)->Arg(1 << 10)->Arg(1 << 14);

void BM_HopcroftKarp(benchmark::State& state) {
  const NodeId half = static_cast<NodeId>(state.range(0));
  Rng rng(7);
  const auto bg = random_bipartite(half, half, 6.0 / half, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(bg.graph, bg.side));
  }
  state.SetItemsProcessed(state.iterations() * bg.graph.num_edges());
}
BENCHMARK(BM_HopcroftKarp)->Arg(1 << 9)->Arg(1 << 12);

void BM_Blossom(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(9);
  const Graph g = erdos_renyi(n, 6.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blossom_mcm(g));
  }
}
BENCHMARK(BM_Blossom)->Arg(1 << 7)->Arg(1 << 9);

void BM_GreedyMwm(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(11);
  Graph g = erdos_renyi(n, 8.0 / n, rng);
  auto w = uniform_weights(g.num_edges(), 1.0, 100.0, rng);
  const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_mwm(wg));
  }
}
BENCHMARK(BM_GreedyMwm)->Arg(1 << 10)->Arg(1 << 14);

void BM_Hungarian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<std::vector<double>> profit(n, std::vector<double>(n));
  for (auto& row : profit) {
    for (auto& x : row) x = rng.uniform01() * 100.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_assignment(profit));
  }
}
BENCHMARK(BM_Hungarian)->Arg(32)->Arg(128);

void BM_EngineRound(benchmark::State& state) {
  // Per-round overhead of the synchronous engine with light traffic
  // (the engine_sweep.hpp workload). Rounds run through the non-inline
  // bench_detail::engine_round so the measured instantiation is the
  // same one the sweep modes time.
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(15);
  const Graph g = erdos_renyi(n, 4.0 / n, rng);
  EngineNet net(g, 1, {});
  for (auto _ : state) {
    bench_detail::engine_round(net);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineRound)->Arg(1 << 10)->Arg(1 << 14);

void BM_IsraeliItai(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(17);
  const Graph g = erdos_renyi(n, 6.0 / n, rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    IsraeliItaiOptions opts;
    opts.seed = seed++;
    benchmark::DoNotOptimize(israeli_itai(g, opts));
  }
}
BENCHMARK(BM_IsraeliItai)->Arg(1 << 10)->Arg(1 << 12);

void BM_LubyMis(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(19);
  const Graph g = erdos_renyi(n, 8.0 / n, rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    MisOptions opts;
    opts.seed = seed++;
    benchmark::DoNotOptimize(luby_mis(g, opts));
  }
}
BENCHMARK(BM_LubyMis)->Arg(1 << 10)->Arg(1 << 12);

void BM_BipartiteCounting(benchmark::State& state) {
  const NodeId half = static_cast<NodeId>(state.range(0));
  Rng rng(21);
  const auto bg = random_bipartite(half, half, 6.0 / half, rng);
  const Matching m = greedy_mcm(bg.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        count_augmenting_paths(bg.graph, bg.side, m, 7, {}));
  }
}
BENCHMARK(BM_BipartiteCounting)->Arg(1 << 9)->Arg(1 << 11);

void BM_BigCounterAdd(benchmark::State& state) {
  Rng rng(23);
  BigCounter a(rng()), b(rng());
  for (int i = 0; i < state.range(0); ++i) {
    a.shift_left(31);
    a += BigCounter(rng());
    b.shift_left(31);
    b += BigCounter(rng());
  }
  for (auto _ : state) {
    BigCounter c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BigCounterAdd)->Arg(4)->Arg(64);

void BM_BigCounterSampleBelow(benchmark::State& state) {
  Rng rng(29);
  BigCounter bound(1);
  for (int i = 0; i < state.range(0); ++i) {
    bound.shift_left(31);
    bound += BigCounter(rng() | 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigCounter::sample_below(bound, rng));
  }
}
BENCHMARK(BM_BigCounterSampleBelow)->Arg(4)->Arg(64);

}  // namespace
}  // namespace lps

int main(int argc, char** argv) {
  bool smoke = false;
  std::string engine_json;
  bool engine_sweep = false;
  bool shard_sweep = false;
  std::string trace_path;
  bool trace_overhead = false;
  unsigned trace_overhead_exp = 20;
  std::vector<std::string> unused;  // a custom mode refuses these
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--engine-json") == 0) {
      engine_sweep = true;
      engine_json = "BENCH_engine.json";
    } else if (std::strncmp(argv[i], "--engine-json=", 14) == 0) {
      engine_sweep = true;
      engine_json = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--shard-sweep") == 0) {
      shard_sweep = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--trace-overhead") == 0) {
      trace_overhead = true;
    } else if (std::strncmp(argv[i], "--trace-overhead=", 17) == 0) {
      trace_overhead = true;
      const char* value = argv[i] + 17;
      char* end = nullptr;
      const long e = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || e < 10 || e > 24) {
        std::fprintf(stderr,
                     "bench_micro: --trace-overhead=E needs an integer E in "
                     "10..24, got '%s'\n",
                     value);
        return 2;
      }
      trace_overhead_exp = static_cast<unsigned>(e);
    } else {
      unused.push_back(argv[i]);
    }
  }
  const int modes = smoke + shard_sweep + engine_sweep + trace_overhead;
  const bool tracing = !trace_path.empty();
  // --trace-overhead manages its own tracer state; --trace would skew
  // the measurement.
  if (trace_overhead && tracing) unused.push_back("--trace=" + trace_path);
  if (modes > 1 || (modes == 1 && !unused.empty())) {
    const std::string why =
        modes > 1 ? "pick one of --smoke, --shard-sweep, --engine-json and "
                    "--trace-overhead"
                  : "unused argument '" + unused.front() + "'";
    std::fprintf(stderr, "bench_micro: %s\n", why.c_str());
    return 2;
  }
  if (trace_overhead) {
    return lps::run_trace_overhead(trace_overhead_exp);
  }
  if (tracing && modes == 0) {
    std::fprintf(stderr,
                 "bench_micro: --trace needs a sweep mode (--smoke, "
                 "--engine-json or --shard-sweep)\n");
    return 2;
  }
  lps::telemetry::Tracer& tracer = lps::telemetry::Tracer::global();
  if (tracing) {
    lps::telemetry::set_enabled(true);
    tracer.reset();
    tracer.set_recording(true);
  }
  int rc = 0;
  if (smoke) {
    rc = lps::run_smoke_checks();
    if (rc == 0) rc = lps::run_engine_sweep("", /*smoke=*/true);
    if (rc == 0) std::printf("bench_micro --smoke: OK\n");
  } else if (shard_sweep) {
    rc = lps::run_shard_sweep();
  } else if (engine_sweep) {
    rc = lps::run_engine_sweep(engine_json, /*smoke=*/false);
  } else {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  if (tracing) {
    tracer.set_recording(false);
    lps::telemetry::set_enabled(false);
    if (tracer.write_chrome_trace(trace_path)) {
      std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                  tracer.events());
    } else {
      std::fprintf(stderr, "bench_micro: cannot write trace to %s\n",
                   trace_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
