// solver_bench: end-to-end time of the paper's algorithms, from instance
// build to audited matching, split into the graph / runtime / core /
// telemetry layers. It calls the public API of each layer directly and
// never goes through api::run_one, whose oracle solve, telemetry
// snapshots and ledger append would surround the timed solve.
//
//   solver_bench --workload bip_mcm --seed 1 --seconds 15 --trace 0
//                [--size full|smoke] [--trace-file PATH]
//
// --trace 0 times untraced solves and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced solves, reads the engine's
// metric deltas around each traced solve, times the direct layer probes
// and writes a Chrome trace of the bench's own spans plus the engine's
// to PATH.
// The last stdout line is one JSON record; perfbench/run.py turns it
// into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "api/provenance.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "core/bipartite_counting.hpp"
#include "core/class_mwm.hpp"
#include "core/gain.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "runtime/engine.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace lps;
using api::JsonObject;

struct Workload {
  const char* name;
  const char* solver;
  const char* config;
  const char* spec;        // benchmark size
  const char* smoke_spec;  // self-test size: the whole run takes seconds
  /// Quality reference: exact Hopcroft-Karp where the instance is
  /// bipartite, else the certified 2x-greedy bound `runner --oracle auto`
  /// falls back to at these sizes.
  const char* reference;
  /// Instances per untraced run. Rounds, bits and solve time differ
  /// from seed to seed (Israeli-Itai's last phases vary by ~10%), so a
  /// run reports means and medians over several seeded instances.
  unsigned instances;
};

// Sizes put one two-worker solve near 1-2.5 s on a 4-core host, so a run
// aggregates several solves. general_mcm runs the paper's iteration
// budget and weighted_mwm a fixed 8 iterations: their early exits made
// the iteration count, and with it the solve time, vary up to ~20% from
// seed to seed. Why each workload is here: perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"bip_mcm", "bipartite_mcm", "k=3", "bipartite:nx=65536,ny=65536,deg=4",
     "bipartite:nx=256,ny=256,deg=4", "hopcroft_karp", 3},
    {"gen_mcm", "general_mcm", "k=3,mode=paper", "er:n=16384,deg=4",
     "er:n=512,deg=4", "greedy_mcm", 2},
    {"wt_mwm", "weighted_mwm", "max_iterations=8",
     "er:n=131072,deg=4,w=uniform", "er:n=1024,deg=4,w=uniform",
     "greedy_mwm", 2},
    {"ii_base", "israeli_itai", "", "er:n=1048576,deg=4", "er:n=2048,deg=4",
     "greedy_mcm", 8},
};

/// Path length of the counting-BFS probe: l = 2k - 1 at the k = 3 the
/// bipartite_mcm and general_mcm workloads run with.
constexpr int kCountBfsLen = 5;

/// Salt for the counting-BFS probe's 2-coloring on non-bipartite
/// instances, so it draws from its own stream under the workload seed.
constexpr std::uint64_t kProbeColoringSalt = 0x7e57c010ull;

/// The seed of the run's j-th instance (and of the solves on it).
std::uint64_t instance_seed(std::uint64_t run_seed, unsigned j) {
  return Rng::substream(run_seed, std::uint64_t{j})();
}

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// True in the traced run only: untraced runs record nothing.
bool g_bench_spans = false;

/// A span for bench-side work that ran with recording off, so the
/// timeline shows it without the library's spans inside it.
void record_span(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns) {
  if (!g_bench_spans) return;
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const bool was = tracer.recording();
  tracer.set_recording(true);
  tracer.emit(name, "bench", t0_ns, t1_ns - t0_ns);
  tracer.set_recording(was);
}

struct Built {
  api::Instance inst;
  double generate_s = 0.0;  // make_instance
  double attach_s = 0.0;    // bipartition attach, as run_one does it
};

Built build_instance(const std::string& spec, std::uint64_t seed) {
  Built b;
  const std::uint64_t t0 = telemetry::now_ns();
  b.inst = api::make_instance(spec, seed);
  const std::uint64_t t1 = telemetry::now_ns();
  if (!b.inst.side().has_value()) {
    if (auto side = b.inst.graph().bipartition()) {
      b.inst.with_side(std::move(*side));
    }
  }
  const std::uint64_t t2 = telemetry::now_ns();
  b.generate_s = seconds_between(t0, t1);
  b.attach_s = seconds_between(t1, t2);
  return b;
}

/// One audited solve.
struct Outcome {
  bool ok = false;
  std::string why;  // audit failure, empty when ok
  double solve_s = 0.0;
  NetStats stats;
  double objective = 0.0;
  std::map<std::string, double> metrics;
  Matching matching;
};

class Bench {
 public:
  Bench(const Workload& w, const std::string& spec, ThreadPool& pool)
      : w_(w),
        spec_(spec),
        solver_(api::SolverRegistry::global().at(w.solver)),
        config_(api::SolverConfig::parse(w.config)) {
    config_.pool(&pool);
  }

  /// Make `seed`'s instance the current one: build it until the builds
  /// add up to `min_total_s` (at least once, at most 64 times; each
  /// build's setup time is appended to `setup_s`), then solve the
  /// quality reference. The solver runs under the same seed.
  void load(std::uint64_t seed, double min_total_s,
            std::vector<double>& setup_s) {
    double total = 0.0;
    for (unsigned reps = 0; reps == 0 || (total < min_total_s && reps < 64);
         ++reps) {
      inst_ = api::Instance();  // release the previous build first
      const std::uint64_t t0 = telemetry::now_ns();
      Built b = build_instance(spec_, seed);
      record_span("bench.build", t0, telemetry::now_ns());
      inst_ = std::move(b.inst);
      generate_s_.push_back(b.generate_s);
      setup_s.push_back(b.generate_s + b.attach_s);
      total += setup_s.back();
    }
    config_.seed(seed);
    first_.reset();
    weighted_objective_ =
        solver_.capabilities().weighted && inst_.has_weights();

    // Scaled to a certified upper bound on the optimum when the
    // reference is a g-approximation.
    const api::MatchingSolver& ref =
        api::SolverRegistry::global().at(w_.reference);
    ref_exact_ = ref.capabilities().exact;
    api::SolverConfig cfg;
    cfg.seed(seed);
    const api::SolveResult r = ref.solve(inst_, cfg);
    ref_objective_ = objective(r.matching) *
                     (ref_exact_ ? 1.0 : 1.0 / ref.guarantee(cfg));
  }

  Outcome solve() {
    Outcome o;
    const std::uint64_t t0 = telemetry::now_ns();
    try {
      api::SolveResult r = solver_.solve(inst_, config_);
      o.solve_s = seconds_between(t0, telemetry::now_ns());
      o.stats = r.stats;
      o.metrics = std::move(r.metrics);
      o.matching = std::move(r.matching);
    } catch (const std::exception& e) {
      o.solve_s = seconds_between(t0, telemetry::now_ns());
      o.why = std::string("solve threw: ") + e.what();
      return o;
    }
    const std::uint64_t a0 = telemetry::now_ns();
    audit(o);
    record_span("bench.audit", a0, telemetry::now_ns());
    return o;
  }

  double quality(const Outcome& o) const {
    return ref_objective_ > 0.0 ? o.objective / ref_objective_ : 1.0;
  }

  const api::Instance& instance() const { return inst_; }
  const std::vector<double>& generate_s() const { return generate_s_; }
  const char* reference_kind() const {
    return ref_exact_ ? "exact" : "upper_bound";
  }

 private:
  double objective(const Matching& m) const {
    return weighted_objective_ ? m.weight(inst_.weighted_graph())
                               : static_cast<double>(m.size());
  }

  /// Validity, maximality where promised, the guarantee against an
  /// exact reference, and bit-identity with the instance's first solve:
  /// every solve of one seed must cost the same rounds and bits and
  /// return the same matching size and weight.
  void audit(Outcome& o) {
    const Graph& g = inst_.graph();
    o.objective = objective(o.matching);
    if (!is_valid_matching(g, o.matching.edge_ids(g))) {
      o.why = "invalid matching";
    } else if (solver_.capabilities().maximal &&
               !is_maximal_matching(g, o.matching)) {
      o.why = "matching not maximal";
    } else if (ref_exact_ && quality(o) < solver_.guarantee(config_) - 1e-12) {
      o.why = "quality " + std::to_string(quality(o)) + " below guarantee " +
              std::to_string(solver_.guarantee(config_));
    } else if (!first_.has_value()) {
      first_ = Fingerprint{o.stats.rounds, o.stats.total_bits,
                           o.matching.size(), o.objective};
    } else if (first_->rounds != o.stats.rounds ||
               first_->bits != o.stats.total_bits ||
               first_->size != o.matching.size() ||
               first_->objective != o.objective) {
      o.why = "nondeterministic: rounds/bits/size/objective drifted from the "
              "first solve";
    }
    o.ok = o.why.empty();
  }

  struct Fingerprint {
    std::uint64_t rounds;
    std::uint64_t bits;
    std::size_t size;
    double objective;
  };

  const Workload& w_;
  std::string spec_;
  const api::MatchingSolver& solver_;
  api::SolverConfig config_;
  api::Instance inst_;
  std::vector<double> generate_s_;
  bool weighted_objective_ = false;
  bool ref_exact_ = false;
  double ref_objective_ = 0.0;
  std::optional<Fingerprint> first_;
};

/// Engine instruments summed over the traced solves, read as deltas the
/// way run_one reads them.
struct EngineTotals {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t round_ns = 0;
  std::uint64_t p1_ns = 0;
  std::uint64_t p2_ns = 0;
  std::uint64_t sort_ns = 0;
  std::uint64_t step_ns = 0;
  std::vector<std::uint64_t> shard_ns;
  std::vector<std::uint64_t> worker_ns;
};

EngineTotals snap_engine() {
  telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
  EngineTotals s;
  s.rounds = em.rounds.value();
  s.messages = em.messages_delivered.value();
  s.round_ns = em.round_ns.snapshot().sum;
  s.p1_ns = em.exchange_p1_ns.snapshot().sum;
  s.p2_ns = em.exchange_p2_ns.snapshot().sum;
  s.sort_ns = em.inbox_sort_ns.snapshot().sum;
  s.step_ns = em.step_ns.snapshot().sum;
  s.shard_ns = em.shard_exchange_ns.values();
  s.worker_ns = em.worker_busy_ns.values();
  return s;
}

void add_delta(std::vector<std::uint64_t>& acc,
               const std::vector<std::uint64_t>& after,
               const std::vector<std::uint64_t>& before) {
  acc.resize(std::max(acc.size(), after.size()), 0);
  for (std::size_t i = 0; i < after.size(); ++i) {
    acc[i] += after[i] - (i < before.size() ? before[i] : 0);
  }
}

void accumulate(EngineTotals& acc, const EngineTotals& before,
                const EngineTotals& after) {
  acc.rounds += after.rounds - before.rounds;
  acc.messages += after.messages - before.messages;
  acc.round_ns += after.round_ns - before.round_ns;
  acc.p1_ns += after.p1_ns - before.p1_ns;
  acc.p2_ns += after.p2_ns - before.p2_ns;
  acc.sort_ns += after.sort_ns - before.sort_ns;
  acc.step_ns += after.step_ns - before.step_ns;
  add_delta(acc.shard_ns, after.shard_ns, before.shard_ns);
  add_delta(acc.worker_ns, after.worker_ns, before.worker_ns);
}

/// Time `fn` with telemetry and recording off, at least once and up to
/// three times while the calls stay under a second in total; one bench
/// span per call. Returns the median call time.
double probe(const char* span, const std::function<void()>& fn) {
  std::vector<double> times;
  double total = 0.0;
  while (times.empty() || (times.size() < 3 && total < 1.0)) {
    const std::uint64_t t0 = telemetry::now_ns();
    fn();
    const std::uint64_t t1 = telemetry::now_ns();
    record_span(span, t0, t1);
    times.push_back(seconds_between(t0, t1));
    total += times.back();
  }
  return median(times);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "solver_bench: %s\nusage: solver_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|smoke] "
               "[--trace-file PATH (required with --trace 1)]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string size = "full";
  std::string trace_file;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = -1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string val = argv[++i];
      if (arg == "--workload") {
        workload_name = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else if (arg == "--size") {
        size = val;
      } else if (arg == "--trace-file") {
        trace_file = val;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) wp = &w;
  }
  if (wp == nullptr) {
    return usage(("unknown workload '" + workload_name + "'").c_str());
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (trace == 1 && trace_file.empty()) {
    return usage("--trace 1 needs --trace-file");
  }
  if (size != "full" && size != "smoke") {
    return usage("--size must be full or smoke");
  }
  if (!(seconds > 0.0)) return usage("--seconds must be positive");
  const Workload& w = *wp;
  const std::string spec = size == "smoke" ? w.smoke_spec : w.spec;

  telemetry::set_enabled(false);
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.reset();
  tracer.set_recording(false);
  g_bench_spans = trace == 1;

  // Two workers keep the engine's parallel rounds in the measurement;
  // on a shared 4-core host two-worker solves varied ~5% from run to
  // run where four-worker solves varied ~12% (ii_base).
  ThreadPool pool(
      std::min(2u, std::max(1u, std::thread::hardware_concurrency())));
  Bench bench(w, spec, pool);
  JsonObject metrics;
  const auto report = [&](const char* name, double value, const char* unit) {
    JsonObject m;
    m.add("value", value).add("unit", unit);
    metrics.add(name, m);
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto tally = [&](const Outcome& o) {
    ++attempted;
    if (o.ok) return;
    ++failed;
    std::fprintf(stderr, "solver_bench: %s solve %llu failed: %s\n", w.name,
                 static_cast<unsigned long long>(attempted), o.why.c_str());
  };
  api::JsonArray solve_samples;
  bool trace_written = true;
  std::vector<double> setup_s;
  const std::uint64_t start = telemetry::now_ns();
  const std::uint64_t run_ns = static_cast<std::uint64_t>(seconds * 1e9);

  if (trace == 0) {
    // Each instance gets an equal slice of the run and at least two
    // solves, so its determinism is checked; the first solve of the run
    // warms caches and the allocator and is audited, not timed.
    std::vector<double> solve_s;
    double rounds = 0.0;
    double bits = 0.0;
    double quality = 0.0;
    for (unsigned j = 0; j < w.instances; ++j) {
      bench.load(instance_seed(seed, j), 0.25, setup_s);
      if (j == 0) tally(bench.solve());
      const std::uint64_t slice_end = start + run_ns * (j + 1) / w.instances;
      Outcome o;
      for (unsigned n = 0; n < 2 || telemetry::now_ns() < slice_end; ++n) {
        o = bench.solve();
        tally(o);
        solve_s.push_back(o.solve_s);
        solve_samples.push(o.solve_s);
      }
      rounds += static_cast<double>(o.stats.rounds);
      bits += static_cast<double>(o.stats.total_bits);
      quality += bench.quality(o);
    }
    const double instances = static_cast<double>(w.instances);
    report("setup_s", median(setup_s), "s");
    report("solve_s", median(solve_s), "s");
    report("quality", quality / instances, "ratio");
    report("rounds", rounds / instances, "count");
    report("message_bits", bits / instances, "bits");
    report("peak_rss_mb", peak_rss_mb(), "MB");
    report("pass_frac",
                static_cast<double>(attempted - failed) /
                    static_cast<double>(attempted),
                "ratio");
  } else {
    const std::uint64_t probe_seed = instance_seed(seed, 0);
    bench.load(probe_seed, 0.25, setup_s);
    const api::Instance& inst = bench.instance();
    const Graph& g = inst.graph();
    Outcome first = bench.solve();  // warm-up, audited
    tally(first);

    // Untraced and traced solves alternate, so drift on a shared host
    // lands on both sides of telemetry.overhead_frac alike.
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    EngineTotals eng;
    while (traced_s.size() < 2 || telemetry::now_ns() < start + run_ns) {
      const Outcome plain = bench.solve();
      tally(plain);
      plain_s.push_back(plain.solve_s);

      telemetry::set_enabled(true);
      tracer.set_recording(true);
      const EngineTotals before = snap_engine();
      const std::uint64_t t0 = telemetry::now_ns();
      const Outcome traced = bench.solve();
      accumulate(eng, before, snap_engine());
      tracer.emit("bench.solve", "bench", t0,
                  static_cast<std::uint64_t>(traced.solve_s * 1e9));
      tracer.set_recording(false);
      telemetry::set_enabled(false);
      tally(traced);
      traced_s.push_back(traced.solve_s);
      solve_samples.push(traced.solve_s);
    }

    // Direct layer probes on the workload's own instance, untraced.
    const double bipartition_s = probe("bench.probe.bipartition", [&] {
      const auto side = g.bipartition();
      (void)side;
    });
    const double induced_s = probe("bench.probe.induced_subgraph", [&] {
      const Subgraph sub = induced_subgraph(
          g, std::vector<char>(g.num_nodes(), 1),
          std::vector<char>(g.num_edges(), 1));
      (void)sub;
    });
    const double net_build_s = probe("bench.probe.net_build", [&] {
      SyncNetwork<std::uint32_t> net(g, probe_seed);
      (void)net;
    });
    // Algorithm 3 from the empty matching at l = 2k - 1. Non-bipartite
    // instances get a seeded 2-coloring and its bichromatic edges: the
    // Ĝ Algorithm 4 hands the counting BFS at the empty matching.
    std::vector<std::uint8_t> side;
    std::vector<char> active;
    if (inst.side().has_value()) {
      side = *inst.side();
    } else {
      Rng rng(probe_seed ^ kProbeColoringSalt);
      side.resize(g.num_nodes());
      for (std::uint8_t& s : side) s = rng.coin() ? 1 : 0;
      active.resize(g.num_edges());
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge ed = g.edge(e);
        active[e] = side[ed.u] != side[ed.v] ? 1 : 0;
      }
    }
    const double count_bfs_s = probe("bench.probe.count_bfs", [&] {
      const CountingResult r = count_augmenting_paths(
          g, side, Matching(g.num_nodes()), kCountBfsLen, active, &pool);
      (void)r;
    });
    // Section 4 layers take a weighted graph; unweighted workloads probe
    // them with unit weights.
    const WeightedGraph unit =
        inst.has_weights()
            ? WeightedGraph{}
            : make_weighted(g, std::vector<double>(g.num_edges(), 1.0));
    const WeightedGraph& wg = inst.has_weights() ? inst.weighted_graph() : unit;
    const double gain_s = probe("bench.probe.gain", [&] {
      NetStats stats;
      const std::vector<double> wm =
          gain_weights(wg, first.matching, &stats, &pool);
      (void)wm;
    });
    const double class_mwm_s = probe("bench.probe.class_mwm", [&] {
      ClassMwmOptions o;
      o.seed = probe_seed;
      o.pool = &pool;
      const ClassMwmResult r = class_mwm(wg, o);
      (void)r;
    });

    const double traced_total = [&] {
      double t = 0.0;
      for (const double s : traced_s) t += s;
      return t;
    }();
    const double runs = static_cast<double>(traced_s.size());
    const double round_total = static_cast<double>(eng.round_ns) * 1e-9;
    const auto per_solve_s = [&](std::uint64_t ns) {
      return static_cast<double>(ns) * 1e-9 / runs;
    };
    double stall = 0.0;
    if (eng.worker_ns.size() > 1 && eng.step_ns > 0) {
      std::uint64_t busy = 0;
      for (const std::uint64_t b : eng.worker_ns) busy += b;
      stall = std::clamp(
          1.0 - static_cast<double>(busy) /
                    (static_cast<double>(eng.step_ns) *
                     static_cast<double>(eng.worker_ns.size())),
          0.0, 1.0);
    }
    double imbalance = 0.0;
    {
      std::uint64_t sum = 0;
      std::uint64_t max = 0;
      std::size_t touched = 0;
      for (const std::uint64_t s : eng.shard_ns) {
        if (s == 0) continue;
        ++touched;
        sum += s;
        max = std::max(max, s);
      }
      if (touched > 0) {
        imbalance = static_cast<double>(max) /
                    (static_cast<double>(sum) / static_cast<double>(touched));
      }
    }
    const auto solver_metric = [&](const char* key) {
      const auto it = first.metrics.find(key);
      return it == first.metrics.end() ? 0.0 : it->second;
    };
    const double iterations = solver_metric("iterations");
    const double aug_iterations = solver_metric("aug_iterations");
    const double paths = solver_metric("paths_applied");
    const double attempts = aug_iterations > 0.0 ? aug_iterations : iterations;

    report("graph.generate_s", median(bench.generate_s()), "s");
    report("graph.bipartition_s", bipartition_s, "s");
    report("graph.n", static_cast<double>(g.num_nodes()), "count");
    report("graph.m", static_cast<double>(g.num_edges()), "count");
    report("graph.induced_subgraph_s", induced_s, "s");
    report("runtime.net_build_s", net_build_s, "s");
    report("runtime.engine_rounds",
                static_cast<double>(eng.rounds) / runs, "count");
    report("runtime.messages", static_cast<double>(eng.messages) / runs,
                "count");
    report("runtime.round_s", round_total / runs, "s");
    report("runtime.exchange_p1_s", per_solve_s(eng.p1_ns), "s");
    report("runtime.exchange_p2_s", per_solve_s(eng.p2_ns), "s");
    report("runtime.inbox_sort_s", per_solve_s(eng.sort_ns), "s");
    report("runtime.step_s", per_solve_s(eng.step_ns), "s");
    report("runtime.ns_per_msg",
                eng.messages > 0 ? static_cast<double>(eng.round_ns) /
                                       static_cast<double>(eng.messages)
                                 : 0.0,
                "ns");
    report("runtime.worker_stall_frac", stall, "ratio");
    report("runtime.shard_imbalance", imbalance, "ratio");
    report("runtime.in_rounds_share",
                traced_total > 0.0 ? round_total / traced_total : 0.0, "ratio");
    report("core.between_rounds_s", (traced_total - round_total) / runs,
                "s");
    report("core.count_bfs_s", count_bfs_s, "s");
    report("core.gain_s", gain_s, "s");
    report("core.class_mwm_s", class_mwm_s, "s");
    report("core.iterations", iterations, "count");
    report("core.aug_iterations", aug_iterations, "count");
    report("core.paths_applied", paths, "count");
    report("core.paths_per_iter", attempts > 0.0 ? paths / attempts : 0.0,
                "ratio");
    report("telemetry.overhead_frac",
                median(traced_s) / median(plain_s) - 1.0, "ratio");

    trace_written = tracer.write_chrome_trace(trace_file);
    if (!trace_written) {
      std::fprintf(stderr, "solver_bench: cannot write trace to %s\n",
                   trace_file.c_str());
    }
  }

  const unsigned threads = pool.num_threads();
  const CacheInfo& cache = detect_cache();
  JsonObject host;
  host.add("cpu_model", cpu_model())
      .add("nproc", static_cast<std::uint64_t>(
                        std::max(1u, std::thread::hardware_concurrency())))
      .add("l1d_bytes", static_cast<std::uint64_t>(cache.l1d_bytes))
      .add("l2_bytes", static_cast<std::uint64_t>(cache.l2_bytes))
      .add("l3_bytes", static_cast<std::uint64_t>(cache.l3_bytes))
      .add("pool_threads", static_cast<std::uint64_t>(threads));
  JsonObject record;
  record.add("workload", w.name)
      .add("solver", w.solver)
      .add("config", w.config)
      .add("spec", spec)
      .add("seed", seed)
      .add("trace", trace)
      .add("reference", w.reference)
      .add("reference_kind", bench.reference_kind())
      .add("host", host)
      .add("provenance", api::provenance_json(api::current_provenance(threads)))
      .add("solve_s_samples", solve_samples)
      .add("trace_file", trace == 1 ? trace_file : std::string())
      .add("correct", failed == 0 && trace_written)
      .add("attempted", attempted)
      .add("failed", failed)
      .add("metrics", metrics);
  std::cout << record.str() << std::endl;
  return failed == 0 && trace_written ? 0 : 1;
}
