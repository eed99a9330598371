// The data-driven run harness: (generator spec, solver name, config,
// seeds, threads) -> structured, machine-readable results. Benches,
// examples, and tests describe *what* to run; the runner owns the
// mechanics — instance construction, thread-pool plumbing, oracle
// resolution, validity auditing, and JSON emission.
//
// Generator specs are `family:k1=v1,k2=v2` strings (util/options kv
// grammar after the colon):
//
//   path:n=16            cycle:n=63          complete:n=16
//   star:n=50            binary_tree:n=31    tree:n=100   (random tree)
//   grid:rows=12,cols=12                     complete_bipartite:a=8,b=8
//   er:n=128,p=0.05      er:n=128,deg=4      (deg -> p = deg/n)
//   bipartite:nx=64,ny=64,p=0.06             (or deg -> p = deg/ny)
//   bipartite_regular:nx=64,ny=64,d=6        regular:n=64,d=4
//   tight_chain:k=3,copies=16
//   greedy_trap:gadgets=16,eps=0.001         increasing_path:n=64
//
// Any family (except the intrinsically weighted last two) takes an
// optional weight model: `w=uniform,wlo=1,whi=100` | `w=integer,
// wmax=64` | `w=exp,wmean=8` | `w=pow2,wlevels=10`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/solver.hpp"

namespace lps::api {

/// Build an Instance from a generator spec; `seed` drives all
/// randomness (graph and weights). Bipartite families attach the side.
Instance make_instance(const std::string& spec, std::uint64_t seed);

struct RunSpec {
  std::string generator;          // generator spec string (see above)
  std::string solver;             // registry name
  std::string config;             // solver config kv list ("" = defaults)
  std::uint64_t instance_seed = 1;
  /// Default solver seed; a `seed=` entry in `config` takes precedence.
  std::uint64_t solver_seed = 1;
  unsigned threads = 1;           // 1 = inline; 0 = hardware concurrency
  /// "auto" picks the cheapest exact oracle for the instance shape and
  /// falls back to the certified 2x-greedy upper bound at scale;
  /// "none" skips the comparison; any registry name forces that solver.
  std::string oracle = "auto";
  /// When true and the solver accepts the key, the exact optimum is
  /// passed as config `oracle_optimum_size` (Algorithm 4's certified
  /// early exit).
  bool feed_oracle = false;
  /// LCA query-oracle leg (src/lca), run after the solve: "" skips it,
  /// "auto" uses the oracle paired with `solver` (throws when none
  /// exists), any other value names an oracle explicitly. The oracle
  /// runs with the solver's seed; when it pairs with `solver` its
  /// per-edge answers are audited against the global matching.
  std::string lca;
  /// Edge queries to issue: 0 = every edge once (the consistency
  /// sweep); otherwise that many uniform samples with replacement (the
  /// cache-amortization serving scenario).
  std::uint64_t lca_queries = 0;
  /// Oracle memo bound (entries per table); 0 = oracle default.
  std::uint64_t lca_cache = 0;
  /// Dynamic-matching leg (src/dynamic), run after the solve: "" skips
  /// it; otherwise a maintainer name ("greedy" | "repair" | "scratch").
  /// The leg replays `dynamic_stream` through the maintainer and
  /// records updates/sec, recourse per update, and the maintained
  /// matching's approximation against a from-scratch registry solve.
  std::string dynamic;
  /// Update-stream spec (dynamic/stream.hpp grammar, e.g.
  /// "churn:n=4096,m0=8192,updates=20000"). Required when `dynamic` is
  /// set; seeded by instance_seed.
  std::string dynamic_stream;
  /// Maintainer kv config (make_matcher grammar; e.g. "eps=0.1,
  /// interval=16" for repair).
  std::string dynamic_config;
  /// Approximation-vs-time sample points along the stream (snapshots
  /// re-solved through the registry); 0 disables the ratio columns.
  std::uint64_t dynamic_checkpoints = 8;
  /// Fault-injection spec ("" = fault-free): a registered preset name
  /// (src/faults/scenarios) or an explicit `name:key=value,...` plan.
  /// Message-layer faults (drop/dup/delay/reorder) are forwarded to the
  /// solver through its `faults` config key — the run rejects solvers
  /// without one up front. Graph-layer faults (flap/adversarial epochs)
  /// require the dynamic leg: after the update stream a FaultSession
  /// runs `epochs` crash/recover + adversarial-delete epochs against
  /// the maintainer and lands the degradation metrics in the fault_*
  /// fields. Malformed specs throw std::invalid_argument before any
  /// solve work.
  std::string faults;
  /// Collect per-phase metrics (src/telemetry) during the run and attach
  /// the `telemetry` block to the JSON record. One predictable branch
  /// per engine phase; set false for overhead-sensitive measurement.
  bool telemetry = true;
  /// When non-empty, record Chrome-trace spans plus the typed event
  /// instants (fault injections, crashes/revivals, resyncs, watchdog
  /// dumps; telemetry::EventKind) for the whole run and write them to
  /// this path (load in Perfetto / chrome://tracing; audit with
  /// `trace_summary --check`). Implies metric collection.
  std::string trace;
  /// Live-progress status line period in ms (stderr); 0 = no status
  /// line. The monitor reads the engine's round and delivery counters,
  /// so it turns metric recording on while it runs.
  unsigned monitor_ms = 0;
  /// Stall-watchdog deadline in ms: when no engine round completes for
  /// this long, dump the progress state and the engine's telemetry
  /// counters to stderr. 0 disables the watchdog.
  unsigned stall_timeout_ms = 0;
  /// After the stall dump, abort the process with
  /// telemetry::kWatchdogExitCode instead of latching and continuing.
  bool stall_abort = false;
};

/// The per-run engine telemetry digest attached to RunResult (and the
/// JSON record's `telemetry` block), read from telemetry::EngineMetrics
/// around the solve. It describes the engine only: each optional leg
/// reports its own latency next to its other RunResult fields. All
/// durations ns; phase means are per *round* averages.
struct TelemetrySummary {
  bool enabled = false;   // false = block absent (telemetry off)
  std::uint64_t rounds = 0;
  std::uint64_t messages_delivered = 0;
  // Whole-round latency distribution.
  double round_ns_mean = 0.0;
  double round_ns_p50 = 0.0;
  double round_ns_p90 = 0.0;
  double round_ns_p99 = 0.0;
  std::uint64_t round_ns_max = 0;
  // Per-phase means per round (boundary exchange 1/2, inbox sort, step
  // loop).
  double exchange_p1_ns_mean = 0.0;
  double exchange_p2_ns_mean = 0.0;
  double inbox_sort_ns_mean = 0.0;
  double step_ns_mean = 0.0;
  // Per-worker step-loop busy time and the implied stall fraction
  // (1 - busy / (workers * step span); 0 when single-threaded).
  std::vector<std::uint64_t> worker_busy_ns;
  double worker_stall_frac = 0.0;
  // Per-shard phase-2 exchange time: the straggler diagnostic.
  std::uint64_t shards_touched = 0;
  double shard_busy_mean_ns = 0.0;
  std::uint64_t shard_busy_max_ns = 0;
  std::uint64_t hottest_shard = 0;
  double shard_imbalance = 0.0;  // max/mean over touched shards
  // Messages delivered per round, strided to <= 64 samples.
  std::vector<std::uint64_t> messages_per_round;
  std::uint64_t messages_per_round_stride = 1;
};

struct RunResult {
  RunSpec spec;
  // Instance shape.
  NodeId n = 0;
  EdgeId m = 0;
  NodeId max_degree = 0;
  bool weighted = false;
  // Solve outcome.
  double wall_ms = 0.0;
  NetStats net;
  std::size_t matching_size = 0;
  double matching_weight = 0.0;
  bool valid = false;
  bool maximal = false;
  bool converged = false;
  double guarantee = 0.0;
  std::map<std::string, double> metrics;
  // Oracle comparison, measured in the *solver's* objective (weight
  // only when the solver optimizes weight, cardinality otherwise — a
  // weight-blind solver on a weighted instance gets the MCM oracle, so
  // its guarantee stays comparable). `optimum` is the exact objective,
  // the certified upper bound, or (for a guarantee-less explicit
  // oracle) a mere reference value; `ratio` = achieved / optimum (-1
  // when the oracle is "none" or the optimum is 0).
  std::string oracle_solver;  // registry name actually used ("" = none)
  std::string optimum_kind;   // "exact" | "upper_bound" | "reference" | "none"
  double optimum = 0.0;
  double ratio = -1.0;
  // LCA query-oracle leg (empty/zero unless spec.lca was set). The
  // probes-per-query column is the subsystem's headline number: it must
  // grow sublinearly in n where a global solve grows at least linearly.
  //
  // Each leg's latency is stated once, in that leg's fields: nearest-
  // rank p50/p99 (util/stats percentile) over the exact times the leg
  // took, in ns, and 0 when the leg timed nothing.
  std::string lca_oracle;          // oracle actually used ("" = none)
  std::uint64_t lca_queries = 0;   // queries actually issued
  double lca_probes_per_query = 0.0;
  double lca_queries_per_sec = 0.0;
  double lca_cache_hit_rate = 0.0;
  /// 1 = every queried edge agreed with the global matching, 0 = some
  /// disagreed, -1 = not audited (oracle not paired with the solver,
  /// or no queries ran).
  int lca_agree = -1;
  /// Per query (lca::BatchStats::query_ns); queries are timed while
  /// metric recording or tracing is on (spec.telemetry, spec.trace).
  std::uint64_t lca_query_p50_ns = 0;
  std::uint64_t lca_query_p99_ns = 0;
  // Dynamic leg (zero/empty unless spec.dynamic was set). The headline
  // numbers: updates/sec (the incremental path's throughput, to beat
  // the from-scratch re-solve) and recourse per update (matched-edge
  // flips — how much the answer churns).
  std::string dynamic_maintainer;  // maintainer actually run ("" = none)
  /// Warm-up updates that built the initial graph (off the clock and
  /// outside the recourse accounting; see StreamSpec::bootstrap).
  std::uint64_t dynamic_bootstrap_updates = 0;
  /// Measured churn updates (the stream minus the bootstrap prefix).
  std::uint64_t dynamic_updates = 0;
  double dynamic_updates_per_sec = 0.0;
  /// Per measured update, the same times updates/sec sums; bootstrap
  /// inserts and fault-epoch updates are not among them.
  std::uint64_t dynamic_update_p50_ns = 0;
  std::uint64_t dynamic_update_p99_ns = 0;
  double dynamic_recourse_per_update = 0.0;
  std::size_t dynamic_final_size = 0;
  std::uint64_t dynamic_final_edges = 0;  // live edges after the stream
  /// Maintained size / from-scratch registry solve on the same
  /// snapshot, at the final state and as the minimum over checkpoints
  /// (approximation vs time); -1 when checkpoints were disabled.
  double dynamic_ratio = -1.0;
  double dynamic_ratio_min = -1.0;
  std::string dynamic_baseline;  // registry solver used for the ratio
  bool dynamic_valid = false;    // final matching audit passed
  // Fault-injection leg (inert unless spec.faults was set). The
  // headline degradation metrics: every epoch-end audit must pass
  // (fault_all_valid), and fault_min_ratio is the worst epoch-end
  // matching size against the fault-free baseline captured when the
  // session started (-1 when no fault epochs ran).
  std::string fault_plan;   // canonical plan echo ("" = fault-free)
  std::uint64_t fault_epochs = 0;       // fault epochs actually run
  bool fault_all_valid = true;
  double fault_min_ratio = -1.0;
  double fault_final_ratio = -1.0;      // after the terminal heal
  bool fault_final_valid = true;
  std::size_t fault_baseline_size = 0;
  std::uint64_t fault_crashed = 0;      // vertices crashed, all epochs
  std::uint64_t fault_revived = 0;
  std::uint64_t fault_adversarial = 0;  // matched edges adversary cut
  std::uint64_t fault_reinserted = 0;   // parked edges restored
  std::uint64_t fault_recourse = 0;     // matched-edge flips, all epochs
  /// Per fault epoch's recovery section (faults::SessionResult); the
  /// terminal heal is not an epoch.
  std::uint64_t fault_recovery_p50_ns = 0;
  std::uint64_t fault_recovery_p99_ns = 0;
  // Per-run engine telemetry digest (enabled=false when spec.telemetry
  // was off).
  TelemetrySummary telemetry;
  /// Path the trace was written to ("" = no trace requested/written).
  std::string trace_path;
  /// True when the stall watchdog fired during the run (only reachable
  /// with stall_abort=false; an aborted run never returns).
  bool stalled = false;
  // Provenance stamp (git SHA, build type, resolved threads, record
  // timestamp); filled by run_one.
  std::string prov_git_sha;
  std::string prov_build_type;
  unsigned prov_threads = 0;
  std::string prov_timestamp_utc;

  /// The flat JSON record (one line).
  std::string to_json() const;
};

/// Execute one run end to end. Throws std::invalid_argument on unknown
/// solvers, malformed specs, or capability mismatches.
RunResult run_one(const RunSpec& spec);

/// Write `result.to_json()` to `<dir>/<derived-name>.json` (directories
/// created as needed). Repeated identical specs never overwrite: when
/// the derived path exists the stem gets a `__r2`, `__r3`, ... ordinal
/// suffix. Returns the path actually written. `name_hint` overrides the
/// derived file stem when non-empty (same collision handling).
std::string write_json(const RunResult& result, const std::string& dir,
                       const std::string& name_hint = "");

}  // namespace lps::api
