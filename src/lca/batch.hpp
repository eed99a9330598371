// Batch query engine: fan thousands of point queries across the
// runtime thread pool. Oracles are single-threaded by design (their LRU
// memos are unsynchronized), so the engine keeps a fleet of private
// oracle instances — one per pool thread — and hands each parallel_for
// chunk an exclusive instance from a free list. Correctness needs no
// coordination beyond that: every oracle answers from the same virtual
// global execution (same graph, same seed), so any instance may serve
// any query. Cache amortization happens per instance; the aggregated
// hit rate the engine reports reflects the sharded reality.
//
// While metrics or tracing are on, each query is timed and its time
// kept in the batch's own result (BatchStats::query_ns), which is the
// one record of LCA query latency; tracing also emits one `lca.query`
// span per query and one `lca.batch` span per batch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "lca/oracle.hpp"
#include "runtime/thread_pool.hpp"

namespace lps::lca {

/// One batch's outcome: per-query answers plus the cost deltas the
/// batch added on top of whatever the engine's oracles had cached.
struct BatchStats {
  OracleStats oracle;  // probes/queries/cache deltas for this batch
  double wall_ms = 0.0;
  /// Each query's time in ns, parallel to the query vector; empty
  /// unless metrics (telemetry::enabled) or tracing were on.
  std::vector<std::uint64_t> query_ns;
  double queries_per_sec() const noexcept {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(oracle.queries) /
                                (wall_ms / 1000.0);
  }
};

struct EdgeBatchResult {
  std::vector<char> in_matching;  // parallel to the query vector
  BatchStats stats;
};

struct NodeBatchResult {
  std::vector<NodeId> matched_to;  // parallel to the query vector
  BatchStats stats;
};

class BatchEngine {
 public:
  using OracleFactory = std::function<std::unique_ptr<MatchingOracle>()>;

  /// `pool == nullptr` (or a 1-thread pool) runs inline on one oracle.
  /// The factory is called once per worker, up front, so a throwing
  /// factory fails at construction rather than mid-batch.
  BatchEngine(const OracleFactory& factory, ThreadPool* pool = nullptr);

  EdgeBatchResult query_edges(const std::vector<EdgeId>& edges);
  NodeBatchResult query_nodes(const std::vector<NodeId>& nodes);

  /// Cumulative stats across all batches and oracle instances.
  OracleStats total_stats() const;

  std::size_t num_oracles() const noexcept { return oracles_.size(); }

 private:
  /// Runs fn(oracle, begin, end) over [0, count) in exclusive-oracle
  /// chunks; returns the batch stats (cost deltas + wall time; the
  /// caller's fn fills query_ns).
  BatchStats run(std::size_t count,
                 const std::function<void(MatchingOracle&, std::size_t,
                                          std::size_t)>& fn);

  ThreadPool* pool_;
  std::vector<std::unique_ptr<MatchingOracle>> oracles_;
  std::mutex free_mutex_;
  std::vector<MatchingOracle*> free_list_;
};

}  // namespace lps::lca
