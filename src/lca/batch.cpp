#include "lca/batch.hpp"

#include <chrono>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace lps::lca {

BatchEngine::BatchEngine(const OracleFactory& factory, ThreadPool* pool)
    : pool_(pool) {
  const std::size_t workers =
      pool_ != nullptr && pool_->num_threads() > 1 ? pool_->num_threads() : 1;
  oracles_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    oracles_.push_back(factory());
    if (!oracles_.back()) {
      throw std::invalid_argument("BatchEngine: factory returned null");
    }
  }
  free_list_.reserve(workers);
  for (auto& oracle : oracles_) free_list_.push_back(oracle.get());
}

OracleStats BatchEngine::total_stats() const {
  OracleStats total;
  for (const auto& oracle : oracles_) total += oracle->stats();
  return total;
}

BatchStats BatchEngine::run(
    std::size_t count,
    const std::function<void(MatchingOracle&, std::size_t, std::size_t)>&
        fn) {
  BatchStats out;
  const OracleStats before = total_stats();
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const bool ttrace = tracer.recording();
  const std::uint64_t tb = ttrace ? telemetry::now_ns() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  if (pool_ != nullptr && pool_->num_threads() > 1 && count > 0) {
    // Chunks small enough that every worker stays busy, large enough
    // that free-list churn stays negligible next to query cost.
    const std::size_t grain =
        std::max<std::size_t>(1, count / (4 * oracles_.size()));
    pool_->parallel_for(0, count, grain,
                        [&](std::size_t begin, std::size_t end) {
                          MatchingOracle* oracle = nullptr;
                          {
                            std::lock_guard<std::mutex> lock(free_mutex_);
                            oracle = free_list_.back();
                            free_list_.pop_back();
                          }
                          fn(*oracle, begin, end);
                          std::lock_guard<std::mutex> lock(free_mutex_);
                          free_list_.push_back(oracle);
                        });
  } else {
    fn(*oracles_.front(), 0, count);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.oracle = total_stats();
  out.oracle -= before;
  if (ttrace) {
    tracer.emit("lca.batch", "lca", tb, telemetry::now_ns() - tb,
                {{"queries", static_cast<double>(count)},
                 {"probes", static_cast<double>(out.oracle.probes)}});
  }
  return out;
}

namespace {

/// Per-query instrumentation shared by the edge/node batch loops: a
/// LegMetrics::lca_query_ns sample when metrics are on, plus a per-query
/// span (with the oracle's probe delta as an arg) when tracing.
template <typename Query>
void instrumented_query(MatchingOracle& oracle, bool tmetrics, bool ttrace,
                        telemetry::Histogram* query_ns, double key,
                        const Query& query) {
  if (!tmetrics && !ttrace) {
    query();
    return;
  }
  const std::uint64_t probes_before = oracle.stats().probes;
  const std::uint64_t t0 = telemetry::now_ns();
  query();
  const std::uint64_t t1 = telemetry::now_ns();
  if (tmetrics) query_ns->record(t1 - t0);
  if (ttrace) {
    telemetry::Tracer::global().emit(
        "lca.query", "lca", t0, t1 - t0,
        {{"key", key},
         {"probes", static_cast<double>(oracle.stats().probes -
                                        probes_before)}});
  }
}

/// Resolved once per batch; the per-query path then branches on bools.
struct QueryTelemetry {
  bool tmetrics = telemetry::enabled();
  bool ttrace = telemetry::Tracer::global().recording();
  telemetry::Histogram* query_ns =
      tmetrics ? &telemetry::LegMetrics::get().lca_query_ns : nullptr;
};

}  // namespace

EdgeBatchResult BatchEngine::query_edges(const std::vector<EdgeId>& edges) {
  EdgeBatchResult out;
  out.in_matching.assign(edges.size(), 0);
  const QueryTelemetry qt;
  out.stats = run(edges.size(), [&](MatchingOracle& oracle,
                                    std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      instrumented_query(oracle, qt.tmetrics, qt.ttrace, qt.query_ns,
                         static_cast<double>(edges[i]), [&] {
                           out.in_matching[i] =
                               oracle.in_matching(edges[i]) ? 1 : 0;
                         });
    }
  });
  return out;
}

NodeBatchResult BatchEngine::query_nodes(const std::vector<NodeId>& nodes) {
  NodeBatchResult out;
  out.matched_to.assign(nodes.size(), kInvalidNode);
  const QueryTelemetry qt;
  out.stats = run(nodes.size(), [&](MatchingOracle& oracle,
                                    std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      instrumented_query(oracle, qt.tmetrics, qt.ttrace, qt.query_ns,
                         static_cast<double>(nodes[i]), [&] {
                           out.matched_to[i] = oracle.matched_to(nodes[i]);
                         });
    }
  });
  return out;
}

}  // namespace lps::lca
