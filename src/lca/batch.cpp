#include "lca/batch.hpp"

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
  const std::uint64_t t0 = telemetry::now_ns();
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
  const std::uint64_t t1 = telemetry::now_ns();
  out.wall_ms = static_cast<double>(t1 - t0) / 1e6;
  out.oracle = total_stats();
  out.oracle -= before;
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (tracer.recording()) {
    tracer.emit("lca.batch", "lca", t0, t1 - t0,
                {{"queries", static_cast<double>(count)},
                 {"probes", static_cast<double>(out.oracle.probes)}});
  }
  return out;
}

namespace {

/// Per-query instrumentation shared by the edge/node batch loops,
/// resolved once per batch. With metrics or tracing on, query i's time
/// lands in ns[i]; tracing also emits a per-query span with the
/// oracle's probe delta as an arg.
struct QueryTimer {
  bool ttrace = telemetry::Tracer::global().recording();
  bool timed = ttrace || telemetry::enabled();
  std::vector<std::uint64_t> ns;

  explicit QueryTimer(std::size_t count) {
    if (timed) ns.resize(count);
  }

  template <typename Query>
  void operator()(MatchingOracle& oracle, std::size_t i, double key,
                  const Query& query) {
    if (!timed) {
      query();
      return;
    }
    const std::uint64_t probes_before = oracle.stats().probes;
    const std::uint64_t t0 = telemetry::now_ns();
    query();
    const std::uint64_t t1 = telemetry::now_ns();
    ns[i] = t1 - t0;
    if (ttrace) {
      telemetry::Tracer::global().emit(
          "lca.query", "lca", t0, t1 - t0,
          {{"key", key},
           {"probes", static_cast<double>(oracle.stats().probes -
                                          probes_before)}});
    }
  }
};

}  // namespace

EdgeBatchResult BatchEngine::query_edges(const std::vector<EdgeId>& edges) {
  EdgeBatchResult out;
  out.in_matching.assign(edges.size(), 0);
  QueryTimer timer(edges.size());
  out.stats = run(edges.size(), [&](MatchingOracle& oracle,
                                    std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      timer(oracle, i, static_cast<double>(edges[i]), [&] {
        out.in_matching[i] = oracle.in_matching(edges[i]) ? 1 : 0;
      });
    }
  });
  out.stats.query_ns = std::move(timer.ns);
  return out;
}

NodeBatchResult BatchEngine::query_nodes(const std::vector<NodeId>& nodes) {
  NodeBatchResult out;
  out.matched_to.assign(nodes.size(), kInvalidNode);
  QueryTimer timer(nodes.size());
  out.stats = run(nodes.size(), [&](MatchingOracle& oracle,
                                    std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      timer(oracle, i, static_cast<double>(nodes[i]), [&] {
        out.matched_to[i] = oracle.matched_to(nodes[i]);
      });
    }
  });
  out.stats.query_ns = std::move(timer.ns);
  return out;
}

}  // namespace lps::lca
