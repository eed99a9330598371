#include "faults/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lps::faults {

namespace {

constexpr std::uint64_t kCrashSalt = 0xc7a5'4f1a'b001'd0e5ULL;
constexpr std::uint64_t kAdversarySalt = 0xade5'a27e'5a1e'c7edULL;

/// floor(frac * universe), but at least one while any fault is asked
/// for and the universe is nonempty — a 1% plan on a small graph still
/// injects something.
std::size_t sample_count(double frac, std::size_t universe) {
  if (frac <= 0.0 || universe == 0) return 0;
  const auto want = static_cast<std::size_t>(frac * static_cast<double>(universe));
  return std::min(universe, std::max<std::size_t>(1, want));
}

/// First `count` entries of a seeded partial Fisher-Yates over `pool`.
template <typename T>
void partial_shuffle(std::vector<T>& pool, std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(
                                  rng.below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
}

}  // namespace

FaultSession::FaultSession(dynamic::DynamicMatcher& matcher, FaultPlan plan,
                           std::uint64_t seed)
    : matcher_(matcher), plan_(std::move(plan)), seed_(seed) {}

void FaultSession::inject_crashes(std::uint32_t epoch, EpochReport& report) {
  const dynamic::DynamicGraph& g = matcher_.graph();
  std::vector<NodeId> live;
  live.reserve(g.num_live_nodes());
  for (NodeId v = 0; v < g.node_slots(); ++v) {
    if (g.node_alive(v)) live.push_back(v);
  }
  const std::size_t count = sample_count(plan_.flap, live.size());
  if (count == 0) return;
  Rng rng = Rng::substream(seed_, kCrashSalt, std::uint64_t{epoch});
  partial_shuffle(live, count, rng);
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const bool tevents = tracer.recording();
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId v = live[i];
    // Park the incidence list before it goes down with the vertex; a
    // neighbor crashed earlier this epoch already parked the shared
    // edge, so each edge is parked exactly once.
    for (const dynamic::Arc& a : g.neighbors(v)) {
      parked_.push_back(ParkedEdge{v, a.to, g.weight(a.edge)});
    }
    down_.push_back(Downed{v, std::uint64_t{epoch} + plan_.down_epochs});
    if (tevents) tracer.event(telemetry::EventKind::kCrash, epoch, v);
    matcher_.apply({dynamic::UpdateKind::kRemoveVertex, v});
    ++report.crashed;
  }
}

void FaultSession::inject_adversarial(std::uint32_t epoch,
                                      EpochReport& report) {
  std::vector<EdgeId> matched = matcher_.matching_edges();
  const std::size_t count = sample_count(plan_.adversarial, matched.size());
  if (count == 0) return;
  Rng rng = Rng::substream(seed_, kAdversarySalt, std::uint64_t{epoch});
  partial_shuffle(matched, count, rng);
  const dynamic::DynamicGraph& g = matcher_.graph();
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const bool tevents = tracer.recording();
  for (std::size_t i = 0; i < count; ++i) {
    const Edge ed = g.edge(matched[i]);
    parked_.push_back(ParkedEdge{ed.u, ed.v, g.weight(matched[i])});
    if (tevents) tracer.event(telemetry::EventKind::kCut, epoch, ed.u, ed.v);
    matcher_.apply({dynamic::UpdateKind::kDeleteEdge, ed.u, ed.v});
    ++report.adversarial;
  }
}

std::uint64_t FaultSession::recover(std::uint64_t epoch, bool heal_all,
                                    EpochReport* report) {
  const std::uint64_t t0 = telemetry::now_ns();
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const bool tevents = tracer.recording();
  std::size_t keep = 0;
  for (Downed& d : down_) {
    if (heal_all || d.up_epoch <= epoch) {
      matcher_.apply({dynamic::UpdateKind::kReviveVertex, d.v});
      if (tevents) tracer.event(telemetry::EventKind::kRevive, epoch, d.v);
      if (report != nullptr) ++report->revived;
    } else {
      down_[keep++] = d;
    }
  }
  down_.resize(keep);

  const dynamic::DynamicGraph& g = matcher_.graph();
  keep = 0;
  for (const ParkedEdge& pe : parked_) {
    if (!g.node_alive(pe.u) || !g.node_alive(pe.v)) {
      parked_[keep++] = pe;  // an endpoint is still down; try next epoch
      continue;
    }
    // Both endpoints crashing in one epoch parks the shared edge once,
    // but an edge can be parked twice across overlapping crash+
    // adversary events — re-insert at most once.
    if (g.find_edge(pe.u, pe.v) == kInvalidEdge) {
      matcher_.apply(
          {dynamic::UpdateKind::kInsertEdge, pe.u, pe.v, pe.w});
      if (tevents) {
        tracer.event(telemetry::EventKind::kReinsert, epoch, pe.u, pe.v);
      }
      if (report != nullptr) ++report->reinserted;
    }
  }
  parked_.resize(keep);

  matcher_.flush();
  return telemetry::now_ns() - t0;
}

bool FaultSession::audit() const {
  try {
    matcher_.check_matching();
    matcher_.graph().check_invariants();
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

SessionResult FaultSession::run() {
  SessionResult result;
  baseline_ = matcher_.matching_size();
  result.baseline_size = baseline_;
  const double base =
      baseline_ > 0 ? static_cast<double>(baseline_) : 1.0;

  std::vector<std::uint64_t> recovery_times;
  recovery_times.reserve(plan_.epochs);
  for (std::uint32_t epoch = 0; epoch < plan_.epochs; ++epoch) {
    EpochReport report;
    report.epoch = epoch;
    const std::uint64_t recourse0 = matcher_.stats().recourse;

    inject_crashes(epoch, report);
    inject_adversarial(epoch, report);
    report.recovery_ns = recover(epoch, /*heal_all=*/false, &report);

    report.recourse = matcher_.stats().recourse - recourse0;
    report.matching_size = matcher_.matching_size();
    report.ratio =
        baseline_ > 0 ? static_cast<double>(report.matching_size) / base : 1.0;
    report.valid = audit();

    result.all_valid = result.all_valid && report.valid;
    result.min_ratio = std::min(result.min_ratio, report.ratio);
    result.crashed += report.crashed;
    result.revived += report.revived;
    result.adversarial += report.adversarial;
    result.reinserted += report.reinserted;
    result.total_recourse += report.recourse;
    recovery_times.push_back(report.recovery_ns);
    result.epochs.push_back(report);
  }

  // Terminal heal: revive everything still down, restore every parked
  // edge, and let the maintainer settle — the self-healing claim.
  EpochReport heal;
  result.final_recovery_ns = recover(plan_.epochs, /*heal_all=*/true, &heal);
  result.revived += heal.revived;
  result.reinserted += heal.reinserted;
  result.final_valid = audit();
  result.final_ratio =
      baseline_ > 0 ? static_cast<double>(matcher_.matching_size()) / base
                    : 1.0;

  std::sort(recovery_times.begin(), recovery_times.end());
  result.recovery_p50_ns = percentile(recovery_times, 0.50);
  result.recovery_p99_ns = percentile(recovery_times, 0.99);
  return result;
}

}  // namespace lps::faults
