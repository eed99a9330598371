// Graph-layer fault epochs + the recovery protocol, driven through a
// dynamic maintainer.
//
// A FaultSession owns the clock of a fault experiment: each epoch it
// (1) injects — crashes a seeded sample of live vertices (the whole
//     incidence list goes down atomically via kRemoveVertex) and lets
//     the adaptive adversary delete a seeded sample of *currently
//     matched* edges (it reads the maintained matching: adaptive, but
//     still a pure function of the seed);
// (2) recovers — revives vertices whose downtime expired
//     (kReviveVertex), re-inserts every saved edge whose endpoints are
//     both back, and flushes the maintainer (the repair maintainer
//     treats the revived set as its dirty-set, escalating to a rebuild
//     when the batch is large). Recovery is the timed section: each
//     epoch's EpochReport::recovery_ns, and the session's nearest-rank
//     p50/p99 over those epochs, are the run's only recovery latency
//     (the terminal heal is timed apart, in final_recovery_ns);
// (3) audits — proves the matching valid (check_matching +
//     check_invariants) and records its size against the fault-free
//     baseline captured at session start.
//
// Crashed edges are link-flap state, not lost topology: every edge a
// crash or the adversary takes out is parked in a pending list and
// re-inserted as soon as both endpoints are alive, so the session
// measures *recovery*, not permanent shrinkage. The schedule is a pure
// function of (plan, seed): two sessions with equal seeds crash the
// same vertices and delete the same edges, on any machine.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/matcher.hpp"
#include "faults/fault_plan.hpp"

namespace lps::faults {

/// What one fault epoch did and what state it left behind.
struct EpochReport {
  std::uint32_t epoch = 0;
  std::uint32_t crashed = 0;       // vertices crashed this epoch
  std::uint32_t revived = 0;       // vertices revived this epoch
  std::uint32_t adversarial = 0;   // matched edges the adversary deleted
  std::uint32_t reinserted = 0;    // parked edges re-inserted this epoch
  std::uint64_t recovery_ns = 0;   // timed recovery section
  std::uint64_t recourse = 0;      // matched-edge flips over the epoch
  std::size_t matching_size = 0;   // at epoch end (post recovery)
  double ratio = 1.0;              // matching_size / baseline
  bool valid = false;              // audit passed at epoch end
};

/// Aggregate over a session: per-epoch reports plus the degradation
/// metrics the benches gate on.
struct SessionResult {
  std::vector<EpochReport> epochs;
  std::size_t baseline_size = 0;  // fault-free matching size at start
  bool all_valid = true;          // every epoch-end audit passed
  double min_ratio = 1.0;         // worst epoch-end ratio
  /// Terminal heal: after the last epoch everything due is revived and
  /// re-inserted, then the maintainer flushes — did it re-attain?
  bool final_valid = true;
  double final_ratio = 1.0;
  std::uint64_t final_recovery_ns = 0;
  // Totals across epochs (including the terminal heal where noted).
  std::uint64_t crashed = 0;
  std::uint64_t revived = 0;        // includes terminal heal
  std::uint64_t adversarial = 0;
  std::uint64_t reinserted = 0;     // includes terminal heal
  std::uint64_t total_recourse = 0;
  // Nearest-rank percentiles (util/stats) over the epochs' recovery_ns;
  // the terminal heal is not an epoch.
  std::uint64_t recovery_p50_ns = 0;
  std::uint64_t recovery_p99_ns = 0;
};

/// Runs `plan.epochs` fault epochs against `matcher` (which must
/// already hold the fault-free state the session is measured against).
/// The matcher is mutated in place; the session borrows it.
class FaultSession {
 public:
  FaultSession(dynamic::DynamicMatcher& matcher, FaultPlan plan,
               std::uint64_t seed);

  SessionResult run();

 private:
  struct ParkedEdge {
    NodeId u;
    NodeId v;
    double w;
  };
  struct Downed {
    NodeId v;
    std::uint64_t up_epoch;  // first epoch whose recovery may revive v
  };

  /// Crash a seeded sample of live vertices; park their edges.
  void inject_crashes(std::uint32_t epoch, EpochReport& report);
  /// Delete a seeded sample of currently-matched edges; park them.
  void inject_adversarial(std::uint32_t epoch, EpochReport& report);
  /// Revive due vertices, re-insert eligible parked edges, flush.
  /// `heal_all` ignores downtime (the terminal heal). Returns ns.
  std::uint64_t recover(std::uint64_t epoch, bool heal_all,
                        EpochReport* report);
  /// check_matching + check_invariants; false (never throws) on audit
  /// failure so the session reports instead of aborting the run.
  bool audit() const;

  dynamic::DynamicMatcher& matcher_;
  FaultPlan plan_;
  std::uint64_t seed_;
  std::vector<ParkedEdge> parked_;
  std::vector<Downed> down_;
  std::size_t baseline_ = 0;
};

}  // namespace lps::faults
