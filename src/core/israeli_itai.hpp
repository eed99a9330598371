// Randomized distributed maximal matching in the style of Israeli & Itai
// (1986), reference [15] of the paper: the classical 1/2-MCM baseline in
// O(log n) rounds w.h.p. that the paper's Section 3 improves on.
//
// Protocol (3 rounds per phase):
//   stage 0: every free node flips a coin; heads-nodes ("proposers") send
//            a proposal to one free neighbor chosen uniformly at random.
//   stage 1: every free tails-node ("acceptor") that received proposals
//            picks one uniformly and sends an accept; it is now matched
//            and announces this to its other neighbors.
//   stage 2: a proposer receiving an accept is matched and announces.
// A node's candidates are its neighbors that have not announced. A node
// stops once it is matched or has no candidate; the run ends after the
// first phase in which no free node sees a candidate at stage 0, at which
// point the matching is maximal.
//
// The proposer/acceptor coin removes all accept conflicts (a proposer
// proposes to exactly one node, so it can receive at most one accept and
// never accepts itself).
//
// Announcements (DESIGN.md §9): an announcement only clears the far
// end's liveness flag for its sender, and only the stage-0 candidate
// scan reads flags. Fault-free, a node that matches therefore makes those
// stores itself, one per edge through the store's reverse-arc table, and
// charges the announcements to the engine (SyncNetwork::Ctx::charge)
// instead of sending them: sent at stage 1 or 2, they would be applied
// before the next stage 0 anyway, so the execution and NetStats are bit
// for bit those of sending them. Under message faults they stay
// messages, because the injector acts on messages.
//
// Schedule (DESIGN.md §9): stages 1 and 2 step only message receivers;
// after stage 0 the phase driver re-activates for the next stage 0 every
// free node that saw a candidate. Fault-free nothing else can act: a
// free node that saw no candidate never sees one again, and one that
// receives a message at stage 1 or 2 saw its sender as a candidate. So
// the execution is bit-identical to stepping every node every round.
// Under message faults stale flags break that argument, so the driver
// also keeps the free stage-1 and stage-2 receivers (see step_all_nodes
// for what still differs there).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

struct IsraeliItaiOptions {
  std::uint64_t seed = 1;
  /// Hard cap on phases (3 rounds each); 0 picks 40 + 12*ceil(log2(n+1)).
  std::uint64_t max_phases = 0;
  /// Restrict the run to a logical subgraph. Empty = all edges active.
  /// Only active edges carry proposals and accepts and count as
  /// candidates. A node that matches still announces to every neighbor
  /// in g, one 8-bit message each in NetStats, but an announcement over
  /// an inactive edge sets a flag nothing reads, so it is charged and
  /// neither sent nor applied (over an active edge, see the header). A
  /// masked run's round 0 steps only the endpoints of active edges.
  /// Fault-free, both leave the execution bit for bit as if every
  /// announcement were sent and every node stepped. (Under message
  /// faults the announcements over inactive edges no longer meet the
  /// injector or shuffle an inbox, so a masked faulty run can differ.)
  std::vector<char> active_edges;
  /// Start from this matching instead of the empty one (its endpoints
  /// count as already matched).
  std::optional<Matching> initial;
  ThreadPool* pool = nullptr;
  /// Step every node every round instead of the active set (costs O(n)
  /// per round instead of O(free nodes + traffic)). Exposed for the
  /// equivalence test: fault-free the execution is the same bit for bit.
  /// Under message faults that hold messages back across phases it can
  /// differ, because a late proposal may reach a free node that saw no
  /// candidate, whose coin only this mode redraws every phase.
  bool step_all_nodes = false;
  /// Fault-injection spec ("" = fault-free): a preset name or an
  /// explicit `name:key=value,...` plan (src/faults). Message faults
  /// apply at the engine's channel exchange; after the round budget a
  /// reconciliation/resync loop repairs half-committed handshakes (a
  /// dropped accept leaves an acceptor matched to a proposer that never
  /// learned of it) by freeing the disagreeing vertices, re-opening
  /// exactly their neighborhoods, and running more phases — never by
  /// restarting, and at most 8 times. The returned matching is valid
  /// under any fault rate; maximality is best-effort once messages can
  /// be lost.
  std::string faults{};
};

struct DistMatchingResult {
  Matching matching;
  NetStats stats;
  /// True iff a phase ended with no free node seeing a candidate
  /// (matching maximal on the active subgraph) before the phase cap.
  bool converged = false;
  /// Resync sweeps that found (and repaired) half-committed handshakes;
  /// always 0 in fault-free runs.
  std::uint32_t resyncs = 0;
};

DistMatchingResult israeli_itai(const Graph& g,
                                const IsraeliItaiOptions& opts = {});

/// The phase budget used when max_phases == 0: 40 + 12 ceil(log2(n+1)),
/// comfortably past the O(log n) w.h.p. convergence point. Exported so
/// the lca oracle simulates exactly the budget the solver runs.
std::uint64_t israeli_itai_default_max_phases(NodeId n);

namespace detail {
class IsraeliItaiProtocol;
}

/// Israeli–Itai on the edge classes of a subgraph G′ of g, one class per
/// run, on one network and one node state: class_mwm's step 2, with G′
/// its positive-weight edges. `edge_class[e]` is e's class, or a value no
/// run names when e is not in G′; `degree[v]` is v's degree in G′. Both
/// must outlive the object.
///
/// run(c, edges, seed) is bit for bit the masked israeli_itai(G′) run
/// with that seed and active_edges = class c: node ids are g's, and G′'s
/// incidence order is g's filtered, so the same draws pick the same
/// edges, and announcements over G′ edges outside the class are charged
/// as that run charges them. A run steps and touches only the class's
/// endpoints and their flags for class edges, and clears them when it
/// ends, so its cost follows the class, not the graph.
class IsraeliItaiClassRuns {
 public:
  IsraeliItaiClassRuns(const Graph& g,
                       std::span<const std::uint32_t> edge_class,
                       std::span<const NodeId> degree,
                       ThreadPool* pool = nullptr);
  ~IsraeliItaiClassRuns();
  IsraeliItaiClassRuns(const IsraeliItaiClassRuns&) = delete;
  IsraeliItaiClassRuns& operator=(const IsraeliItaiClassRuns&) = delete;

  struct Run {
    /// The class's matched edges, in the order of `edges`.
    std::vector<EdgeId> matching;
    NetStats stats;
    bool converged = false;
  };

  /// Run class c, whose edges are `edges` (every one with edge_class ==
  /// c). max_phases as in IsraeliItaiOptions.
  Run run(std::uint32_t c, std::span<const EdgeId> edges, std::uint64_t seed,
          std::uint64_t max_phases = 0);

 private:
  std::unique_ptr<detail::IsraeliItaiProtocol> protocol_;
};

}  // namespace lps
