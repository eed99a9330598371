// Fully dynamic matching maintainers: ingest an ordered update stream
// and keep an approximate matching alive with bounded per-update work,
// instead of re-solving from scratch after every change.
//
// Two maintainers behind one interface:
//
//  * greedy  — maximality-guarded greedy (GreedyDynamicMatcher). The
//    invariant is that the matching is always *maximal*, so its matched
//    vertices form a vertex cover and the matching is a 2-approximation
//    at every instant. Inserts are O(1) (match iff both endpoints
//    free); deleting a matched edge rescans the two freed endpoints in
//    O(deg) for new partners, which is exactly the work needed to
//    restore the cover.
//
//  * repair  — lazy maintainer with periodic repair
//    (RepairDynamicMatcher). Updates do only O(1) bookkeeping (cheap
//    greedy matches on insert, unmatch on delete) and mark the touched
//    vertices dirty; every `interval` updates a repair pass runs
//    bounded alternating-path searches (length <= 2k-1, k =
//    ceil(1/eps)-1) from the dirty free vertices, the local moves that
//    push the matching back toward (1 - eps) — the LCA observation that
//    answers need only be recomputed in the locally affected region.
//    When churn has dirtied more than `rebuild_frac` of the graph the
//    pass escalates: it snapshots and re-solves through the existing
//    solver registry (`rebuild=<solver>`), adopting the result.
//
//  * scratch — the baseline the other two are measured against: after
//    every update, snapshot and re-solve through the registry
//    (`solver=<name>`, default greedy_mcm). Its per-update cost is a
//    full solve; benches sample it rather than stream through it.
//
// The headline metric is *recourse*: matched-edge flips (an edge
// entering or leaving the matching) per update. A scratch re-solve can
// flip everything; the maintainers flip O(1) amortized.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/stream.hpp"

namespace lps::dynamic {

struct MaintainerStats {
  std::uint64_t updates = 0;
  /// Matched-edge flips: every edge that enters or leaves the matching
  /// counts one (an augmenting path of k edges costs k flips).
  std::uint64_t recourse = 0;
  std::uint64_t repairs = 0;        // repair passes run (repair only)
  std::uint64_t augmentations = 0;  // augmenting paths applied
  std::uint64_t rebuilds = 0;       // registry re-solves (repair/scratch)
};

class DynamicMatcher {
 public:
  explicit DynamicMatcher(DynamicGraph g);
  virtual ~DynamicMatcher() = default;

  virtual std::string name() const = 0;

  /// Apply one update: mutate the graph, then restore the maintainer's
  /// matching invariant. Throws std::invalid_argument on updates that
  /// do not apply (deleting an absent edge, dead vertices, ...).
  void apply(const Update& update);
  void apply_trace(const UpdateTrace& trace);

  /// Finalize pending lazy work (the repair maintainer runs a last
  /// repair pass); no-op for eager maintainers.
  virtual void flush() {}

  const DynamicGraph& graph() const noexcept { return g_; }
  const MaintainerStats& stats() const noexcept { return stats_; }

  std::size_t matching_size() const noexcept { return size_; }
  bool is_free(NodeId v) const { return match_[v] == kInvalidEdge; }
  EdgeId matched_edge(NodeId v) const { return match_[v]; }
  NodeId mate(NodeId v) const {
    return is_free(v) ? kInvalidNode : g_.other_endpoint(match_[v], v);
  }
  bool in_matching(EdgeId e) const {
    return g_.edge_alive(e) && match_[g_.edge(e).u] == e;
  }
  /// Matched edge ids, each once, ascending.
  std::vector<EdgeId> matching_edges() const;

  /// Full audit: every matched edge live, both endpoints agreeing, no
  /// shared endpoints, size consistent. O(n). Throws std::logic_error.
  void check_matching() const;

 protected:
  // Update hooks; the graph mutation itself is owned by apply().
  virtual void on_insert(EdgeId e) = 0;
  /// Called after edge (u, v) was deleted; was_matched tells whether
  /// apply() had to unmatch it first.
  virtual void on_deleted(NodeId u, NodeId v, bool was_matched) = 0;
  /// Called after vertex v (and its incident edges) were removed;
  /// former_mate is the vertex freed by the removal (or kInvalidNode).
  virtual void on_vertex_removed(NodeId v, NodeId former_mate) = 0;
  /// Called after a removed vertex came back to life (isolated; its
  /// edges re-enter as ordinary inserts). Default: nothing to do — a
  /// degree-0 vertex never violates a matching invariant.
  virtual void on_vertex_revived(NodeId) {}
  /// Called once per update after the kind-specific hook (lazy
  /// maintainers schedule periodic work here).
  virtual void after_update() {}

  /// Counted mutations (stats_.recourse tracks each flip).
  void match(EdgeId e);
  void unmatch(EdgeId e);
  /// Uncounted mutations for tentative search steps; the caller settles
  /// the recourse bill for the net change itself.
  void raw_match(EdgeId e);
  void raw_unmatch(EdgeId e);

  /// Snapshot, solve through the registry, and adopt the result as the
  /// current matching; recourse is billed as the symmetric difference.
  /// Counts one rebuild in stats_.
  void adopt_registry_solution(const std::string& solver, std::uint64_t seed);

  MaintainerStats stats_;

 private:
  DynamicGraph g_;
  std::vector<EdgeId> match_;  // per vertex slot; kInvalidEdge = free
  std::size_t size_ = 0;
};

class GreedyDynamicMatcher final : public DynamicMatcher {
 public:
  explicit GreedyDynamicMatcher(DynamicGraph g);
  std::string name() const override { return "greedy"; }

 protected:
  void on_insert(EdgeId e) override;
  void on_deleted(NodeId u, NodeId v, bool was_matched) override;
  void on_vertex_removed(NodeId v, NodeId former_mate) override;

 private:
  /// Scan v's incidence for a free partner and match the first; the
  /// O(deg) move that restores maximality around a freed vertex.
  void rematch_scan(NodeId v);
};

class RepairDynamicMatcher final : public DynamicMatcher {
 public:
  struct Options {
    double eps = 0.2;          // target (1 - eps); path cap 2k-1
    std::uint64_t interval = 32;  // updates between repair passes
    /// Registry solver for the escalation re-solve ("" = never).
    std::string rebuild;
    double rebuild_frac = 0.25;  // dirty fraction triggering escalation
  };

  RepairDynamicMatcher(DynamicGraph g, Options options);
  std::string name() const override { return "repair"; }
  void flush() override { repair(); }

  int path_cap() const noexcept { return path_cap_; }

 protected:
  void on_insert(EdgeId e) override;
  void on_deleted(NodeId u, NodeId v, bool was_matched) override;
  void on_vertex_removed(NodeId v, NodeId former_mate) override;
  /// Crash/recover batches are dirty-sets: a revived vertex's
  /// neighborhood is exactly where augmenting paths reopen.
  void on_vertex_revived(NodeId v) override;
  void after_update() override;

 private:
  void mark_dirty(NodeId v);
  void repair();
  /// Re-solve through the registry and adopt the result (recourse =
  /// symmetric difference).
  void rebuild_via_registry();
  /// Alternating-path DFS from free vertex u with at most `remaining`
  /// edges; applies the path and returns its length, or -1.
  int augment_from(NodeId u, int remaining);

  Options options_;
  int path_cap_;
  std::uint64_t since_repair_ = 0;
  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t stamp_cur_ = 0;
};

/// Baseline: re-solve from scratch through the solver registry after
/// every update. `solver` must name a registered cardinality solver.
class ScratchRematchMatcher final : public DynamicMatcher {
 public:
  ScratchRematchMatcher(DynamicGraph g, std::string solver,
                        std::uint64_t seed);
  std::string name() const override { return "scratch"; }

 protected:
  void on_insert(EdgeId e) override;
  void on_deleted(NodeId u, NodeId v, bool was_matched) override;
  void on_vertex_removed(NodeId v, NodeId former_mate) override;

 private:
  void resolve();

  std::string solver_;
  std::uint64_t seed_;
};

/// Factory: "greedy" | "repair" | "scratch", configured by the same kv
/// grammar as solver configs. Keys: repair accepts eps, interval,
/// rebuild, rebuild_frac; scratch accepts solver, seed. Unknown names
/// and keys throw std::invalid_argument.
std::unique_ptr<DynamicMatcher> make_matcher(
    const std::string& name, DynamicGraph g,
    const std::map<std::string, std::string>& config = {});

}  // namespace lps::dynamic
