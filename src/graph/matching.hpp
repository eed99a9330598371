// Matching representation and the verification/analysis oracles used by
// tests and benches: validity, maximality, bounded augmenting-path
// search (exact, used to check the Hopcroft–Karp invariants of
// Lemmas 3.4/3.5), and symmetric-difference decomposition.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace lps {

/// A matching over a fixed vertex set, stored as the matched edge id per
/// vertex. All mutating operations validate the matching property.
class Matching {
 public:
  Matching() = default;
  explicit Matching(NodeId n) : match_edge_(n, kInvalidEdge) {}

  /// Build from explicit edge ids; throws if they are not disjoint.
  static Matching from_edges(const Graph& g, const std::vector<EdgeId>& ids);

  NodeId num_nodes() const { return static_cast<NodeId>(match_edge_.size()); }
  std::size_t size() const { return size_; }

  bool is_free(NodeId v) const { return match_edge_[v] == kInvalidEdge; }
  EdgeId matched_edge(NodeId v) const { return match_edge_[v]; }
  NodeId mate(const Graph& g, NodeId v) const {
    return is_free(v) ? kInvalidNode : g.other_endpoint(match_edge_[v], v);
  }
  bool contains(const Graph& g, EdgeId e) const {
    return match_edge_[g.edge(e).u] == e;
  }

  /// Matched edge ids (each once), in increasing id order.
  std::vector<EdgeId> edge_ids(const Graph& g) const;

  /// Add an edge whose endpoints are both free (checked).
  void add(const Graph& g, EdgeId e);
  /// Remove an edge currently in the matching (checked).
  void remove(const Graph& g, EdgeId e);

  /// Replace M by M (xor) S for an arbitrary edge set S, in place in
  /// O(|S|). Throws std::invalid_argument, leaving M unchanged, on a
  /// repeated or out-of-range id or when the result is not a matching.
  /// This implements the paper's `M <- M ⊕ P`.
  void symmetric_difference(const Graph& g, const std::vector<EdgeId>& s);

  double weight(const WeightedGraph& wg) const;

  friend bool operator==(const Matching&, const Matching&) = default;

 private:
  std::vector<EdgeId> match_edge_;
  std::size_t size_ = 0;
};

/// True iff the ids form a valid matching (disjoint, in range, no dup).
bool is_valid_matching(const Graph& g, const std::vector<EdgeId>& ids);

/// True iff no graph edge has both endpoints free.
bool is_maximal_matching(const Graph& g, const Matching& m);

/// Exact search for an augmenting path with at most `max_len` edges.
/// Returns the path's edge ids in order, or nullopt. Exponential in
/// max_len in the worst case (branching <= Delta per unmatched step);
/// intended for test oracles and small `max_len`.
std::optional<std::vector<EdgeId>> find_augmenting_path_bounded(
    const Graph& g, const Matching& m, int max_len);

inline bool has_augmenting_path_leq(const Graph& g, const Matching& m,
                                    int max_len) {
  return find_augmenting_path_bounded(g, m, max_len).has_value();
}

/// Length of the shortest augmenting path, scanning odd lengths up to
/// `cap`; returns -1 if none with length <= cap exists.
int shortest_augmenting_path_length(const Graph& g, const Matching& m,
                                    int cap);

/// Validates that `path` is an augmenting path w.r.t. m and applies it.
void apply_augmenting_path(const Graph& g, Matching& m,
                           const std::vector<EdgeId>& path);

/// A connected component of M (xor) M': an alternating path or cycle.
struct AlternatingComponent {
  enum class Kind { kPath, kCycle };
  Kind kind;
  std::vector<NodeId> nodes;  // in walk order (cycle: closing node omitted)
  std::vector<EdgeId> edges;  // |nodes|-1 for paths, |nodes| for cycles
};

/// Decompose the symmetric difference of two matchings into alternating
/// paths and cycles (the structure Lemma 3.9's proof walks over).
std::vector<AlternatingComponent> decompose_symmetric_difference(
    const Graph& g, const Matching& a, const Matching& b);

}  // namespace lps
