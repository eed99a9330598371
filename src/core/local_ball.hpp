// Algorithm 2: neighborhood exchange in the LOCAL model. In round i
// every node forwards what it learned in round i-1 (delta gossip: each
// edge description crosses each channel at most once, which keeps the
// measured message sizes within the paper's O(|V|+|E|) bound and makes
// memory proportional to total information flow).
//
// After `radius` rounds, node v's view contains every edge of G that has
// an endpoint within distance `radius` of v, each labeled with its
// matched-status at collection time — enough to enumerate augmenting
// paths of length <= radius and decide vertex freeness along them.
#pragma once

#include <vector>

#include "graph/matching.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lps {

/// An edge description as carried in gossip messages.
struct LabeledEdge {
  NodeId u;
  NodeId v;
  bool matched;
};

struct BallViews {
  /// view[v] = all labeled edges known to v, in discovery order.
  std::vector<std::vector<LabeledEdge>> view;
  NetStats stats;
};

BallViews collect_balls(const Graph& g, const Matching& m, int radius,
                        ThreadPool* pool = nullptr);

}  // namespace lps
