#include "core/class_mwm.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/israeli_itai.hpp"
#include "util/rng.hpp"

namespace lps {

ClassMwmResult class_mwm(const WeightedGraph& wg,
                         const ClassMwmOptions& opts) {
  return class_mwm(wg.graph, wg.weights, opts);
}

ClassMwmResult class_mwm(const Graph& g, std::span<const double> w,
                         const ClassMwmOptions& opts) {
  if (!(opts.class_base > 1.0)) {
    throw std::invalid_argument("class_mwm: class_base must be > 1");
  }
  if (w.size() != g.num_edges()) {
    throw std::invalid_argument("class_mwm: one weight per edge");
  }
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  ClassMwmResult result;
  result.matching = Matching(n);

  // Class level per edge of G′ (w > 0), in double: a class_base just
  // above 1 puts the levels far outside int range. Within a span of at
  // most 2^20 classes, level - lo is exact (Sterbenz), so it names the
  // class directly.
  const double log_base = std::log(opts.class_base);
  std::vector<double> level(m);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (EdgeId e = 0; e < m; ++e) {
    if (!(w[e] > 0.0)) continue;
    level[e] = std::floor(std::log(w[e]) / log_base);
    lo = std::min(lo, level[e]);
    hi = std::max(hi, level[e]);
  }
  if (!(lo <= hi)) return result;  // G′ has no edge
  const double span = hi - lo + 1.0;
  constexpr double kMaxClasses = 1 << 20;
  if (!(span <= kMaxClasses)) {
    std::ostringstream msg;
    msg << std::setprecision(15) << "class_mwm: class_base=" << opts.class_base
        << " spans " << span << " weight classes (limit 2^20)";
    throw std::invalid_argument(msg.str());
  }
  const auto num_classes = static_cast<std::uint32_t>(span);
  result.num_classes = num_classes;

  // Bucket G′'s edges by class (a counting sort, ascending ids within a
  // class) and count G′'s degrees, which announcements and the sweep
  // charge.
  constexpr std::uint32_t kNotInGPrime =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> edge_class(m, kNotInGPrime);
  std::vector<std::size_t> class_start(num_classes + 1, 0);
  std::vector<NodeId> degree(n, 0);
  const GraphStore& s = g.store();
  for (EdgeId e = 0; e < m; ++e) {
    if (!(w[e] > 0.0)) continue;
    edge_class[e] = static_cast<std::uint32_t>(level[e] - lo);
    ++class_start[edge_class[e] + 1];
    ++degree[s.edge_u[e]];
    ++degree[s.edge_v[e]];
  }
  std::vector<double>().swap(level);
  for (std::uint32_t c = 0; c < num_classes; ++c) {
    class_start[c + 1] += class_start[c];
  }
  std::vector<EdgeId> class_edges(class_start[num_classes]);
  {
    std::vector<std::size_t> cursor(class_start.begin(), class_start.end() - 1);
    for (EdgeId e = 0; e < m; ++e) {
      if (edge_class[e] != kNotInGPrime) {
        class_edges[cursor[edge_class[e]]++] = e;
      }
    }
  }
  auto edges_of = [&](std::uint32_t c) {
    return std::span<const EdgeId>(class_edges.data() + class_start[c],
                                   class_start[c + 1] - class_start[c]);
  };

  // Step 2: per-class maximal matchings, composed in parallel (the
  // classes partition E(G′), so their channel sets are disjoint: the
  // round count of the simultaneous run is the max over classes). The
  // simulation runs them one after another on one network; class c's
  // matching is matched[matched_start[c], matched_start[c + 1]).
  IsraeliItaiClassRuns runs(g, edge_class, degree, opts.pool);
  std::vector<EdgeId> matched;
  std::vector<std::size_t> matched_start(num_classes + 1, 0);
  std::uint64_t parallel_rounds = 0;
  for (std::uint32_t c = 0; c < num_classes; ++c) {
    matched_start[c] = matched.size();
    if (class_start[c] == class_start[c + 1]) continue;
    IsraeliItaiClassRuns::Run run =
        runs.run(c, edges_of(c), splitmix64(opts.seed ^ (0x11aa00 + c)),
                 opts.max_phases_per_class);
    result.converged = result.converged && run.converged;
    matched.insert(matched.end(), run.matching.begin(), run.matching.end());
    parallel_rounds = std::max(parallel_rounds, run.stats.rounds);
    // Messages/bits add up across classes; rounds compose in parallel.
    run.stats.rounds = 0;
    result.stats.merge(run.stats);
  }
  matched_start[num_classes] = matched.size();
  result.stats.rounds += parallel_rounds;

  // Step 3: survival sweep, heaviest class first. One round per class:
  // the survivors of the current level announce themselves (O(log n)-bit
  // messages from both endpoints to their G′ neighbors); edges of lighter
  // classes die when they hear an adjacent survivor. Each M_i is a
  // matching, so marking a survivor's endpoints killed cannot kill
  // another edge of its own level.
  std::vector<char> endpoint_killed(n, 0);
  std::vector<EdgeId> survivors;
  NetStats sweep;
  sweep.rounds = num_classes;
  std::uint64_t id_bits = 1;
  while ((std::uint64_t{1} << id_bits) < n + 1) ++id_bits;
  for (std::uint32_t c = num_classes; c-- > 0;) {
    for (std::size_t i = matched_start[c]; i < matched_start[c + 1]; ++i) {
      const EdgeId e = matched[i];
      const NodeId u = s.edge_u[e];
      const NodeId v = s.edge_v[e];
      if (endpoint_killed[u] || endpoint_killed[v]) continue;
      endpoint_killed[u] = 1;
      endpoint_killed[v] = 1;
      sweep.messages += degree[u] + degree[v];
      sweep.total_bits += (degree[u] + degree[v]) * id_bits;
      sweep.max_message_bits = std::max(sweep.max_message_bits, id_bits);
      survivors.push_back(e);
    }
  }
  result.stats.merge(sweep);
  result.matching = Matching::from_edges(g, survivors);
  return result;
}

}  // namespace lps
