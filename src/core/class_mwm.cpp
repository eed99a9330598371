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
  const Graph& g = wg.graph;
  if (!(opts.class_base > 1.0)) {
    throw std::invalid_argument("class_mwm: class_base must be > 1");
  }
  ClassMwmResult result;
  result.matching = Matching(g.num_nodes());
  if (g.num_edges() == 0) return result;

  // Class level per edge, in double: a class_base just above 1 puts the
  // levels far outside int range. Within a span of at most 2^20 classes,
  // level - lo is exact (Sterbenz), so it names the class directly.
  const double log_base = std::log(opts.class_base);
  std::vector<double> level(g.num_edges());
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    level[e] = std::floor(std::log(wg.weight(e)) / log_base);
    lo = std::min(lo, level[e]);
    hi = std::max(hi, level[e]);
  }
  const double span = hi - lo + 1.0;
  constexpr double kMaxClasses = 1 << 20;
  if (!(span <= kMaxClasses)) {
    std::ostringstream msg;
    msg << std::setprecision(15) << "class_mwm: class_base=" << opts.class_base
        << " spans " << span << " weight classes (limit 2^20)";
    throw std::invalid_argument(msg.str());
  }
  const auto num_classes = static_cast<std::size_t>(span);
  result.num_classes = num_classes;

  // Step 2: per-class maximal matchings, composed in parallel (the
  // classes partition E, so their channel sets are disjoint: the round
  // count of the simultaneous run is the max over classes).
  std::vector<std::vector<EdgeId>> class_matchings(num_classes);
  std::uint64_t parallel_rounds = 0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::vector<char> mask(g.num_edges(), 0);
    bool nonempty = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (level[e] - lo == static_cast<double>(c)) {
        mask[e] = 1;
        nonempty = true;
      }
    }
    if (!nonempty) continue;
    IsraeliItaiOptions ii;
    ii.seed = splitmix64(opts.seed ^ (0x11aa00 + c));
    ii.max_phases = opts.max_phases_per_class;
    ii.active_edges = std::move(mask);
    ii.pool = opts.pool;
    ii.shards = opts.shards;
    DistMatchingResult mm = israeli_itai(g, ii);
    result.converged = result.converged && mm.converged;
    class_matchings[c] = mm.matching.edge_ids(g);
    parallel_rounds = std::max(parallel_rounds, mm.stats.rounds);
    // Messages/bits add up across classes; rounds compose in parallel.
    NetStats msgs = mm.stats;
    msgs.rounds = 0;
    result.stats.merge(msgs);
  }
  result.stats.rounds += parallel_rounds;

  // Step 3: survival sweep, heaviest class first. One round per class:
  // the survivors of the current level announce themselves (O(log n)-bit
  // messages from both endpoints); edges of lighter classes die when
  // they hear an adjacent survivor. Within a level there are no
  // conflicts (each M_i is a matching), so endpoints are only marked
  // killed after the whole level is decided.
  std::vector<char> endpoint_killed(g.num_nodes(), 0);
  std::vector<EdgeId> survivors;
  NetStats sweep;
  sweep.rounds = num_classes;
  std::uint64_t id_bits = 1;
  while ((std::uint64_t{1} << id_bits) < g.num_nodes() + 1) ++id_bits;
  for (std::size_t c = num_classes; c-- > 0;) {
    std::vector<EdgeId> level;
    for (EdgeId e : class_matchings[c]) {
      const Edge& ed = g.edge(e);
      if (endpoint_killed[ed.u] || endpoint_killed[ed.v]) continue;
      level.push_back(e);
    }
    for (EdgeId e : level) {
      const Edge& ed = g.edge(e);
      endpoint_killed[ed.u] = 1;
      endpoint_killed[ed.v] = 1;
      // Announcements from both endpoints to all their neighbors.
      sweep.messages += g.degree(ed.u) + g.degree(ed.v);
      sweep.total_bits += (g.degree(ed.u) + g.degree(ed.v)) * id_bits;
      sweep.max_message_bits = std::max(sweep.max_message_bits, id_bits);
      survivors.push_back(e);
    }
  }
  result.stats.merge(sweep);
  result.matching = Matching::from_edges(g, survivors);
  return result;
}

}  // namespace lps
