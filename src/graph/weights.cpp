#include "graph/weights.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"

namespace lps {

std::vector<double> uniform_weights(EdgeId m, double lo, double hi, Rng& rng) {
  if (!(0.0 < lo) || !(lo <= hi)) {
    throw std::invalid_argument("uniform_weights: need 0 < lo <= hi");
  }
  std::vector<double> w(m);
  for (auto& x : w) x = lo + (hi - lo) * rng.uniform01();
  return w;
}

std::vector<double> integer_weights(EdgeId m, std::uint64_t max_w, Rng& rng) {
  if (max_w == 0) throw std::invalid_argument("integer_weights: max_w == 0");
  std::vector<double> w(m);
  for (auto& x : w) x = static_cast<double>(1 + rng.below(max_w));
  return w;
}

std::vector<double> exponential_weights(EdgeId m, double mean, Rng& rng) {
  if (!(mean > 0.0)) throw std::invalid_argument("exponential_weights: mean");
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 - mean * std::log(rng.uniform01_open());
  return w;
}

std::vector<double> power_of_two_weights(EdgeId m, int levels, Rng& rng) {
  if (levels < 1 || levels > 60) {
    throw std::invalid_argument("power_of_two_weights: levels out of range");
  }
  std::vector<double> w(m);
  for (auto& x : w) {
    x = std::ldexp(1.0, static_cast<int>(rng.below(levels)));
  }
  return w;
}

WeightedGraph greedy_trap_path(NodeId gadgets, double eps) {
  if (gadgets > (kInvalidNode - 1) / 4) {
    throw std::invalid_argument("greedy_trap_path: " +
                                std::to_string(gadgets) +
                                " gadgets exceed the NodeId range");
  }
  std::vector<Edge> edges;
  std::vector<double> weights;
  for (NodeId i = 0; i < gadgets; ++i) {
    const NodeId base = 4 * i;
    edges.push_back({base, base + 1});
    weights.push_back(1.0);
    edges.push_back({base + 1, base + 2});
    weights.push_back(1.0 + eps);
    edges.push_back({base + 2, base + 3});
    weights.push_back(1.0);
  }
  return make_weighted(Graph(4 * gadgets, std::move(edges)),
                       std::move(weights));
}

WeightedGraph increasing_path(NodeId n) {
  Graph g = path_graph(n);
  std::vector<double> w(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    w[e] = static_cast<double>(e + 1);
  }
  return make_weighted(std::move(g), std::move(w));
}

}  // namespace lps
