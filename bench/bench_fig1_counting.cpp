// Experiment FIG1 — Figure 1 of the paper: Algorithm 3's layered path
// counting on a bipartite instance. The paper's figure shows the BFS
// progressing one layer at a time with each node annotated by the sum of
// the numbers received from the previous level; this bench regenerates
// exactly that annotation for the reconstructed instance (the published
// figure's own node/edge list is not recoverable from the paper text;
// see EXPERIMENTS.md), then cross-validates the algorithm's counts
// against a brute-force path enumerator on random bipartite graphs and
// checks the Lemma 3.6 bound n_v <= Delta^{ceil(d/2)}.
#include <cmath>

#include "bench/bench_common.hpp"
#include "core/bipartite_counting.hpp"
#include "seq/greedy.hpp"
#include "tests/helpers.hpp"

using namespace lps;

namespace {

void layer_table() {
  bench::print_header(
      "FIG1.a: layer-by-layer counts on the Figure-1-style instance",
      "each node's n_v equals the number of shortest alternating paths "
      "reaching it; free Y nodes count augmenting paths (Lemma 3.6)");
  const auto fig = lps::testing::make_fig1();
  const CountingResult res =
      count_augmenting_paths(fig.graph, fig.side, fig.matching, 3, {});
  Table t({"node", "side", "status", "depth d(v)", "n_v",
           "oracle #paths(len=d)"});
  for (NodeId v = 0; v < fig.graph.num_nodes(); ++v) {
    t.row();
    std::string name = "v";
    name += std::to_string(v);
    t.cell(name);
    t.cell(fig.side[v] == 0 ? "X" : "Y");
    t.cell(fig.matching.is_free(v) ? "free" : "matched");
    if (res.depth[v] == kUnreached) {
      t.cell("-").cell("0").cell("-");
      continue;
    }
    t.cell(static_cast<std::size_t>(res.depth[v]));
    t.cell(res.total[v].to_string());
    if (res.is_path_endpoint(v)) {
      t.cell(count_paths_oracle(fig.graph, fig.side, fig.matching, v,
                                static_cast<int>(res.depth[v]), {}));
    } else {
      t.cell("-");
    }
  }
  bench::print_table(t);
}

void random_cross_check() {
  bench::print_header(
      "FIG1.b: algorithm counts vs brute-force enumeration (random "
      "bipartite, shortest-depth endpoints)",
      "Lemma 3.6 equality at the shortest augmenting-path length");
  Table t({"n", "p", "seed", "endpoints checked", "count mismatches",
           "max n_v", "max msg bits"});
  for (const NodeId half : {16u, 24u, 32u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      const auto bg = random_bipartite(half, half, 3.0 / half, rng);
      Matching m = greedy_mcm(bg.graph);
      auto ids = m.edge_ids(bg.graph);
      for (std::size_t i = 0; i < ids.size(); i += 4) {
        m.remove(bg.graph, ids[i]);
      }
      const CountingResult res =
          count_augmenting_paths(bg.graph, bg.side, m, 7, {});
      std::uint32_t shortest = kUnreached;
      for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
        if (res.is_path_endpoint(v)) {
          shortest = std::min(shortest, res.depth[v]);
        }
      }
      std::size_t checked = 0, mismatches = 0;
      double max_nv = 0;
      for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
        if (!res.is_path_endpoint(v)) continue;
        max_nv = std::max(max_nv, res.total[v].to_double());
        if (res.depth[v] != shortest) continue;
        ++checked;
        const std::uint64_t oracle =
            count_paths_oracle(bg.graph, bg.side, m, v,
                               static_cast<int>(shortest), {});
        if (res.total[v].to_u64() != oracle) ++mismatches;
      }
      t.row();
      t.cell(static_cast<std::size_t>(2 * half));
      t.cell(3.0 / half, 3);
      t.cell(static_cast<std::size_t>(seed));
      t.cell(checked);
      t.cell(mismatches);
      t.cell(max_nv, 4);
      t.cell(static_cast<std::size_t>(res.stats.max_message_bits));
    }
  }
  bench::print_table(t);
}

void lemma36_bound() {
  bench::print_header(
      "FIG1.c: Lemma 3.6 bound n_v <= Delta^{ceil(d/2)} and the message "
      "width it implies",
      "counts fit in O(l log Delta) bits, so CONGEST chunks of O(log "
      "Delta) bits suffice (Lemma 3.7)");
  Table t({"n", "Delta", "l", "max n_v (log2)", "bound log2", "max msg bits",
           "l*log2(Delta)+slack"});
  for (const NodeId half : {32u, 64u, 128u}) {
    Rng rng(half);
    const auto bg = random_bipartite(half, half, 6.0 / half, rng);
    Matching m = greedy_mcm(bg.graph);
    auto ids = m.edge_ids(bg.graph);
    for (std::size_t i = 0; i < ids.size(); i += 3) m.remove(bg.graph, ids[i]);
    const int l = 7;
    const CountingResult res =
        count_augmenting_paths(bg.graph, bg.side, m, l, {});
    double max_log = 0, bound_log = 0;
    for (NodeId v = 0; v < bg.graph.num_nodes(); ++v) {
      if (res.depth[v] == kUnreached || res.total[v].is_zero()) continue;
      max_log = std::max(max_log, res.total[v].log2());
      bound_log = std::max(
          bound_log, std::ceil(res.depth[v] / 2.0) *
                         std::log2(static_cast<double>(bg.graph.max_degree())));
    }
    t.row();
    t.cell(static_cast<std::size_t>(2 * half));
    t.cell(static_cast<std::size_t>(bg.graph.max_degree()));
    t.cell(l);
    t.cell(max_log, 4);
    t.cell(bound_log, 4);
    t.cell(static_cast<std::size_t>(res.stats.max_message_bits));
    t.cell(l * std::log2(static_cast<double>(bg.graph.max_degree())) + 10, 4);
  }
  bench::print_table(t);
}

}  // namespace

int main() {
  layer_table();
  random_cross_check();
  lemma36_bound();
  return 0;
}
