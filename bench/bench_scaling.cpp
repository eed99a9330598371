// Experiment SCALING — the round-complexity shapes across all four
// algorithm families on a common n-sweep (sparse random graphs of
// constant average degree): O(log n) growth means the rounds/log2(n)
// column stays flat while n doubles. Hoepman's deterministic protocol
// on the adversarial increasing path is included as the Theta(n)
// contrast the paper's related-work table draws.
#include "bench/bench_common.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/hoepman_mwm.hpp"
#include "core/israeli_itai.hpp"
#include "core/weighted_mwm.hpp"

using namespace lps;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int trials = static_cast<int>(opts.get_count("trials", 3));
  opts.exit_on_bad_flags();

  bench::print_header(
      "SCALING.a: rounds vs n (sparse ER / bipartite, mean over seeds)",
      "O(log n) round growth for the randomized algorithms");
  Table t({"n", "II rounds", "II /lg n", "T3.8 rounds", "T3.8 /lg n",
           "T4.5 rounds", "T4.5 /lg n"});
  for (const NodeId n : {256u, 512u, 1024u, 2048u, 4096u}) {
    StreamingStats ii, bip, wmwm;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(100 + n + trial);
      {
        const Graph g = erdos_renyi(n, 4.0 / n, rng);
        IsraeliItaiOptions o;
        o.seed = trial + 1;
        ii.add(static_cast<double>(israeli_itai(g, o).stats.rounds));
      }
      {
        const auto bg = random_bipartite(n / 2, n / 2, 4.0 / n * 2, rng);
        BipartiteMcmOptions o;
        o.k = 2;
        o.seed = trial + 2;
        bip.add(static_cast<double>(
            bipartite_mcm(bg.graph, bg.side, o).stats.rounds));
      }
      {
        Graph g = erdos_renyi(n, 4.0 / n, rng);
        auto w = uniform_weights(g.num_edges(), 1.0, 100.0, rng);
        const WeightedGraph wg = make_weighted(std::move(g), std::move(w));
        WeightedMwmOptions o;
        o.eps = 0.1;
        o.seed = trial + 3;
        wmwm.add(static_cast<double>(weighted_mwm(wg, o).stats.rounds));
      }
    }
    const double lg = std::log2(static_cast<double>(n));
    t.row();
    t.cell(static_cast<std::size_t>(n));
    t.cell(ii.mean(), 5);
    t.cell(ii.mean() / lg, 4);
    t.cell(bip.mean(), 5);
    t.cell(bip.mean() / lg, 4);
    t.cell(wmwm.mean(), 5);
    t.cell(wmwm.mean() / lg, 4);
  }
  bench::print_table(t);

  bench::print_header(
      "SCALING.b: deterministic Hoepman [11] on the increasing path",
      "Theta(n) rounds — the O(n) entry in the paper's related work, "
      "and the reason randomization buys O(log n)");
  Table h({"n", "rounds", "rounds/n", "II rounds on same path (mean)"});
  for (const NodeId n : {128u, 256u, 512u, 1024u}) {
    const WeightedGraph wg = increasing_path(n);
    const HoepmanResult res = hoepman_mwm(wg);
    StreamingStats ii;
    for (int trial = 0; trial < trials; ++trial) {
      IsraeliItaiOptions o;
      o.seed = trial + 9;
      ii.add(static_cast<double>(israeli_itai(wg.graph, o).stats.rounds));
    }
    h.row();
    h.cell(static_cast<std::size_t>(n));
    h.cell(static_cast<std::size_t>(res.stats.rounds));
    h.cell(static_cast<double>(res.stats.rounds) / n, 4);
    h.cell(ii.mean(), 5);
  }
  bench::print_table(h);
  return 0;
}
