// Experiment REMARK — Section 4's closing remark: "(1-eps)-MWM can be
// obtained in O(eps^-4 log^2 n) time, using messages of linear size, by
// adapting the PRAM algorithm of Hougardy and Vinkemeier [14] ... using
// Algorithm 2."
//
// Regenerated series: for beta = 1..4 (eps = 1/(beta+1)), the fixed
// point of the beta-augmentation local search: achieved ratio vs the
// certified beta/(beta+1) floor, phases to convergence, physical rounds,
// and the LOCAL-model message widths (linear-size, per the remark).
#include "bench/bench_common.hpp"
#include "core/beta_augment.hpp"
#include "seq/exact_small.hpp"
#include "seq/hungarian.hpp"

using namespace lps;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int trials = static_cast<int>(opts.get_count("trials", 3));
  opts.exit_on_bad_flags();

  bench::print_header(
      "REMARK: (1-eps)-MWM via beta-augmentations (Hougardy–Vinkemeier "
      "adaptation through Algorithm 2)",
      "fixed point with no positive beta-augmentation => w(M) >= "
      "beta/(beta+1) w(M*) (via the paper's Lemma 4.2); messages of "
      "linear size");

  Table t({"workload", "beta", "floor b/(b+1)", "ratio (min)",
           "phases (mean)", "rounds (mean)", "max msg bits"});
  struct W {
    std::string name;
    NodeId n;
    bool bipartite;
  };
  for (const W& wl : {W{"bipartite ER n=64", 64, true},
                      W{"general ER n=48", 48, false}}) {
    for (const int beta : {1, 2, 3}) {
      double min_ratio = 2.0;
      StreamingStats phases, rounds;
      std::uint64_t max_bits = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(1200 + wl.n * 3 + trial);
        WeightedGraph wg = [&] {
          if (wl.bipartite) {
            auto bg = random_bipartite(wl.n / 2, wl.n / 2, 6.0 / wl.n, rng);
            auto w = uniform_weights(bg.graph.num_edges(), 1.0, 50.0, rng);
            return make_weighted(std::move(bg.graph), std::move(w));
          }
          Graph g = erdos_renyi(wl.n, 5.0 / wl.n, rng);
          auto w = uniform_weights(g.num_edges(), 1.0, 50.0, rng);
          return make_weighted(std::move(g), std::move(w));
        }();
        LocalMwmOptions o;
        o.beta = beta;
        const LocalMwmResult res = local_mwm(wg, o);
        double opt = -1;
        if (wl.bipartite) {
          const auto side = wg.graph.bipartition();
          opt = hungarian_mwm(wg, *side).weight(wg);
        } else {
          opt = bench::mwm_upper_bound(wg);  // certified upper bound
        }
        if (opt > 0) {
          min_ratio = std::min(min_ratio, res.matching.weight(wg) / opt);
        }
        phases.add(static_cast<double>(res.phases));
        rounds.add(static_cast<double>(res.stats.rounds));
        max_bits = std::max(max_bits, res.stats.max_message_bits);
      }
      t.row();
      t.cell(wl.name + (wl.bipartite ? " (exact OPT)" : " (certified)"));
      t.cell(beta);
      t.cell(static_cast<double>(beta) / (beta + 1), 4);
      t.cell(min_ratio, 4);
      t.cell(phases.mean(), 4);
      t.cell(rounds.mean(), 5);
      t.cell(static_cast<std::size_t>(max_bits));
    }
  }
  bench::print_table(t);

  bench::print_header(
      "REMARK.b: the greedy trap across beta",
      "beta = 1 is wrap-limited (~1/2 on trapped gadgets); beta >= 2 "
      "repairs every gadget");
  Table trap({"beta", "weight", "optimum", "ratio"});
  const WeightedGraph wg = greedy_trap_path(16, 0.01);
  for (const int beta : {1, 2, 3}) {
    LocalMwmOptions o;
    o.beta = beta;
    const LocalMwmResult res = local_mwm(wg, o);
    trap.row();
    trap.cell(beta);
    trap.cell(res.matching.weight(wg), 5);
    trap.cell(32.0, 4);
    trap.cell(res.matching.weight(wg) / 32.0, 4);
  }
  bench::print_table(trap);
  return 0;
}
