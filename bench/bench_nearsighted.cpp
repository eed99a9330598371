// Experiment NEAR — "the price of being near-sighted" (the paper cites
// Kuhn–Moscibroda–Wattenhofer [17]: any distributed algorithm needs
// Omega(sqrt(log n / log log n)) rounds for a Theta(1)-approximate
// matching). A lower bound cannot be "run", but its *phenomenon* can:
// truncate the algorithms' locality and watch the approximation decay.
//
// Two series:
//   (a) Israeli–Itai truncated to r phases: ratio vs r (round-limited
//       maximal matching construction);
//   (b) the tightness ladder: on chains whose unique augmenting path has
//       length 2k+1, an engine allowed only paths <= 2k-1 sits at
//       exactly k/(k+1) — locality (path length it can see) translates
//       one-for-one into approximation quality, the Theorem 3.8
//       trade-off made exact.
#include "bench/bench_common.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "seq/blossom.hpp"
#include "seq/hopcroft_karp.hpp"

using namespace lps;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int trials = static_cast<int>(opts.get_count("trials", 5));
  opts.exit_on_bad_flags();

  bench::print_header(
      "NEAR.a: round-truncated Israeli–Itai",
      "fewer rounds => smaller matchings; the [17] lower bound says "
      "*some* rounds are unavoidable for any constant ratio");
  Table t({"phases allowed", "rounds", "ratio (mean)", "ratio (min)",
           "maximal runs /trials"});
  Rng rng(4242);
  const Graph g = erdos_renyi(1024, 6.0 / 1024, rng);
  const double opt = static_cast<double>(blossom_mcm(g).size());
  for (const std::uint64_t phases : {1u, 2u, 3u, 4u, 6u, 10u, 20u}) {
    StreamingStats ratio;
    std::uint64_t rounds = 0;
    int maximal = 0;
    for (int trial = 0; trial < trials; ++trial) {
      IsraeliItaiOptions o;
      o.seed = 17 * trial + 5;
      o.max_phases = phases;
      const DistMatchingResult res = israeli_itai(g, o);
      ratio.add(static_cast<double>(res.matching.size()) / opt);
      rounds = res.stats.rounds;
      maximal += is_maximal_matching(g, res.matching) ? 1 : 0;
    }
    t.row();
    t.cell(static_cast<std::size_t>(phases));
    t.cell(static_cast<std::size_t>(rounds));
    t.cell(ratio.mean(), 4);
    t.cell(ratio.min(), 4);
    t.cell(std::to_string(maximal) + "/" + std::to_string(trials));
  }
  bench::print_table(t);

  bench::print_header(
      "NEAR.b: the tightness ladder (unique augmenting path of length "
      "2k+1)",
      "an engine limited to paths <= 2k-1 is stuck at exactly k/(k+1); "
      "allowing 2k+1 solves the instance — locality == quality");
  Table lt({"instance k", "engine k'", "sees paths <=", "|M|", "|M*|",
            "ratio", "exact k/(k+1)"});
  for (const int inst_k : {2, 3, 4}) {
    const TightChain chain = tight_bipartite_chain(inst_k, 24);
    Matching init = Matching::from_edges(chain.graph, chain.matched);
    const std::size_t optimum = hopcroft_karp(chain.graph, chain.side).size();
    for (const int engine_k : {inst_k, inst_k + 1}) {
      // Start from the adversarial pre-matching and run the phase
      // ladder up to l = 2*engine_k - 1 via Aug.
      Matching m = init;
      NetStats stats;
      for (int l = 1; l <= 2 * engine_k - 1; l += 2) {
        AugOptions o;
        o.seed = 7 + l;
        const AugResult res =
            bipartite_aug(chain.graph, chain.side, m, l, {}, o);
        stats.merge(res.stats);
      }
      lt.row();
      lt.cell(inst_k);
      lt.cell(engine_k);
      lt.cell(2 * engine_k - 1);
      lt.cell(m.size());
      lt.cell(optimum);
      lt.cell(static_cast<double>(m.size()) / static_cast<double>(optimum),
              4);
      lt.cell(static_cast<double>(inst_k) / (inst_k + 1), 4);
    }
  }
  bench::print_table(lt);
  return 0;
}
