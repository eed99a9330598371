// CONGEST audit: the runtime meters every message in bits, so the
// paper's model claims are checkable numbers. This example prints, for
// growing n, the rounds and message-size profile of the Section 3.2
// engine (O(log Delta)-bit messages) next to the Section 3.1 generic
// algorithm (O(|V|+|E|)-bit messages) on the same graphs.
//
//   ./congest_audit [--kmax 3] [--seed 1]
#include <cstdio>

#include "core/bipartite_mcm.hpp"
#include "core/generic_mcm.hpp"
#include "graph/generators.hpp"
#include "util/options.hpp"

namespace {

int run(const lps::Options& opts) {
  using namespace lps;
  const int k = static_cast<int>(opts.get_count("kmax", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  opts.exit_on_bad_flags();

  std::printf("%8s %8s | %10s %14s | %10s %14s\n", "n", "m",
              "congest:R", "congest:maxbit", "local:R", "local:maxbit");
  for (const NodeId half : {32u, 64u, 128u, 256u, 512u}) {
    Rng rng(seed + half);
    const BipartiteGraph bg = random_bipartite(half, half, 4.0 / half, rng);

    BipartiteMcmOptions bo;
    bo.k = k;
    bo.seed = seed;
    const BipartiteMcmResult congest = bipartite_mcm(bg.graph, bg.side, bo);

    GenericMcmOptions go;
    go.eps = 1.0 / k;
    go.seed = seed;
    const GenericMcmResult local = generic_mcm(bg.graph, go);

    std::printf("%8u %8u | %10llu %14llu | %10llu %14llu\n",
                bg.graph.num_nodes(), bg.graph.num_edges(),
                static_cast<unsigned long long>(congest.stats.rounds),
                static_cast<unsigned long long>(
                    congest.stats.max_message_bits),
                static_cast<unsigned long long>(local.stats.rounds),
                static_cast<unsigned long long>(local.stats.max_message_bits));
  }
  std::printf("\nReading: the CONGEST engine's max message width stays flat "
              "(~ k log Delta + log n + token bits) while the LOCAL generic "
              "algorithm ships whole neighborhoods whose size grows with "
              "the graph — exactly the contrast Sections 3.1 vs 3.2 draw.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return lps::run_main(argc, argv, run); }
