// The paper's motivating application, runnable: an input-queued switch
// whose crossbar is driven by a choice of matching scheduler — including
// this paper's distributed (1-1/(k+1))-MCM engine.
//
//   ./switch_scheduling [--ports 16] [--load 0.9] [--slots 20000]
//                       [--pattern uniform|diagonal|logdiagonal|hotspot]
//                       [--scheduler pim|islip|greedy|distmcm|maxsize|maxweight]
#include <cstdio>
#include <memory>
#include <string>

#include "switch/voq.hpp"
#include "util/options.hpp"

namespace {

int run(const lps::Options& opts) {
  using namespace lps;
  SwitchConfig cfg;
  cfg.ports = static_cast<std::size_t>(opts.get_count("ports", 16));
  cfg.load = opts.get_double("load", 0.9);
  cfg.slots = opts.get_count("slots", 20000);
  cfg.warmup = cfg.slots / 10;
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const std::string pattern = opts.get("pattern", "uniform");
  const std::string name = opts.get("scheduler", "distmcm");
  opts.exit_on_bad_flags();

  if (pattern == "uniform") cfg.pattern = TrafficPattern::kUniform;
  else if (pattern == "diagonal") cfg.pattern = TrafficPattern::kDiagonal;
  else if (pattern == "logdiagonal") cfg.pattern = TrafficPattern::kLogDiagonal;
  else if (pattern == "hotspot") cfg.pattern = TrafficPattern::kHotspot;
  else {
    std::fprintf(stderr, "unknown pattern: %s\n", pattern.c_str());
    return 1;
  }

  std::unique_ptr<Scheduler> scheduler;
  if (name == "pim") scheduler = std::make_unique<PimScheduler>(4, cfg.seed);
  else if (name == "islip") scheduler = std::make_unique<IslipScheduler>(4);
  else if (name == "greedy") scheduler = std::make_unique<GreedyScheduler>();
  else if (name == "distmcm")
    scheduler = std::make_unique<DistMcmScheduler>(2, cfg.seed);
  else if (name == "maxsize") scheduler = std::make_unique<MaxSizeScheduler>();
  else if (name == "maxweight")
    scheduler = std::make_unique<MaxWeightScheduler>();
  else {
    std::fprintf(stderr, "unknown scheduler: %s\n", name.c_str());
    return 1;
  }

  std::printf("switch: %zu ports, load %.2f, pattern %s, scheduler %s, "
              "%llu slots\n",
              cfg.ports, cfg.load, to_string(cfg.pattern).c_str(),
              scheduler->name().c_str(),
              static_cast<unsigned long long>(cfg.slots));
  const SwitchMetrics m = run_switch(cfg, *scheduler);
  std::printf("  arrived %llu cells, delivered %llu\n",
              static_cast<unsigned long long>(m.arrived),
              static_cast<unsigned long long>(m.delivered));
  std::printf("  normalized throughput: %.4f\n", m.normalized_throughput);
  std::printf("  mean delay: %.2f slots   p99 delay: %.2f slots\n",
              m.mean_delay, m.p99_delay);
  std::printf("  mean queue occupancy: %.1f cells\n", m.mean_queue);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return lps::run_main(argc, argv, run); }
