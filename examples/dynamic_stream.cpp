// Example: replay switch VOQ traffic through the dynamic matching
// engine. Instead of re-scheduling the crossbar from scratch every
// timeslot (what examples/switch_scheduling.cpp does), the request
// graph lives in a DynamicMatcher: arrivals insert edges, drained VOQs
// delete them, and each slot serves the *maintained* matching — the
// previous slot's schedule locally repaired. Prints throughput and
// recourse per maintainer, plus a plain churn-trace replay for scale.
//
//   ./dynamic_stream [--ports 16] [--slots 20000] [--load 0.85]
#include <iostream>

#include "dynamic/matcher.hpp"
#include "dynamic/stream.hpp"
#include "dynamic/switch_adapter.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace lps;

namespace {

int run(const Options& opts) {
  dynamic::SwitchReplayConfig config;
  config.ports = static_cast<std::size_t>(opts.get_count("ports", 16));
  config.slots = opts.get_count("slots", 20000);
  config.load = opts.get_double("load", 0.85);
  opts.exit_on_bad_flags();
  config.pattern = TrafficPattern::kUniform;
  config.seed = 7;

  std::cout << "## Switch traffic as an update stream (" << config.ports
            << " ports, load " << config.load << ", " << config.slots
            << " slots)\n\n";
  Table t({"maintainer", "throughput", "mean matching", "updates/slot",
           "recourse/update", "updates total"});
  for (const char* name : {"greedy", "repair"}) {
    auto matcher = dynamic::make_matcher(
        name, dynamic::make_port_graph(config.ports),
        name == std::string("repair")
            ? std::map<std::string, std::string>{{"interval", "4"}}
            : std::map<std::string, std::string>{});
    const dynamic::SwitchReplayMetrics m =
        dynamic::replay_switch(*matcher, config);
    t.row();
    t.cell(name);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", m.normalized_throughput);
    t.cell(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", m.mean_matching);
    t.cell(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", m.updates_per_slot);
    t.cell(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", m.recourse_per_update);
    t.cell(buf);
    t.cell(static_cast<std::size_t>(m.updates));
  }
  t.print_markdown(std::cout);

  // And a generated churn trace, the update-stream front door.
  std::cout << "\n## Uniform churn trace through the greedy maintainer\n\n";
  const dynamic::StreamSpec stream = dynamic::make_update_stream(
      "churn:n=4096,m0=8192,updates=20000,vertex=0.01", 42);
  auto matcher =
      dynamic::make_matcher("greedy", dynamic::DynamicGraph(stream.initial_nodes));
  matcher->apply_trace(stream.trace);
  matcher->flush();
  std::cout << "applied " << matcher->stats().updates << " updates, matching "
            << matcher->matching_size() << " over "
            << matcher->graph().num_live_edges() << " live edges, recourse/update "
            << static_cast<double>(matcher->stats().recourse) /
                   static_cast<double>(matcher->stats().updates)
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
