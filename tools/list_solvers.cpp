// Dump every registered solver's name, capabilities, default guarantee,
// and description, plus the LCA oracle pairings — the machine-checkable
// inventory the CI smoke step runs and the README table is generated
// from.
//
//   ./list_solvers [--csv]
#include <cstdio>
#include <string>

#include "api/registry.hpp"
#include "lca/oracle.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace lps;
  const Options opts(argc, argv);
  const bool csv = opts.get_bool("csv", false);
  opts.exit_on_bad_flags();

  Table t({"name", "capabilities", "guarantee", "lca oracle", "description"});
  for (const std::string& name : api::SolverRegistry::global().names()) {
    const api::MatchingSolver& s = api::SolverRegistry::global().at(name);
    const api::Capabilities caps = s.capabilities();
    std::string cap_str;
    const auto flag = [&cap_str](bool on, const char* label) {
      if (!on) return;
      if (!cap_str.empty()) cap_str += ",";
      cap_str += label;
    };
    flag(caps.bipartite, "bipartite");
    flag(caps.general, "general");
    flag(caps.weighted, "weighted");
    flag(caps.distributed, "distributed");
    flag(caps.exact, "exact");
    flag(caps.maximal, "maximal");
    flag(caps.primitive, "primitive");
    const double g = s.guarantee(api::SolverConfig());
    char g_str[32];
    std::snprintf(g_str, sizeof(g_str), "%.4f", g);
    t.row();
    t.cell(name);
    t.cell(cap_str);
    t.cell(g > 0.0 ? g_str : "-");
    t.cell(lca::has_oracle(name) ? "yes" : "-");
    t.cell(s.description());
  }

  if (csv) {
    t.print_csv(std::cout);
  } else {
    std::printf("%zu registered solvers:\n\n", t.num_rows());
    t.print_markdown(std::cout);
  }
  return 0;
}
