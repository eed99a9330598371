// trace_summary: fold a Chrome-trace JSON (written by --trace on the
// runner/benches) into a text report, or validate it for CI.
//
//   trace_summary out.json              # report: top spans, round
//                                       # percentiles, shard imbalance,
//                                       # event-instant counts per kind
//   trace_summary --check out.json      # validate; exit 0/1
//
// --check accepts any well-formed Chrome trace; the report additionally
// understands the engine span taxonomy (engine.round / engine.exchange.p2
// with shard args) when present. The typed event instants (cat "event",
// telemetry::EventKind) are audited as well: every kind is in the
// closed vocabulary and carries its args, ts never decreases on one
// tid, and — the recovery invariant — every `crash` vertex has a later
// `revive` (a vertex may flap: crash, revive, crash, revive).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"

namespace {

using lps::telemetry::TraceDoc;
using lps::telemetry::TraceSpan;

double percentile(std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted_values.size() - 1) + 0.5);
  return sorted_values[std::min(rank, sorted_values.size() - 1)];
}

int report(const TraceDoc& doc, const std::string& path) {
  std::printf("trace: %s\n", path.c_str());
  std::printf("events: %zu (%zu threads named)\n\n", doc.spans.size(),
              doc.thread_names.size());

  // Top spans by total duration.
  struct Agg {
    std::size_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceSpan& s : doc.spans) {
    if (s.ph != 'X') continue;
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_us += s.dur_us;
    a.max_us = std::max(a.max_us, s.dur_us);
  }
  std::vector<std::pair<std::string, Agg>> ranked(by_name.begin(),
                                                  by_name.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("%-24s %10s %14s %12s %12s\n", "span", "count", "total_ms",
              "mean_us", "max_us");
  for (std::size_t i = 0; i < ranked.size() && i < 12; ++i) {
    const auto& [name, a] = ranked[i];
    std::printf("%-24s %10zu %14.3f %12.2f %12.2f\n", name.c_str(), a.count,
                a.total_us / 1000.0,
                a.total_us / static_cast<double>(a.count), a.max_us);
  }

  // Round-time percentiles from engine.round spans.
  std::vector<double> rounds;
  for (const TraceSpan& s : doc.spans) {
    if (s.name == "engine.round") rounds.push_back(s.dur_us);
  }
  if (!rounds.empty()) {
    std::sort(rounds.begin(), rounds.end());
    double total = 0.0;
    for (const double r : rounds) total += r;
    std::printf(
        "\nengine rounds: %zu  mean %.2f us  p50 %.2f  p90 %.2f  p99 %.2f  "
        "max %.2f\n",
        rounds.size(), total / static_cast<double>(rounds.size()),
        percentile(rounds, 50), percentile(rounds, 90), percentile(rounds, 99),
        rounds.back());
  }

  // Per-shard imbalance from engine.exchange.p2 spans' shard arg.
  std::map<std::uint64_t, double> shard_us;
  for (const TraceSpan& s : doc.spans) {
    if (s.name != "engine.exchange.p2") continue;
    const auto it = s.args.find("shard");
    if (it == s.args.end()) continue;
    shard_us[static_cast<std::uint64_t>(it->second)] += s.dur_us;
  }
  if (!shard_us.empty()) {
    double total = 0.0;
    double max_us = 0.0;
    std::uint64_t hottest = 0;
    for (const auto& [shard, us] : shard_us) {
      total += us;
      if (us > max_us) {
        max_us = us;
        hottest = shard;
      }
    }
    const double mean = total / static_cast<double>(shard_us.size());
    std::printf(
        "shard exchange: %zu shards  mean %.2f us  hottest #%llu %.2f us  "
        "imbalance %.2fx\n",
        shard_us.size(), mean, static_cast<unsigned long long>(hottest),
        max_us, mean > 0.0 ? max_us / mean : 0.0);
  }

  // Event instants per kind.
  std::map<std::string, std::size_t> kinds;
  for (const TraceSpan& s : doc.spans) {
    if (s.cat == "event") ++kinds[s.name];
  }
  if (!kinds.empty()) {
    std::printf("\n%-12s %10s\n", "event", "count");
    for (const auto& [kind, count] : kinds) {
      std::printf("%-12s %10zu\n", kind.c_str(), count);
    }
  }
  return 0;
}

/// Audit the event instants (see the header); returns "" when they are
/// sound, else the first violation.
std::string audit_events(const TraceDoc& doc) {
  std::map<std::string, std::array<const char*, lps::telemetry::kMaxArgs>>
      vocabulary;
  for (unsigned k = 0; k < lps::telemetry::kEventKinds; ++k) {
    const auto kind = static_cast<lps::telemetry::EventKind>(k);
    vocabulary[lps::telemetry::event_kind_name(kind)] =
        lps::telemetry::event_arg_names(kind);
  }
  std::map<std::uint32_t, double> last_ts;  // per tid
  std::vector<const TraceSpan*> flaps;      // crash/revive instants
  for (std::size_t i = 0; i < doc.spans.size(); ++i) {
    const TraceSpan& s = doc.spans[i];
    if (s.cat != "event") continue;
    const std::string where =
        "event " + std::to_string(i) + " '" + s.name + "'";
    const auto kind = vocabulary.find(s.name);
    if (s.ph != 'i' || kind == vocabulary.end()) {
      return where + " is not an instant of the event vocabulary";
    }
    for (const char* arg : kind->second) {
      if (arg != nullptr && s.args.count(arg) == 0) {
        return where + " lacks arg '" + arg + "'";
      }
    }
    const auto [prev, first] = last_ts.emplace(s.tid, s.ts_us);
    if (!first && s.ts_us < prev->second) {
      return where + " goes back in time on tid " + std::to_string(s.tid);
    }
    prev->second = s.ts_us;
    if (s.name == "crash" || s.name == "revive") flaps.push_back(&s);
  }
  // Pair on the merged timeline; a stable sort keeps each thread's
  // emission order among equal stamps.
  std::stable_sort(flaps.begin(), flaps.end(),
                   [](const TraceSpan* a, const TraceSpan* b) {
                     return a->ts_us < b->ts_us;
                   });
  std::map<std::uint64_t, std::int64_t> down;  // vertex -> outstanding
  for (const TraceSpan* s : flaps) {
    const auto v = static_cast<std::uint64_t>(s->args.at("vertex"));
    if (s->name == "crash") {
      ++down[v];
    } else if (--down[v] < 0) {
      return "revive of vertex " + std::to_string(v) +
             " without a preceding crash";
    }
  }
  for (const auto& [v, outstanding] : down) {
    if (outstanding != 0) {
      return "vertex " + std::to_string(v) +
             " crashed without a matching revive";
    }
  }
  return "";
}

int check(const TraceDoc& doc, const std::string& path) {
  // Structure already validated by the loader; enforce the invariants
  // the writer guarantees on top of bare well-formedness.
  for (std::size_t i = 0; i < doc.spans.size(); ++i) {
    const TraceSpan& s = doc.spans[i];
    if (s.ts_us < 0.0 || (s.ph == 'X' && s.dur_us < 0.0)) {
      std::fprintf(stderr, "trace_summary: %s: event %zu has negative ts/dur\n",
                   path.c_str(), i);
      return 1;
    }
    if (s.name.empty()) {
      std::fprintf(stderr, "trace_summary: %s: event %zu has empty name\n",
                   path.c_str(), i);
      return 1;
    }
  }
  const std::string bad = audit_events(doc);
  if (!bad.empty()) {
    std::fprintf(stderr, "trace_summary: %s: %s\n", path.c_str(), bad.c_str());
    return 1;
  }
  std::printf("%s: ok (%zu events)\n", path.c_str(), doc.spans.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_only = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: trace_summary [--check] <trace.json>\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "trace_summary: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "trace_summary: more than one input file\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: trace_summary [--check] <trace.json>\n");
    return 2;
  }
  TraceDoc doc;
  std::string error;
  if (!lps::telemetry::load_chrome_trace_file(path, doc, &error)) {
    std::fprintf(stderr, "trace_summary: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  return check_only ? check(doc, path) : report(doc, path);
}
