// Run provenance: the build/environment facts stamped into every
// per-run JSON record so bench/out artifacts can be compared across
// PRs (same generator spec, different git SHA => a real regression;
// different build type => apples to oranges).
#pragma once

#include <string>

#include "util/json.hpp"

namespace lps::api {

struct Provenance {
  std::string git_sha;     // configure-time HEAD ("unknown" outside git)
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  unsigned threads = 0;    // resolved worker count of the run
  std::string timestamp_utc;  // ISO-8601 UTC, per record
};

/// Compile-time facts plus a fresh timestamp; `threads` is the run's
/// resolved worker count (spec.threads with 0 already expanded).
Provenance current_provenance(unsigned threads);

/// The nested object the runner embeds under the "provenance" key.
JsonObject provenance_json(const Provenance& p);

}  // namespace lps::api
