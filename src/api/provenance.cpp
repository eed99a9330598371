#include "api/provenance.hpp"

#include <chrono>
#include <cstdint>
#include <ctime>

// LPS_GIT_SHA: HEAD when the library was last built ("unknown" outside
// git), written by the build's lps_git_sha target (CMakeLists.txt).
#include "lps_git_sha.hpp"

namespace lps::api {

// LPS_BUILD_TYPE is injected by CMake at configure time (see
// CMakeLists.txt).
#ifndef LPS_BUILD_TYPE
#ifdef NDEBUG
#define LPS_BUILD_TYPE "release-unconfigured"
#else
#define LPS_BUILD_TYPE "debug-unconfigured"
#endif
#endif

Provenance current_provenance(unsigned threads) {
  Provenance p;
  p.git_sha = LPS_GIT_SHA;
  p.build_type = LPS_BUILD_TYPE;
  p.threads = threads;
  const std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  p.timestamp_utc = buf;
  return p;
}

JsonObject provenance_json(const Provenance& p) {
  JsonObject o;
  o.add("git_sha", p.git_sha)
      .add("build_type", p.build_type)
      .add("threads", static_cast<std::uint64_t>(p.threads))
      .add("timestamp_utc", p.timestamp_utc);
  return o;
}

}  // namespace lps::api
