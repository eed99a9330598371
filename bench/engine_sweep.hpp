// Engine round-throughput sweep, overhead gate and smoke checks behind
// bench_micro's custom CLI modes (--engine-json, --shard-sweep,
// --trace-overhead, --smoke).
//
// This lives in its own translation unit on purpose: the engine's
// run_round<EngineStep> instantiation is the measured hot loop, and
// compiling it inside the large google-benchmark TU costs ~25% ns/msg
// at n=2^20 (code-layout/I-cache effects on this inliner-heavy TU —
// measured, not theorized; see DESIGN.md §15). bench_micro.cpp keeps
// the BM_* microbenchmarks and calls through the non-inline
// bench_detail::engine_round so the hot instantiation is emitted only
// here.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/engine.hpp"

namespace lps {

// Light-traffic round workload shared by BM_EngineRound, --engine-json
// and --smoke: every 8th node sends one message on its first edge and
// keeps itself active; everyone else only wakes when a message arrives.
// Under active-set scheduling the per-round cost tracks those ~n/4
// touched nodes, not n + m.
struct EngineMsg {
  std::uint32_t x;
};
using EngineNet = SyncNetwork<EngineMsg, DefaultBitMeter<EngineMsg>>;

namespace bench_detail {
// One EngineStep round on `net`. Non-inline so callers in other TUs
// (BM_EngineRound) reuse this TU's instantiation of run_round.
void engine_round(EngineNet& net);
}  // namespace bench_detail

int run_engine_sweep(const std::string& json_path, bool smoke);
int run_shard_sweep();
int run_trace_overhead(unsigned nexp);
int run_smoke_checks();

}  // namespace lps
