# CLI contract test for the benches' flag handling: a flag the binary
# does not read (a typo or a retired flag) or a malformed flag value
# must exit 2 with exactly one diagnostic line naming it on stderr,
# before any measurement runs, never run the defaults to exit 0 or
# abort.
#
#   cmake -DBENCH_THEOREMS=<bench_theorems> [-DBENCH_MICRO=<bench_micro>]
#         -P bench_cli_rejection.cmake
#
# Registered by the top-level CMakeLists as test `bench_cli_rejection`;
# BENCH_MICRO is passed only when google-benchmark was found.
if(NOT BENCH_THEOREMS)
  message(FATAL_ERROR "pass -DBENCH_THEOREMS=<path to bench_theorems>")
endif()

# Runs ${ARGN}, expecting exit 2 and stderr equal to the one line `line`.
function(expect_reject line)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(SEND_ERROR
        "expected exit 2, got '${code}' for: ${ARGN}\nstderr: ${err}")
  elseif(NOT err STREQUAL "${line}\n")
    message(SEND_ERROR
        "expected the one line '${line}' for: ${ARGN}\nstderr: ${err}")
  endif()
endfunction()

# A misspelled --trials ran the default 3 trials.
expect_reject("bench_theorems: unknown flag '--trails'"
              "${BENCH_THEOREMS}" --trails 1 --filter BASE --json false)
# A malformed value aborted on an uncaught exception.
expect_reject("bench_theorems: bad integer for '--trials': 'abc'"
              "${BENCH_THEOREMS}" --trials abc --json false)
if(BENCH_MICRO)
  # The retired --perf-gate ran the smoke sweep.
  expect_reject("bench_micro: unused argument '--perf-gate=BENCH_engine.json'"
                "${BENCH_MICRO}" --smoke --perf-gate=BENCH_engine.json)
  # An unparsed exponent measured a 1-node graph; 36 shifted a 32-bit 1
  # past its width.
  foreach(e abc 36)
    expect_reject(
        "bench_micro: --trace-overhead=E needs an integer E in 10..24, got '${e}'"
        "${BENCH_MICRO}" --trace-overhead=${e})
  endforeach()
endif()
