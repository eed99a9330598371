# CLI contract test for tools/runner's input rejection: every unknown
# flag, every malformed flag value and every malformed spec string —
# generator, solver, solver config, fault plan, dynamic stream — must
# exit 2 with exactly one
# `runner: invalid spec:` line on stderr, never a stack trace, a zero
# exit, or a leg-dependent format.
# CTest-unfriendly to express with PASS_REGULAR_EXPRESSION (which
# overrides the exit-code check entirely), so it runs as a script:
#
#   cmake -DRUNNER=<path-to-runner-binary> -P runner_cli_rejection.cmake
#
# Registered by the top-level CMakeLists as test `runner_cli_rejection`.
if(NOT RUNNER)
  message(FATAL_ERROR "pass -DRUNNER=<path to the runner binary>")
endif()

# Runs the runner with ${ARGN}, expecting exit 2 and a one-line
# `runner: invalid spec:` diagnostic on stderr.
function(expect_reject)
  execute_process(
    COMMAND "${RUNNER}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(last_err "${err}" PARENT_SCOPE)
  if(NOT code EQUAL 2)
    message(SEND_ERROR
        "expected exit 2, got '${code}' for: ${ARGN}\nstderr: ${err}")
    return()
  endif()
  if(NOT err MATCHES "runner: invalid spec: ")
    message(SEND_ERROR
        "missing 'runner: invalid spec:' diagnostic for: ${ARGN}\n"
        "stderr: ${err}")
    return()
  endif()
  string(REGEX REPLACE "\n$" "" err_stripped "${err}")
  if(err_stripped MATCHES "\n")
    message(SEND_ERROR
        "diagnostic is not one line for: ${ARGN}\nstderr: ${err}")
  endif()
endfunction()

# Runs the runner with ${ARGN}, expecting success (exit 0).
function(expect_accept)
  execute_process(
    COMMAND "${RUNNER}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(SEND_ERROR
        "expected exit 0, got '${code}' for: ${ARGN}\nstderr: ${err}")
  endif()
endfunction()

# Missing required flags print usage and exit 2 (no diagnostic line —
# the usage text is the diagnostic).
execute_process(COMMAND "${RUNNER}" --generator path:n=8
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(SEND_ERROR "expected exit 2 without --solver, got '${code}'")
endif()

# Malformed generator spec.
expect_reject(--generator er:n=bogus --solver greedy_mcm)
expect_reject(--generator nosuchfamily:n=8 --solver greedy_mcm)
# Unknown solver.
expect_reject(--generator path:n=8 --solver nosuchsolver)
# Config key the solver does not understand.
expect_reject(--generator path:n=8 --solver israeli_itai --config bogus=1)
# Out-of-range k is rejected, never narrowed: 2^32 + 3 must not run as
# k = 3, and k = 32 would overflow general_mcm's streak stop 1 << (2k+1).
expect_reject(--generator bipartite:nx=64,ny=64,deg=3 --solver bipartite_mcm
              --config k=4294967299 --oracle none)
if(NOT last_err STREQUAL "runner: invalid spec: config: k must be in [1, 31]\n")
  message(SEND_ERROR "unexpected out-of-range k diagnostic: ${last_err}")
endif()
expect_reject(--generator er:n=64,deg=3 --solver general_mcm --config k=32
              --oracle none)
# A class_base just above 1 spreads uniform weights over ~4.5e10 weight
# classes: rejected before any class index is formed, never converted to
# int.
expect_reject(--generator er:n=64,deg=3,w=uniform --solver class_mwm
              --config class_base=1.0000000001 --oracle none)
# Generator sizes past the u32 id range are rejected where the count is
# formed, before anything is allocated: a node count a + b or rows * cols
# that wraps NodeId, and an edge count past EdgeId. A wrapped count would
# size a buffer too small for the writes that follow, and an unchecked
# one would exhaust memory.
expect_reject(--generator complete_bipartite:a=3000000000,b=3000000000
              --solver greedy_mcm --oracle none)
expect_reject(--generator grid:rows=65536,cols=65536 --solver greedy_mcm
              --oracle none)
expect_reject(--generator bipartite:nx=3000000000,ny=3000000000,deg=0
              --solver greedy_mcm --oracle none)
expect_reject(--generator bipartite_regular:nx=3000000000,ny=3000000000,d=0
              --solver greedy_mcm --oracle none)
expect_reject(--generator tight_chain:k=3,copies=1000000000
              --solver greedy_mcm --oracle none)
expect_reject(--generator complete:n=100000 --solver greedy_mcm
              --oracle none)
expect_reject(--generator er:n=100000,p=1 --solver greedy_mcm --oracle none)
# Below p = 1 the edge count is a sample, so its expectation is checked:
# p * n(n-1)/2 = 1.8e10 here, and sampling it ran out of memory.
expect_reject(--generator er:n=200000,p=0.9 --solver greedy_mcm --oracle none)
expect_reject(--generator bipartite:nx=200000,ny=200000,p=0.9
              --solver greedy_mcm --oracle none)
expect_reject(--generator greedy_trap:gadgets=1073741824 --solver greedy_mcm
              --oracle none)
# tight_chain's k is range-checked, never narrowed to int (2^32 + 3 is
# not k = 3).
expect_reject(--generator tight_chain:k=4294967299,copies=1
              --solver greedy_mcm --oracle none)
# A NaN density gets past both the empty (p <= 0) and the complete
# (p >= 1) guard, and its geometric skips never end the sampling walk.
expect_reject(--generator er:n=100,p=nan --solver greedy_mcm --oracle none)
expect_reject(--generator er:n=100,deg=nan --solver greedy_mcm --oracle none)
expect_reject(--generator bipartite:nx=10,ny=10,p=nan --solver greedy_mcm
              --oracle none)
# Fault specs: unknown preset, out-of-range probability, unknown key,
# and budget violation (drop + delay_p + dup > 1).
expect_reject(--generator path:n=8 --solver israeli_itai --faults nosuchpreset)
expect_reject(--generator path:n=8 --solver israeli_itai
              --faults bad:drop=1.5)
expect_reject(--generator path:n=8 --solver israeli_itai
              --faults bad:frobnicate=1)
expect_reject(--generator path:n=8 --solver israeli_itai
              --faults bad:drop=0.6,dup=0.6)
# Graph-layer faults require the dynamic leg.
expect_reject(--generator path:n=8 --solver israeli_itai --faults flap1)
# Message-layer faults require a solver with a `faults` config key.
expect_reject(--generator path:n=8 --solver greedy_mcm --faults drop10)
# Dynamic leg: missing stream, malformed stream, unknown maintainer.
expect_reject(--generator path:n=8 --solver greedy_mcm --dynamic greedy)
expect_reject(--generator path:n=8 --solver greedy_mcm --dynamic greedy
              --dynamic-stream churn:bogus=1)
expect_reject(--generator path:n=8 --solver greedy_mcm
              --dynamic nosuchmaintainer
              --dynamic-stream churn:n=64,m0=64,updates=16)

# Unknown flags: a typo and the retired event-log and run-ledger flags
# all fail instead of running to exit 0 with nothing written.
expect_reject(--generator path:n=8 --solver greedy_mcm --trcae t.json)
foreach(retired events ledger)
  expect_reject(--generator path:n=8 --solver greedy_mcm --${retired} off)
  if(NOT last_err STREQUAL
     "runner: invalid spec: unknown flag '--${retired}'\n")
    message(SEND_ERROR "unexpected unknown-flag diagnostic: ${last_err}")
  endif()
endforeach()

# The shard count is the engine's own (auto-sized to the L2 cache): the
# retired --shards flag and `shards=` config key are refused.
expect_reject(--generator path:n=8 --solver israeli_itai --shards 2)
if(NOT last_err STREQUAL "runner: invalid spec: unknown flag '--shards'\n")
  message(SEND_ERROR "unexpected --shards diagnostic: ${last_err}")
endif()
expect_reject(--generator path:n=8 --solver israeli_itai --config shards=4)
if(NOT last_err STREQUAL
   "runner: invalid spec: solver 'israeli_itai': unknown config key 'shards'\n")
  message(SEND_ERROR "unexpected shards= diagnostic: ${last_err}")
endif()

# Malformed flag values: read before any spec is validated, and refused
# on the same path (they used to escape as an uncaught exception and
# abort). The thread-count ceiling and negative counts are tested
# through the parse step only (test_runtime, test_util), so no test can
# start a thread even if that check regresses.
expect_reject(--generator er:n=10,deg=2 --solver greedy_mcm --seed abc)
if(NOT last_err STREQUAL "runner: invalid spec: bad integer for '--seed': 'abc'\n")
  message(SEND_ERROR "unexpected --seed abc diagnostic: ${last_err}")
endif()
expect_reject(--generator er:n=10,deg=2 --solver greedy_mcm --threads x)
# The monitor period is a count with the watchdog deadline's ceiling
# (2^31 - 1 ms): a negative period used to run with no monitor, and one
# past 2^32 ms wrapped to another period.
expect_reject(--generator er:n=10,deg=2 --solver greedy_mcm --monitor-ms -5)
if(NOT last_err STREQUAL
   "runner: invalid spec: bad count for '--monitor-ms': '-5' (negative)\n")
  message(SEND_ERROR "unexpected --monitor-ms -5 diagnostic: ${last_err}")
endif()
expect_reject(--generator er:n=10,deg=2 --solver greedy_mcm
              --monitor-ms 5000000000)

# And the contract's other half: well-formed specs still run.
expect_accept(--generator path:n=8 --solver greedy_mcm --oracle none
              --no-telemetry)
expect_accept(--generator er:n=64,deg=3 --solver israeli_itai --oracle none
              --faults drop10 --no-telemetry)
# A tiny delta saturates Lemma 4.3's iteration budget instead of
# converting ~4.5e300 to an integer (checked by the sanitizer builds).
expect_accept(--generator er:n=64,deg=3,w=uniform --solver weighted_mwm
              --config delta=1e-300,max_iterations=1 --oracle none
              --no-telemetry)
