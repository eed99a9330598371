# CLI contract test for spec errors that a bench or example finds after
# its flags parsed: an unknown solver, an out-of-range config value, a
# generator or traffic parameter the library refuses. Each must exit 2
# with exactly one `<prog>: <what>` line on stderr (util/options.hpp
# run_main), never end in an uncaught exception ("terminate called ...",
# exit 134).
#
#   cmake -DBIN_DIR=<directory of the built binaries>
#         -P spec_error_rejection.cmake
#
# Registered by the top-level CMakeLists as test `spec_error_rejection`.
if(NOT BIN_DIR)
  message(FATAL_ERROR "pass -DBIN_DIR=<directory of the built binaries>")
endif()

# Runs `prog` with ${ARGN}, expecting exit 2 and one `prog: ...` line.
function(expect_spec_error prog)
  execute_process(
    COMMAND "${BIN_DIR}/${prog}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(SEND_ERROR
        "expected exit 2, got '${code}' for: ${prog} ${ARGN}\nstderr: ${err}")
  elseif(err MATCHES "terminate called")
    message(SEND_ERROR "uncaught exception for: ${prog} ${ARGN}\n${err}")
  elseif(NOT err MATCHES "^${prog}: [^\n]+\n$")
    message(SEND_ERROR
        "expected one '${prog}: ...' line for: ${prog} ${ARGN}\nstderr: ${err}")
  endif()
endfunction()

expect_spec_error(quickstart --solver nosuch)
expect_spec_error(quickstart --config k=0)
expect_spec_error(weighted_assignment --eps -1)
expect_spec_error(weighted_assignment --degree 100)
expect_spec_error(switch_scheduling --load 7)
expect_spec_error(switch_scheduling --ports 0)
expect_spec_error(dynamic_stream --load 7)
expect_spec_error(dynamic_stream --ports 0)
expect_spec_error(congest_audit --kmax 0)
expect_spec_error(bench_faults --smoke --n 1 --json false)
expect_spec_error(bench_switch --ports 0)
