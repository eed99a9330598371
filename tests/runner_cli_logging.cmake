# CLI contract test for tools/runner's --log-level (PR 9 satellite):
# stdout carries exactly one JSON line at every level, the informational
# stderr notes appear at info and vanish at quiet, debug adds the
# resolved-spec echo, and an unknown level is rejected exit-2 with a
# one-line diagnostic. Script form for the same reason as
# runner_cli_rejection.cmake: the contract is exit code *and* stream
# shape, which PASS_REGULAR_EXPRESSION cannot pin.
#
#   cmake -DRUNNER=<path-to-runner-binary> -P runner_cli_logging.cmake
#
# Registered by the top-level CMakeLists as test `runner_cli_logging`.
if(NOT RUNNER)
  message(FATAL_ERROR "pass -DRUNNER=<path to the runner binary>")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/runner_cli_logging_out")
file(REMOVE_RECURSE "${workdir}")
file(MAKE_DIRECTORY "${workdir}")

# Runs the runner at ${level} with a valid spec + --json-dir; checks
# exit 0 and that stdout is exactly one JSON object line. Leaves stderr
# in ${err_out} for the caller's level-specific checks.
function(run_level level err_out)
  execute_process(
    COMMAND "${RUNNER}" --generator path:n=8 --solver greedy_mcm
            --oracle none --json-dir "${workdir}/${level}"
            --log-level ${level}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(SEND_ERROR
        "--log-level ${level}: expected exit 0, got '${code}'\nstderr: ${err}")
  endif()
  string(REGEX REPLACE "\n$" "" out_stripped "${out}")
  if(out_stripped MATCHES "\n")
    message(SEND_ERROR
        "--log-level ${level}: stdout is not one line:\n${out}")
  endif()
  if(NOT out_stripped MATCHES "^\\{.*\\}$")
    message(SEND_ERROR
        "--log-level ${level}: stdout is not a JSON object line:\n${out}")
  endif()
  set(${err_out} "${err}" PARENT_SCOPE)
endfunction()

# info (the default-equivalent level) keeps the file-written note.
run_level(info info_err)
if(NOT info_err MATCHES "wrote ")
  message(SEND_ERROR
      "--log-level info: missing 'wrote' note on stderr:\n${info_err}")
endif()

# quiet drops every informational note — stderr is empty on success.
run_level(quiet quiet_err)
if(quiet_err MATCHES "wrote ")
  message(SEND_ERROR
      "--log-level quiet: 'wrote' note leaked to stderr:\n${quiet_err}")
endif()

# debug adds the one-line resolved-spec echo (and keeps the notes).
run_level(debug debug_err)
if(NOT debug_err MATCHES "runner: spec: generator=path:n=8")
  message(SEND_ERROR
      "--log-level debug: missing spec echo on stderr:\n${debug_err}")
endif()
if(NOT debug_err MATCHES "wrote ")
  message(SEND_ERROR
      "--log-level debug: missing 'wrote' note on stderr:\n${debug_err}")
endif()

# Unknown level: exit 2, one-line `runner: invalid spec:` diagnostic,
# nothing on stdout.
execute_process(
  COMMAND "${RUNNER}" --generator path:n=8 --solver greedy_mcm
          --oracle none --log-level verbose
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(SEND_ERROR
      "unknown log level: expected exit 2, got '${code}'\nstderr: ${err}")
endif()
if(NOT err MATCHES "runner: invalid spec: unknown log level 'verbose'")
  message(SEND_ERROR "unknown log level: wrong diagnostic:\n${err}")
endif()
string(REGEX REPLACE "\n$" "" err_stripped "${err}")
if(err_stripped MATCHES "\n")
  message(SEND_ERROR "unknown log level: diagnostic is not one line:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(SEND_ERROR "unknown log level: stdout not empty:\n${out}")
endif()
