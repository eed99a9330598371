# The run record's provenance.git_sha names the commit the runner was
# built from: it must equal `git rev-parse --short=12 HEAD` of the source
# tree, however the build directory was configured. Prints a "SKIP:"
# line (the test's SKIP_REGULAR_EXPRESSION) when git or the repository
# is absent.
#
#   cmake -DRUNNER=<runner> -DSOURCE_DIR=<checkout> -P runner_provenance_sha.cmake
#
# Registered by the top-level CMakeLists as test `runner_provenance_sha`.
if(NOT RUNNER OR NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DRUNNER=<runner binary> -DSOURCE_DIR=<checkout>")
endif()

execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE head
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT code EQUAL 0 OR NOT head)
  message(STATUS "SKIP: no git repository at ${SOURCE_DIR}")
  return()
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/runner_provenance_sha_out")
file(REMOVE_RECURSE "${workdir}")
execute_process(
  COMMAND "${RUNNER}" --generator path:n=8 --solver greedy_mcm
          --oracle none --json-dir "${workdir}" --log-level quiet
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "runner exited '${code}'\nstderr: ${err}")
endif()
string(JSON sha ERROR_VARIABLE json_err GET "${out}" provenance git_sha)
if(json_err)
  message(FATAL_ERROR "no provenance.git_sha in the record: ${json_err}\n${out}")
endif()
if(NOT sha STREQUAL head)
  message(FATAL_ERROR
      "the record's git_sha '${sha}' is not HEAD '${head}': the build "
      "stamped a stale commit")
endif()
