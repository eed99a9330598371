# Writes the git SHA of SOURCE_DIR's HEAD (12 hex digits; "unknown" when
# git or the repository is absent) into the header OUT as LPS_GIT_SHA.
# OUT is rewritten only when the SHA changed, so the one source that
# includes it (src/api/provenance.cpp) recompiles only then.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUT=<header> -P git_sha.cmake
#
# Run on every build by the top-level CMakeLists' lps_git_sha target.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT code EQUAL 0 OR NOT sha)
  set(sha "unknown")
endif()
set(content "#define LPS_GIT_SHA \"${sha}\"\n")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
  if(old STREQUAL content)
    return()
  endif()
endif()
file(WRITE "${OUT}" "${content}")
