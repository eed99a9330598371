# CLI contract test for tools/trace_summary's exit codes: `--check`
# returns 0 on a valid trace, 1 on a truncated or non-JSON input or on
# unsound event instants (outside the closed vocabulary, missing args,
# time going back on one tid, unpaired crash/revive), and usage errors
# return 2.
#
#   cmake -DRUNNER=<runner> -DTRACE_SUMMARY=<trace_summary>
#         -P trace_summary_check.cmake
#
# Registered by the top-level CMakeLists as test `trace_summary_check`.
if(NOT RUNNER OR NOT TRACE_SUMMARY)
  message(FATAL_ERROR
      "pass -DRUNNER=... and -DTRACE_SUMMARY=... binary paths")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/trace_summary_check_out")
file(REMOVE_RECURSE "${workdir}")
file(MAKE_DIRECTORY "${workdir}")

function(expect_code expected)
  execute_process(
    COMMAND "${TRACE_SUMMARY}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(last_out "${out}" PARENT_SCOPE)
  set(last_err "${err}" PARENT_SCOPE)
  if(NOT code EQUAL ${expected})
    message(SEND_ERROR
        "expected exit ${expected}, got '${code}' for: ${ARGN}\n"
        "stdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

# A real trace from a real run.
execute_process(
  COMMAND "${RUNNER}" --generator er:n=64,deg=3 --solver israeli_itai
          --oracle none --log-level quiet
          --trace "${workdir}/run.trace.json"
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "runner failed to produce a trace: ${err}")
endif()

# Valid trace: --check passes, the report mode also exits 0.
expect_code(0 --check "${workdir}/run.trace.json")
expect_code(0 "${workdir}/run.trace.json")

# Truncated trace: cut the document in half — no longer valid JSON.
file(READ "${workdir}/run.trace.json" trace_text)
string(LENGTH "${trace_text}" trace_len)
math(EXPR half "${trace_len} / 2")
string(SUBSTRING "${trace_text}" 0 ${half} truncated)
file(WRITE "${workdir}/truncated.json" "${truncated}")
expect_code(1 --check "${workdir}/truncated.json")

# Non-JSON input.
file(WRITE "${workdir}/garbage.json" "this is not a trace\n")
expect_code(1 --check "${workdir}/garbage.json")

# Well-formed JSON that is not a trace document.
file(WRITE "${workdir}/nottrace.json" "{\"spans\": []}\n")
expect_code(1 --check "${workdir}/nottrace.json")

# Nesting far past the reader's depth cap: one diagnostic line and exit
# 1, not a stack overflow.
string(REPEAT "[" 200000 open)
string(REPEAT "]" 200000 close)
file(WRITE "${workdir}/deep.json" "{\"traceEvents\": ${open}${close}}")
expect_code(1 --check "${workdir}/deep.json")
string(REGEX REPLACE "\n$" "" deep_err "${last_err}")
if(deep_err STREQUAL "" OR deep_err MATCHES "\n")
  message(SEND_ERROR "deep trace: expected one diagnostic line: ${last_err}")
endif()

# Missing file -> 1 (I/O failure), usage errors -> 2.
expect_code(1 --check "${workdir}/does_not_exist.json")
expect_code(2)
expect_code(2 --frobnicate "${workdir}/run.trace.json")
expect_code(2 "${workdir}/run.trace.json" "${workdir}/garbage.json")

# ------------------------------------------- event-instant fixtures --
# A trace without event instants checks exactly as before.
file(WRITE "${workdir}/no_events.json" [=[
{"traceEvents": [
{"name": "engine.round", "cat": "engine", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 5},
{"name": "unit.instant", "cat": "test", "ph": "i", "pid": 1, "tid": 0, "ts": 9}
]}
]=])
expect_code(0 --check "${workdir}/no_events.json")
if(NOT last_out STREQUAL "${workdir}/no_events.json: ok (2 events)\n")
  message(SEND_ERROR "unexpected --check output: ${last_out}")
endif()

# Valid instants: known kinds with their args, ts rising per tid (tid 1
# may lag tid 0), and a flapping vertex whose every crash is revived.
file(WRITE "${workdir}/events_ok.json" [=[
{"traceEvents": [
{"name": "crash", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 2, "args": {"epoch": 0, "vertex": 7}},
{"name": "revive", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 3, "args": {"epoch": 1, "vertex": 7}},
{"name": "delay", "cat": "event", "ph": "i", "pid": 1, "tid": 1, "ts": 1, "args": {"round": 4, "edge": 9, "from": 2, "rounds": 3}},
{"name": "crash", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 4, "args": {"epoch": 2, "vertex": 7}},
{"name": "revive", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 5, "args": {"epoch": 3, "vertex": 7}}
]}
]=])
expect_code(0 --check "${workdir}/events_ok.json")
expect_code(0 "${workdir}/events_ok.json")

# Each failing fixture is the valid document's shape with one violation.
function(expect_bad_events name)
  string(JOIN ",\n" body ${ARGN})
  file(WRITE "${workdir}/${name}.json" "{\"traceEvents\": [\n${body}\n]}\n")
  expect_code(1 --check "${workdir}/${name}.json")
endfunction()
set(crash9 [=[{"name": "crash", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 1, "args": {"epoch": 0, "vertex": 9}}]=])
set(revive3 [=[{"name": "revive", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 1, "args": {"epoch": 0, "vertex": 3}}]=])
set(drop_ts2 [=[{"name": "drop", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 2, "args": {"round": 1, "edge": 4, "from": 2}}]=])
set(drop_ts1 [=[{"name": "drop", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 1, "args": {"round": 1, "edge": 5, "from": 3}}]=])
# Unpaired crash: vertex 9 never revives.
expect_bad_events(events_unpaired "${crash9}")
# Revive without a preceding crash.
expect_bad_events(events_orphan_revive "${revive3}")
# Unknown kind (outside the closed vocabulary).
expect_bad_events(events_unknown
    [=[{"name": "frobnicate", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 1, "args": {"round": 1}}]=])
# A required arg missing (drop without its edge).
expect_bad_events(events_missing_arg
    [=[{"name": "drop", "cat": "event", "ph": "i", "pid": 1, "tid": 0, "ts": 1, "args": {"round": 1, "from": 2}}]=])
# Instants going back in time on one tid.
expect_bad_events(events_unsorted "${drop_ts2}" "${drop_ts1}")
# Non-JSON input.
file(WRITE "${workdir}/events_garbage.json" "not json\n")
expect_code(1 --check "${workdir}/events_garbage.json")
