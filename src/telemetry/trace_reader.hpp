// The Chrome-trace schema over the JSON codec (util/json.hpp): reads
// the documents Tracer::write_chrome_trace exports into flat spans and
// thread labels, for tools/trace_summary and the tests. Parsing is the
// codec's strict grammar (parse_json_rows): each traceEvents element is
// flattened as soon as it is parsed, so only one event's JSON tree is
// held at a time. This layer only checks the schema, and rejects a
// malformed document with a message instead of guessing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lps::telemetry {

/// One trace event, flattened from the Chrome schema.
struct TraceSpan {
  std::string name;
  std::string cat;
  char ph = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;  // 0 for non-"X" events
  std::uint32_t tid = 0;
  std::map<std::string, double> args;  // numeric args only
};

/// A loaded trace: spans plus the thread_name metadata.
struct TraceDoc {
  std::vector<TraceSpan> spans;                     // ph "X" and "i"
  std::map<std::uint32_t, std::string> thread_names;  // from ph "M"
};

/// Parse `text` as a Chrome-trace JSON document ({"traceEvents": [...]}).
/// Returns false with a message when the document is not valid JSON or
/// lacks the required structure (traceEvents array; per-event name/ph/ts;
/// dur on every "X" event).
bool load_chrome_trace(const std::string& text, TraceDoc& out,
                       std::string* error = nullptr);

/// Read the file once, into one buffer, then load_chrome_trace.
bool load_chrome_trace_file(const std::string& path, TraceDoc& out,
                            std::string* error = nullptr);

}  // namespace lps::telemetry
