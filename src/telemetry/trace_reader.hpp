// Minimal JSON reader for Chrome-trace documents, shared by
// tools/trace_summary and tests/test_telemetry. This is a consumer-side
// validator — the writer half lives in telemetry.cpp — so it parses
// strict JSON (no comments, no trailing commas) and rejects anything
// malformed instead of guessing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lps::telemetry {

/// A parsed JSON value. Numbers are kept as double (Chrome traces only
/// carry µs timestamps and small args; 2^53 integer precision is ample).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const noexcept { return kind == Kind::Object; }
  bool is_array() const noexcept { return kind == Kind::Array; }
  bool is_string() const noexcept { return kind == Kind::String; }
  bool is_number() const noexcept { return kind == Kind::Number; }
  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const noexcept;
};

/// Parse a complete JSON document. Returns false (with a position +
/// message in *error when non-null) on any syntax violation, including
/// trailing garbage after the top-level value, and on arrays and objects
/// nested more than 256 deep (the parser recurses per level).
bool parse_json(const std::string& text, JsonValue& out,
                std::string* error = nullptr);

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

/// Convenience: read the file then load_chrome_trace.
bool load_chrome_trace_file(const std::string& path, TraceDoc& out,
                            std::string* error = nullptr);

}  // namespace lps::telemetry
