// The repository's one JSON codec. The writer renders every JSON the
// repository writes: the runner's and perfbench's one-line run records,
// the BENCH_*.json rows and the Chrome trace export. The reader parses
// them back: tools/trace_summary (through telemetry/trace_reader) and
// the tests. One rendering everywhere: every string is escaped, every
// number is the shortest text that round-trips (std::to_chars), and a
// non-finite number is `null`.
//
// Layout is fixed, not an option: an object or array renders on one
// line, and JsonRows streams a document whose array holds one element
// per line (the trace's events, the BENCH_*.json rows), so those files
// diff and grep by line.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lps {

class JsonArray;

/// A JSON object, rendered as it is built: each add() appends one
/// `"key": value` field to a single string. Keys keep insertion order.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, std::string_view value);
  JsonObject& add(std::string_view key, const char* value);
  JsonObject& add(std::string_view key, double value);
  JsonObject& add(std::string_view key, std::int64_t value);
  JsonObject& add(std::string_view key, std::uint64_t value);
  JsonObject& add(std::string_view key, int value);
  JsonObject& add(std::string_view key, bool value);
  JsonObject& add(std::string_view key, const JsonObject& nested);
  JsonObject& add(std::string_view key, const JsonArray& array);

  /// `{"k": v, ...}` on one line.
  std::string str() const { return text_ + '}'; }

 private:
  friend class JsonRows;
  std::string& field(std::string_view key);
  std::string text_ = "{";
};

/// A JSON array, rendered as it is built (series, histograms, samples).
class JsonArray {
 public:
  JsonArray& push(double value);
  JsonArray& push(std::uint64_t value);

  /// `[v, ...]` on one line.
  std::string str() const { return text_ + ']'; }

 private:
  friend class JsonObject;
  std::string& item();
  std::string text_ = "[";
};

/// Streams a document whose array holds one object per line, writing
/// each row as it is pushed, so the document is never held in memory.
/// The array is either the whole document (`[`, rows, `]`) or the last
/// member `key` of an object whose other members `head` holds.
class JsonRows {
 public:
  explicit JsonRows(std::ostream& os);
  JsonRows(std::ostream& os, const JsonObject& head, std::string_view key);
  JsonRows(const JsonRows&) = delete;
  JsonRows& operator=(const JsonRows&) = delete;
  /// Closes the document if close() was not called.
  ~JsonRows();

  JsonRows& push(const JsonObject& row);
  /// Writes the closing `]` (and `}`) and a newline.
  void close();

 private:
  std::ostream* os_;
  const char* closing_;
  bool first_ = true;
};

/// A parsed JSON value. Numbers are doubles: integers up to 2^53 and
/// every double the writer renders read back exactly.
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
  const JsonValue* find(std::string_view key) const noexcept;
};

/// Parse one complete JSON document (RFC 8259: no comments, no trailing
/// commas, no leading zeros). Returns false, with `at byte N: <what>` in
/// *error when non-null, on any syntax violation, on trailing garbage,
/// on a number outside the double range, and on arrays and objects
/// nested more than 256 deep (the parser recurses per level).
bool parse_json(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

/// parse_json for a document too large to hold as one tree (a Chrome
/// trace): the same grammar and checks, but each element of the root
/// object's `key` array goes to `row` as soon as it is parsed and is
/// not kept, so that member reads as an empty array in `out`. When
/// `row` returns false the parse stops and returns false, and *error
/// is whatever `row` left there.
bool parse_json_rows(std::string_view text, std::string_view key,
                     const std::function<bool(const JsonValue&)>& row,
                     JsonValue& out, std::string* error = nullptr);

}  // namespace lps
