#include "telemetry/trace_reader.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace lps::telemetry {

namespace {

bool structural_fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool load_chrome_trace(const std::string& text, TraceDoc& out,
                       std::string* error) {
  JsonValue doc;
  if (!parse_json(text, doc, error)) return false;
  if (!doc.is_object()) return structural_fail(error, "root is not an object");
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return structural_fail(error, "missing traceEvents array");
  }
  out.spans.clear();
  out.thread_names.clear();
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) return structural_fail(error, where + " not an object");
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      return structural_fail(error, where + " missing ph");
    }
    if (name == nullptr || !name->is_string()) {
      return structural_fail(error, where + " missing name");
    }
    // An absent tid is 0; any other tid must be an integer in [0, 2^32),
    // since converting another number to u32 is undefined.
    const JsonValue* tid = e.find("tid");
    const double t = tid == nullptr ? 0.0 : tid->is_number() ? tid->number : -1;
    if (!(t >= 0.0 && t < 4294967296.0 && t == std::floor(t))) {
      return structural_fail(error,
                             where + " tid is not an integer in [0, 2^32)");
    }
    const auto tid_v = static_cast<std::uint32_t>(t);
    if (ph->string == "M") {
      if (name->string == "thread_name") {
        const JsonValue* args = e.find("args");
        const JsonValue* label =
            args != nullptr ? args->find("name") : nullptr;
        if (label != nullptr && label->is_string()) {
          out.thread_names[tid_v] = label->string;
        }
      }
      continue;
    }
    TraceSpan span;
    span.name = name->string;
    span.ph = ph->string[0];
    span.tid = tid_v;
    if (const JsonValue* cat = e.find("cat"); cat != nullptr && cat->is_string()) {
      span.cat = cat->string;
    }
    const JsonValue* ts = e.find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return structural_fail(error, where + " missing ts");
    }
    span.ts_us = ts->number;
    if (span.ph == 'X') {
      const JsonValue* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number()) {
        return structural_fail(error, where + " \"X\" event missing dur");
      }
      span.dur_us = dur->number;
    }
    if (const JsonValue* args = e.find("args");
        args != nullptr && args->is_object()) {
      for (const auto& [k, v] : args->object) {
        if (v.is_number()) span.args[k] = v.number;
      }
    }
    out.spans.push_back(std::move(span));
  }
  return true;
}

bool load_chrome_trace_file(const std::string& path, TraceDoc& out,
                            std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return structural_fail(error, "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return load_chrome_trace(buf.str(), out, error);
}

}  // namespace lps::telemetry
