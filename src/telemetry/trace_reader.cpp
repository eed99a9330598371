#include "telemetry/trace_reader.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace lps::telemetry {

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage after document");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (error_ != nullptr) {
      std::ostringstream os;
      os << "at byte " << pos_ << ": " << msg;
      *error_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (++depth_ > 256) return fail("nesting deeper than 256");
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JsonValue::Kind::String;
        return parse_string(out.string);
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          out.kind = JsonValue::Kind::Bool;
          out.boolean = true;
          pos_ += 4;
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          out.kind = JsonValue::Kind::Bool;
          out.boolean = false;
          pos_ += 5;
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          out.kind = JsonValue::Kind::Null;
          pos_ += 4;
          return true;
        }
        return fail("bad literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    if (!expect('{')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    if (!expect('[')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return expect(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("unterminated escape");
        switch (text_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return fail("short \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // produced by our writer; decode them permissively as-is).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("bad escape");
        }
        ++pos_;
      } else {
        out += c;
        ++pos_;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      digits = true;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      bool exp_digits = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) return fail("bad exponent");
    }
    if (!digits) return fail("bad number");
    out.kind = JsonValue::Kind::Number;
    out.number = std::strtod(text_.c_str() + start, nullptr);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_ (at most 256)
};

bool structural_fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string* error) {
  return Parser(text, error).parse(out);
}

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
