#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <ostream>

namespace lps {

namespace {

/// Appends `s` as a quoted JSON string literal.
void put_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    out += '\\';
    switch (c) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '\b': out += 'b'; break;
      case '\f': out += 'f'; break;
      case '\n': out += 'n'; break;
      case '\r': out += 'r'; break;
      case '\t': out += 't'; break;
      default:
        out += "u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

/// Appends the shortest text that reads back as `v`; `null` when `v`
/// is not finite.
void put_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

template <typename Int>
void put_integer(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

// ---------------------------------------------------------------- writer --

std::string& JsonObject::field(std::string_view key) {
  if (text_.size() > 1) text_ += ", ";
  put_string(text_, key);
  text_ += ": ";
  return text_;
}

JsonObject& JsonObject::add(std::string_view key, std::string_view value) {
  put_string(field(key), value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, const char* value) {
  return add(key, std::string_view(value));
}

JsonObject& JsonObject::add(std::string_view key, double value) {
  put_number(field(key), value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, std::int64_t value) {
  put_integer(field(key), value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, std::uint64_t value) {
  put_integer(field(key), value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, int value) {
  put_integer(field(key), value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, bool value) {
  field(key) += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, const JsonObject& nested) {
  field(key) += nested.text_;
  text_ += '}';
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, const JsonArray& array) {
  field(key) += array.text_;
  text_ += ']';
  return *this;
}

std::string& JsonArray::item() {
  if (text_.size() > 1) text_ += ", ";
  return text_;
}

JsonArray& JsonArray::push(double value) {
  put_number(item(), value);
  return *this;
}

JsonArray& JsonArray::push(std::uint64_t value) {
  put_integer(item(), value);
  return *this;
}

JsonRows::JsonRows(std::ostream& os) : os_(&os), closing_("\n]\n") {
  os << '[';
}

JsonRows::JsonRows(std::ostream& os, const JsonObject& head,
                   std::string_view key)
    : os_(&os), closing_("\n]}\n") {
  JsonObject open = head;
  open.field(key) += '[';
  os << open.text_;
}

JsonRows::~JsonRows() { close(); }

JsonRows& JsonRows::push(const JsonObject& row) {
  *os_ << (first_ ? "\n" : ",\n") << row.text_ << '}';
  first_ = false;
  return *this;
}

void JsonRows::close() {
  if (closing_ == nullptr) return;
  *os_ << (first_ ? closing_ + 1 : closing_);
  closing_ = nullptr;
}

// ---------------------------------------------------------------- reader --

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

using RowFn = std::function<bool(const JsonValue&)>;

class Parser {
 public:
  Parser(std::string_view text, std::string* error,
         std::string_view rows_key = {}, const RowFn* row = nullptr)
      : text_(text), error_(error), rows_key_(rows_key), row_(row) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage after document");
    return true;
  }

 private:
  bool fail(std::string_view msg) {
    if (error_ != nullptr) {
      *error_ = "at byte " + std::to_string(pos_) + ": ";
      *error_ += msg;
    }
    return false;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool expect(char c) {
    if (!at(c)) return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  /// `rows`: an array here streams its elements to row_ (parse_array).
  bool parse_value(JsonValue& out, bool rows = false) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (++depth_ > 256) return fail("nesting deeper than 256");
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out, rows);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JsonValue::Kind::String;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::Null;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (at('}')) {
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
      const bool rows = row_ != nullptr && depth_ == 1 && key == rows_key_;
      if (!parse_value(value, rows)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (!at(',')) return expect('}');
      ++pos_;
    }
  }

  /// With `rows`, each element is handed to row_ and dropped instead of
  /// kept in `out`.
  bool parse_array(JsonValue& out, bool rows) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (at(']')) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (rows) {
        JsonValue element;
        if (!parse_value(element) || !(*row_)(element)) return false;
      } else {
        out.array.emplace_back();
        if (!parse_value(out.array.back())) return false;
      }
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (!at(',')) return expect(']');
      ++pos_;
    }
  }

  /// Four hex digits after `\u`; pos_ is on the 'u'.
  bool hex4(unsigned& code) {
    if (pos_ + 4 >= text_.size()) return fail("short \\u escape");
    code = 0;
    for (int i = 1; i <= 4; ++i) {
      const char h = text_[pos_ + static_cast<std::size_t>(i)];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return fail("bad \\u escape");
    }
    pos_ += 4;
    return true;
  }

  /// A `\u` escape, with its low surrogate when it is a high one, as
  /// UTF-8; pos_ is on the 'u' and ends on the escape's last digit.
  bool parse_code_point(std::string& out) {
    unsigned code = 0;
    if (!hex4(code)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) return fail("lone low surrogate");
    if (code >= 0xD800 && code <= 0xDBFF) {
      unsigned low = 0;
      if (text_.substr(pos_ + 1, 2) != "\\u") return fail("lone high surrogate");
      pos_ += 2;
      if (!hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("lone high surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
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
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return fail("unterminated escape");
      switch (text_[pos_]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!parse_code_point(out)) return false;
          break;
        default:
          return fail("bad escape");
      }
      ++pos_;
    }
    return fail("unterminated string");
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (digit()) {
      while (digit()) ++pos_;
    } else {
      return fail("bad number");
    }
    if (at('.')) {
      ++pos_;
      if (!digit()) return fail("bad fraction");
      while (digit()) ++pos_;
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digit()) return fail("bad exponent");
      while (digit()) ++pos_;
    }
    const auto [end, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, out.number);
    if (ec != std::errc() || end != text_.data() + pos_) {
      return fail("number out of double range");
    }
    out.kind = JsonValue::Kind::Number;
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::string_view rows_key_;  // the root member parse_json_rows streams
  const RowFn* row_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_ (at most 256)
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  return Parser(text, error).parse(out);
}

bool parse_json_rows(std::string_view text, std::string_view key,
                     const RowFn& row, JsonValue& out, std::string* error) {
  return Parser(text, error, key, &row).parse(out);
}

}  // namespace lps
