#include "sim/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mobichk::sim {

void JsonWriter::newline() {
  if (!pretty_) return;
  os_ << '\n';
  for (usize i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key on the same line
  }
  if (!stack_.empty()) {
    if (stack_.back().has_items) os_ << ',';
    stack_.back().has_items = true;
    newline();
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  os_ << '{';
  stack_.push_back(Level{false, false});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  os_ << '[';
  stack_.push_back(Level{true, false});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separator();
  os_ << '"';
  escape(k);
  os_ << "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separator();
  os_ << '"';
  escape(v);
  os_ << '"';
  return *this;
}

JsonWriter& JsonWriter::value(f64 v) {
  separator();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no Inf/NaN
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  separator();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(i64 v) {
  separator();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  os_ << (v ? "true" : "false");
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* v = find(key)) return *v;
  throw std::out_of_range("JsonValue: no member \"" + std::string(key) + "\"");
}

f64 JsonValue::as_f64() const {
  if (kind != Kind::kNumber) throw std::invalid_argument("JsonValue: not a number");
  return number;
}

u64 JsonValue::as_u64() const {
  if (kind != Kind::kNumber) throw std::invalid_argument("JsonValue: not a number");
  // Exact path: a plain digit token survives even above 2^53 (trace
  // hashes), where the f64 representation has already lost bits.
  if (!number_text.empty() &&
      number_text.find_first_not_of("0123456789") == std::string::npos) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(number_text.c_str(), &end, 10);
    if (errno == 0 && end == number_text.c_str() + number_text.size()) return v;
    throw std::invalid_argument("JsonValue: integer out of u64 range");
  }
  const f64 v = as_f64();
  if (v < 0.0 || v != std::floor(v)) {
    throw std::invalid_argument("JsonValue: not a non-negative integer");
  }
  return static_cast<u64>(v);
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) throw std::invalid_argument("JsonValue: not a boolean");
  return boolean;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) throw std::invalid_argument("JsonValue: not a string");
  return string;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind != Kind::kArray) throw std::invalid_argument("JsonValue: not an array");
  return array;
}

namespace {

// Recursive-descent parser over the document text. Depth is bounded to
// keep hostile input from exhausting the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return value;
  }

 private:
  static constexpr usize kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json_parse: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(usize depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{': parse_object(value, depth); break;
      case '[': parse_array(value, depth); break;
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        break;
      case 't':
      case 'f':
        value.kind = JsonValue::Kind::kBool;
        if (consume_literal("true")) value.boolean = true;
        else if (consume_literal("false")) value.boolean = false;
        else fail("bad literal");
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        break;
      default: {
        value.kind = JsonValue::Kind::kNumber;
        value.number = parse_number(value.number_text);
      }
    }
    return value;
  }

  void parse_object(JsonValue& value, usize depth) {
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      ++pos_;
      if (next == '}') return;
      if (next != ',') fail("expected ',' or '}'");
    }
  }

  void parse_array(JsonValue& value, usize depth) {
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      value.array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      ++pos_;
      if (next == ']') return;
      if (next != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  u32 parse_hex4() {
    u32 code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<u32>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<u32>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<u32>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  void append_codepoint(std::string& out, u32 code) {
    // BMP only; surrogate pairs never appear in this writer's output.
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate escapes are not supported");
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
  }

  f64 parse_number(std::string& token_out) {
    // Copy the token before strtod: the view need not be NUL-terminated.
    const usize start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const f64 value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) fail("expected a value");
    if (!std::isfinite(value)) {
      pos_ = start;
      fail("number " + token + " is out of range");
    }
    token_out = token;
    return value;
  }

  std::string_view text_;
  usize pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) { return JsonParser(text).parse_document(); }

void JsonWriter::escape(std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\r': os_ << "\\r"; break;
      case '\t': os_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
}

}  // namespace mobichk::sim
