// The repo's JSON codec: a minimal value model, one recursive-descent
// parser and one string escaper, no third-party dependency.
//
// Every JSON reader and string escaper outside perfbench/ goes through
// this header: the serve layer's line-delimited RPC (requests arrive as
// one JSON object per line, replies and trace lines leave the same
// way), the campaign artifacts (campaign/artifacts.cpp writes its
// strings with append_json_string() and reads cells back with parse()),
// and the bench-regression gate (tools/bench_regression_lib.hpp parses
// BENCH_engine.json and BENCH_serve.json here).  The framing-fuzz suite
// feeds this parser truncated documents, bad literals and deep nesting
// — every malformed input must throw std::invalid_argument (which the
// server converts into a structured error reply), never crash or read
// past the buffer.  The header stays under src/serve/ because perfbench
// includes it by that path.
//
// The model is deliberately small: null, bool, 64-bit signed integers,
// doubles, strings, arrays and objects.  Objects preserve insertion
// order, so a dump() of a value built field by field is byte-stable —
// the property the result cache and the byte-identity tests lean on.
// Numbers without '.', 'e' or 'E' parse as integers (seeds and vertex
// ids survive beyond 2^53 in either direction up to the int64 range);
// everything else, an integer beyond that range included, parses as
// double.  Number tokens follow JSON's grammar (no leading zeros) and
// are read by util/parse_number.hpp.
#ifndef SPECSTAB_SERVE_JSON_HPP
#define SPECSTAB_SERVE_JSON_HPP

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "util/parse_number.hpp"

namespace specstab::serve {

/// Appends `s` as a JSON string literal, escaped minimally: '"', '\\',
/// '\n', '\r' and '\t' by name, every other byte below 0x20 as a
/// lowercase \u00xx, and every other byte (UTF-8 included) raw, copied
/// in runs.  The repo's one escaper: JsonValue::dump_into(), the trace
/// line renderers, the campaign artifact writers and bench_engine's host
/// stamp all call it.
inline void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

/// Appends `i` in decimal, as std::to_string() spells it.
inline void append_json_int(std::string& out, std::int64_t i) {
  // 19 digits and a sign: INT64_MIN.
  char digits[std::numeric_limits<std::int64_t>::digits10 + 2];
  const std::to_chars_result end =
      std::to_chars(digits, digits + sizeof(digits), i);
  out.append(digits, end.ptr);
}

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;
  JsonValue(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  JsonValue(std::int64_t i) : kind_(Kind::kInt), int_(i) {}  // NOLINT
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}  // NOLINT
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}  // NOLINT
  JsonValue(std::string s)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}  // NOLINT

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::kInt; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const {
    require(Kind::kBool, "bool");
    return bool_;
  }
  [[nodiscard]] std::int64_t as_int() const {
    require(Kind::kInt, "integer");
    return int_;
  }
  [[nodiscard]] double as_double() const {
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    require(Kind::kDouble, "number");
    return double_;
  }
  [[nodiscard]] const std::string& as_string() const {
    require(Kind::kString, "string");
    return string_;
  }
  [[nodiscard]] const Array& as_array() const {
    require(Kind::kArray, "array");
    return array_;
  }
  [[nodiscard]] const Object& as_object() const {
    require(Kind::kObject, "object");
    return object_;
  }
  /// Mutable views, for builders assembling a value element by element.
  [[nodiscard]] Array& as_array() {
    require(Kind::kArray, "array");
    return array_;
  }
  [[nodiscard]] Object& as_object() {
    require(Kind::kObject, "object");
    return object_;
  }

  /// Appends to an array value.
  void push_back(JsonValue v) {
    require(Kind::kArray, "array");
    array_.push_back(std::move(v));
  }

  /// Appends a member to an object value (insertion order is dump
  /// order; duplicate keys are the caller's bug, not detected here).
  void set(std::string key, JsonValue v) {
    require(Kind::kObject, "object");
    object_.emplace_back(std::move(key), std::move(v));
  }

  /// Member lookup on an object; nullptr when absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    if (kind_ != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::kNull:
        return true;
      case Kind::kBool:
        return a.bool_ == b.bool_;
      case Kind::kInt:
        return a.int_ == b.int_;
      case Kind::kDouble:
        return a.double_ == b.double_;
      case Kind::kString:
        return a.string_ == b.string_;
      case Kind::kArray:
        return a.array_ == b.array_;
      case Kind::kObject:
        return a.object_ == b.object_;
    }
    return false;
  }

  /// Compact serialization (no whitespace), byte-stable for a given
  /// value: object members in insertion order, strings escaped
  /// minimally (append_json_string()), integers in decimal.
  [[nodiscard]] std::string dump() const {
    std::string out;
    dump_into(out);
    return out;
  }

  /// dump(), appended to `out`.
  void dump_into(std::string& out) const {
    switch (kind_) {
      case Kind::kNull:
        out += "null";
        return;
      case Kind::kBool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::kInt:
        append_json_int(out, int_);
        return;
      case Kind::kDouble: {
        if (!std::isfinite(double_)) {
          out += "null";  // JSON has no Inf/NaN
          return;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
        return;
      }
      case Kind::kString:
        append_json_string(out, string_);
        return;
      case Kind::kArray: {
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
          if (i > 0) out += ',';
          array_[i].dump_into(out);
        }
        out += ']';
        return;
      }
      case Kind::kObject: {
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
          if (i > 0) out += ',';
          append_json_string(out, object_[i].first);
          out += ':';
          object_[i].second.dump_into(out);
        }
        out += '}';
        return;
      }
    }
  }

  /// Parses exactly one JSON document; trailing non-whitespace, bad
  /// literals, unterminated strings and nesting beyond `max_depth` all
  /// throw std::invalid_argument.
  [[nodiscard]] static JsonValue parse(std::string_view text,
                                       int max_depth = 64) {
    Parser p{text, 0, max_depth};
    const JsonValue v = p.parse_value(0);
    p.skip_ws();
    if (p.pos != text.size()) p.fail("trailing characters after document");
    return v;
  }

 private:
  void require(Kind kind, const char* what) const {
    if (kind_ != kind) {
      throw std::invalid_argument(std::string("JsonValue: not a ") + what);
    }
  }

  struct Parser {
    std::string_view text;
    std::size_t pos;
    int max_depth;

    [[noreturn]] void fail(const std::string& why) const {
      throw std::invalid_argument("bad JSON at offset " + std::to_string(pos) +
                                  ": " + why);
    }

    void skip_ws() {
      while (pos < text.size() &&
             (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
              text[pos] == '\r')) {
        ++pos;
      }
    }

    char peek() {
      if (pos >= text.size()) fail("unexpected end of input");
      return text[pos];
    }

    void expect_literal(std::string_view lit) {
      if (text.substr(pos, lit.size()) != lit) {
        fail("bad literal (expected '" + std::string(lit) + "')");
      }
      pos += lit.size();
    }

    JsonValue parse_value(int depth) {
      if (depth > max_depth) fail("nesting too deep");
      skip_ws();
      switch (peek()) {
        case 'n':
          expect_literal("null");
          return JsonValue();
        case 't':
          expect_literal("true");
          return JsonValue(true);
        case 'f':
          expect_literal("false");
          return JsonValue(false);
        case '"':
          return JsonValue(parse_string());
        case '[': {
          ++pos;
          JsonValue out = JsonValue::array();
          skip_ws();
          if (peek() == ']') {
            ++pos;
            return out;
          }
          for (;;) {
            out.push_back(parse_value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos;
            if (c == ']') return out;
            if (c != ',') fail("expected ',' or ']' in array");
          }
        }
        case '{': {
          ++pos;
          JsonValue out = JsonValue::object();
          skip_ws();
          if (peek() == '}') {
            ++pos;
            return out;
          }
          for (;;) {
            skip_ws();
            if (peek() != '"') fail("expected object key string");
            std::string key = parse_string();
            skip_ws();
            if (peek() != ':') fail("expected ':' after object key");
            ++pos;
            out.set(std::move(key), parse_value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos;
            if (c == '}') return out;
            if (c != ',') fail("expected ',' or '}' in object");
          }
        }
        default:
          return parse_number();
      }
    }

    std::string parse_string() {
      // Called with peek() == '"'.
      ++pos;
      std::string out;
      for (;;) {
        if (pos >= text.size()) fail("unterminated string");
        const unsigned char c = static_cast<unsigned char>(text[pos]);
        if (c == '"') {
          ++pos;
          return out;
        }
        if (c == '\\') {
          ++pos;
          if (pos >= text.size()) fail("unterminated escape");
          const char e = text[pos];
          ++pos;
          switch (e) {
            case '"':
              out += '"';
              break;
            case '\\':
              out += '\\';
              break;
            case '/':
              out += '/';
              break;
            case 'b':
              out += '\b';
              break;
            case 'f':
              out += '\f';
              break;
            case 'n':
              out += '\n';
              break;
            case 'r':
              out += '\r';
              break;
            case 't':
              out += '\t';
              break;
            case 'u': {
              if (pos + 4 > text.size()) fail("truncated \\u escape");
              unsigned code = 0;
              for (int i = 0; i < 4; ++i) {
                const char h = text[pos + static_cast<std::size_t>(i)];
                code <<= 4;
                if (h >= '0' && h <= '9') {
                  code |= static_cast<unsigned>(h - '0');
                } else if (h >= 'a' && h <= 'f') {
                  code |= static_cast<unsigned>(h - 'a' + 10);
                } else if (h >= 'A' && h <= 'F') {
                  code |= static_cast<unsigned>(h - 'A' + 10);
                } else {
                  fail("bad \\u escape digit");
                }
              }
              pos += 4;
              // UTF-8 encode the BMP code point (surrogate pairs are
              // passed through as two 3-byte sequences — the wire
              // protocol's payloads are ASCII, this is fuzz armor).
              if (code < 0x80) {
                out += static_cast<char>(code);
              } else if (code < 0x800) {
                out += static_cast<char>(0xc0 | (code >> 6));
                out += static_cast<char>(0x80 | (code & 0x3f));
              } else {
                out += static_cast<char>(0xe0 | (code >> 12));
                out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                out += static_cast<char>(0x80 | (code & 0x3f));
              }
              break;
            }
            default:
              fail("bad escape character");
          }
          continue;
        }
        if (c < 0x20) fail("unescaped control character in string");
        out += static_cast<char>(c);
        ++pos;
      }
    }

    JsonValue parse_number() {
      const std::size_t start = pos;
      if (pos < text.size() && text[pos] == '-') ++pos;
      const std::size_t int_start = pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
      const bool digits = pos > int_start;
      if (pos - int_start > 1 && text[int_start] == '0') {
        fail("leading zero in number");
      }
      bool integral = true;
      if (pos < text.size() && text[pos] == '.') {
        integral = false;
        ++pos;
        bool frac = false;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
          ++pos;
          frac = true;
        }
        if (!frac) fail("digits required after decimal point");
      }
      if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
        integral = false;
        ++pos;
        if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
        bool exp = false;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
          ++pos;
          exp = true;
        }
        if (!exp) fail("digits required in exponent");
      }
      if (!digits) fail("malformed number");
      const std::string_view token = text.substr(start, pos - start);
      if (integral) {
        std::int64_t i = 0;
        if (specstab::parse_number(token, i) == std::errc()) {
          return JsonValue(i);
        }
        // Beyond int64 (a campaign run's uint64 seed, say): a double, as
        // ordinary JSON readers give; as_int() still refuses it.
      }
      double d = 0.0;
      if (specstab::parse_number(token, d) != std::errc()) {
        fail("number out of range: " + std::string(token));
      }
      return JsonValue(d);
    }
  };

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace specstab::serve

#endif  // SPECSTAB_SERVE_JSON_HPP
