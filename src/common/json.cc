#include "common/json.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace ncdrf {
namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::string run(JsonValue& out) {
    if (value(out, 0)) {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after JSON value");
    }
    return error_;
  }

 private:
  bool fail(std::string_view what) {
    error_.assign(what);
    error_ += " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  // `depth` counts the arrays and objects enclosing this value.
  bool value(JsonValue& out, int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kJsonMaxDepth) return fail("nesting too deep");
      ++pos_;
      return c == '{' ? object(out, depth + 1) : array(out, depth + 1);
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return string(out.text);
    }
    if (c == '-' || is_digit(c)) return number(out);
    if (c == 't' || c == 'f') {
      out.type = JsonValue::Type::kBool;
      out.boolean = c == 't';
      return literal(out.boolean ? "true" : "false");
    }
    return literal("null");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("unexpected character");
    }
    pos_ += word.size();
    return true;
  }

  bool array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    skip_ws();
    if (at(']')) {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value(out.items.emplace_back(), depth)) return false;
      skip_ws();
      if (at(']')) {
        ++pos_;
        return true;
      }
      if (!at(',')) return fail("expected ',' or ']' in array");
      ++pos_;
    }
  }

  bool object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    skip_ws();
    if (at('}')) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!at('"')) return fail("expected string key in object");
      auto& [key, member] = out.members.emplace_back();
      if (!string(key)) return false;
      skip_ws();
      if (!at(':')) return fail("expected ':' in object");
      ++pos_;
      if (!value(member, depth)) return false;
      skip_ws();
      if (at('}')) break;
      if (!at(',')) return fail("expected ',' or '}' in object");
      ++pos_;
    }
    // Sorting views of the keys finds a repeat in O(n log n); a scan of the
    // earlier members per key is quadratic in an object's size. Nested
    // objects are done by now, so one scratch vector serves every level.
    keys_.clear();
    for (const auto& member : out.members) keys_.push_back(member.first);
    std::sort(keys_.begin(), keys_.end());
    if (std::adjacent_find(keys_.begin(), keys_.end()) != keys_.end()) {
      return fail("duplicate key in object");
    }
    ++pos_;
    return true;
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
      return pos_ > from;
    };
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;  // a leading zero stands alone
    } else if (!digits()) {
      return fail("invalid number");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) return fail("invalid number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) return fail("invalid number");
    }
    out.type = JsonValue::Type::kNumber;
    out.text.assign(text_.substr(start, pos_ - start));
    // No ERANGE check: glibc sets it for denormals, which %.17g writes.
    out.number = std::strtod(out.text.c_str(), nullptr);
    if (!std::isfinite(out.number)) return fail("number out of range");
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // the opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          if (!unicode(out)) return false;
          break;
        default:
          return fail("invalid escape in string");
      }
    }
    return fail("unterminated string");
  }

  // The four hex digits of a \u escape.
  bool hex4(std::uint32_t& code) {
    code = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      const char c = pos_ < text_.size() ? text_[pos_] : '\0';
      const int digit = is_digit(c)              ? c - '0'
                        : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                        : (c >= 'A' && c <= 'F') ? c - 'A' + 10
                                                 : -1;
      if (digit < 0) return fail("invalid \\u escape");
      code = code * 16 + static_cast<std::uint32_t>(digit);
    }
    return true;
  }

  // A \u escape after its "\u": a high surrogate must pair with the low
  // one that follows. Appends the code point as UTF-8.
  bool unicode(std::string& out) {
    std::uint32_t code = 0;
    if (!hex4(code)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) return fail("lone low surrogate");
    if (code >= 0xD800 && code <= 0xDBFF) {
      std::uint32_t low = 0;
      if (text_.substr(pos_, 2) != "\\u") return fail("lone high surrogate");
      pos_ += 2;
      if (!hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("lone high surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    const auto byte = [&](std::uint32_t b) {
      out.push_back(static_cast<char>(b));
    };
    if (code < 0x80) {
      byte(code);
    } else if (code < 0x800) {
      byte(0xC0 | (code >> 6));
      byte(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      byte(0xE0 | (code >> 12));
      byte(0x80 | ((code >> 6) & 0x3F));
      byte(0x80 | (code & 0x3F));
    } else {
      byte(0xF0 | (code >> 18));
      byte(0x80 | ((code >> 12) & 0x3F));
      byte(0x80 | ((code >> 6) & 0x3F));
      byte(0x80 | (code & 0x3F));
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  std::vector<std::string_view> keys_;  // duplicate-key scratch
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string parse_json(std::string_view text, JsonValue* out) {
  *out = JsonValue{};
  return Reader(text).run(*out);
}

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace ncdrf
