// The repo's one JSON reader and one JSON string writer.
//
// parse_json is a strict RFC 8259 reader that builds a small DOM. It is
// the syntax layer under the scenario specs (scenario/spec.h) and every
// artifact validator (obs/json_lint.h), so a document one of them accepts
// the others read the same way:
//
//   * whitespace is the four RFC bytes (space, \t, \n, \r) only;
//   * numbers follow the RFC grammar (no '+', '.5', '1.', '01', hex, inf
//     or nan) and must be finite as a double;
//   * strings decode fully: every escape, \u surrogate pairs to UTF-8; a
//     lone surrogate or a raw control character is an error. Bytes at or
//     above 0x80 pass through unchecked;
//   * a repeated key in one object is an error;
//   * nesting deeper than kJsonMaxDepth is an error, so hostile input
//     cannot exhaust the stack.
//
// Errors come back as a one-line message with the byte offset; the reader
// never throws on bad input.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ncdrf {

// Arrays plus objects open at once. The artifacts and specs the repo
// writes nest a few levels deep; the bound is there for hostile input.
inline constexpr int kJsonMaxDepth = 128;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;  // kNumber: the value of `text`
  // kString: the decoded bytes. kNumber: the source token, so a caller can
  // convert a 64-bit integer without a trip through double.
  std::string text;
  std::vector<JsonValue> items;  // kArray
  // kObject: the members in document order.
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  // The member named `key` of an object; nullptr if absent or not an
  // object.
  const JsonValue* find(std::string_view key) const;
};

// Parses one complete document into `out`. Returns "" on success or the
// error; `out` is unspecified after an error.
std::string parse_json(std::string_view text, JsonValue* out);

// Appends `s` to `out` as a JSON string literal: quotes and backslashes
// escaped, control characters as \n, \r, \t or \u00XX, other bytes as is.
void append_json_string(std::string& out, std::string_view s);

}  // namespace ncdrf
