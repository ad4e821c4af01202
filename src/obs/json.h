#ifndef SIREP_OBS_JSON_H_
#define SIREP_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

/// The one JSON codec of the stack: metrics snapshots, bench artifacts,
/// the profiler dump and the bench suite file are all written by the
/// Append* helpers and read back by Parse().
namespace sirep::obs::json {

// ---- writing ----

/// Appends `s` as a quoted JSON string (quotes, backslashes and control
/// characters escaped).
void AppendString(std::string* out, std::string_view s);
/// %.17g: round-trips every finite double.
void AppendDouble(std::string* out, double v);
void AppendU64(std::string* out, uint64_t v);
void AppendI64(std::string* out, int64_t v);

// ---- reading ----

/// A parsed JSON value. `raw` views the value's exact source text inside
/// the parsed document (valid while that text lives), so a reader can
/// re-extract an embedded sub-document verbatim and read integers
/// without a detour through double.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<std::pair<std::string, Value>> object;
  std::vector<Value> array;
  std::string_view raw;

  /// The member named `key` of an object; null when absent or not an
  /// object.
  const Value* Find(std::string_view key) const;
  double NumberOr(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }
  std::string StringOr(std::string fallback) const {
    return type == Type::kString ? str : std::move(fallback);
  }
  /// Exact integer readings of a number; false for anything else
  /// (fractions, exponents, out-of-range or negative unsigned values).
  bool AsU64(uint64_t* out) const;
  bool AsI64(int64_t* out) const;
};

/// Parses exactly one JSON document (RFC 8259 grammar) with optional
/// surrounding whitespace. Rejects malformed numbers, unknown escapes,
/// raw control characters in strings, and trailing data; \u escapes
/// are limited to ASCII, the only ones AppendString writes.
Result<Value> Parse(std::string_view text);

}  // namespace sirep::obs::json

#endif  // SIREP_OBS_JSON_H_
