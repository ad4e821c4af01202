#ifndef SIREP_SQL_VALUE_H_
#define SIREP_SQL_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace sirep::sql {

enum class ValueType { kNull = 0, kInt, kDouble, kString, kBool };

const char* ValueTypeToString(ValueType type);

/// A typed SQL value: NULL, INT (64-bit), DOUBLE, STRING (also used for
/// VARCHAR/TEXT) or BOOL. Values order NULL < BOOL < INT/DOUBLE < STRING
/// across types so they can key ordered containers; numeric types compare
/// exactly by value with each other (an INT is never rounded to a DOUBLE),
/// and values that compare equal hash equal.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }
  static Value Bool(bool v) { return Value(v); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const;
  const std::string& AsString() const { return std::get<std::string>(data_); }
  bool AsBool() const { return std::get<bool>(data_); }

  bool IsNumeric() const {
    ValueType t = type();
    return t == ValueType::kInt || t == ValueType::kDouble;
  }

  /// Three-way comparison used by the executor and by key ordering.
  /// NULLs compare equal to each other and less than everything else.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  size_t Hash() const;

  std::string ToString() const;

 private:
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(bool v) : data_(v) {}

  std::variant<std::monostate, int64_t, double, std::string, bool> data_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

/// A row is simply a vector of values ordered per the table schema.
using Row = std::vector<Value>;

std::string RowToString(const Row& row);

/// Primary-key value (possibly composite). Hashable and ordered so it can
/// key both hash maps (writeset intersection) and ordered maps (storage).
struct Key {
  std::vector<Value> parts;

  bool operator==(const Key& other) const { return parts == other.parts; }
  bool operator<(const Key& other) const;
  size_t Hash() const;
  std::string ToString() const;
};

struct KeyHash {
  size_t operator()(const Key& key) const { return key.Hash(); }
};

}  // namespace sirep::sql

#endif  // SIREP_SQL_VALUE_H_
