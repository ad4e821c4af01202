#include "sql/value.h"

#include <cmath>
#include <sstream>

namespace sirep::sql {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kBool:
      return "BOOL";
  }
  return "?";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt;
    case 2:
      return ValueType::kDouble;
    case 3:
      return ValueType::kString;
    case 4:
      return ValueType::kBool;
  }
  return ValueType::kNull;
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(data_)) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  return std::get<double>(data_);
}

namespace {
/// 2^63, exactly: the doubles in [-kTwo63, kTwo63) truncate to an int64.
constexpr double kTwo63 = 9223372036854775808.0;

/// Rank used for cross-type ordering: NULL < BOOL < numeric < STRING.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
  }
  return 4;
}

/// Three-way comparison of an INT with a DOUBLE that is not NaN. Exact:
/// `i` is never rounded to a double, so 2^53 + 1 sorts above 2^53.0.
int CompareIntDouble(int64_t i, double d) {
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  const double whole = std::trunc(d);
  const auto w = static_cast<int64_t>(whole);
  if (i != w) return i < w ? -1 : 1;
  // i == trunc(d): the fraction decides.
  return d == whole ? 0 : (d > whole ? -1 : 1);
}
}  // namespace

int Value::Compare(const Value& other) const {
  const ValueType ta = type();
  const ValueType tb = other.type();
  const int ra = TypeRank(ta);
  const int rb = TypeRank(tb);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ta) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      const bool a = AsBool(), b = other.AsBool();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kInt:
    case ValueType::kDouble: {
      if (ta == ValueType::kInt && tb == ValueType::kInt) {
        const int64_t a = AsInt(), b = other.AsInt();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      const double a = AsDouble(), b = other.AsDouble();
      // Two DOUBLEs, or a NaN on either side, compare as doubles (with a
      // NaN, the left value reads as greater).
      if (ta == tb || std::isnan(a) || std::isnan(b)) {
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      return ta == ValueType::kInt ? CompareIntDouble(AsInt(), b)
                                   : -CompareIntDouble(other.AsInt(), a);
    }
    case ValueType::kString: {
      const int c = AsString().compare(other.AsString());
      return c == 0 ? 0 : (c < 0 ? -1 : 1);
    }
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b9;
    case ValueType::kBool:
      return std::hash<bool>()(AsBool());
    case ValueType::kInt:
      return std::hash<int64_t>()(AsInt());
    case ValueType::kDouble: {
      // An integral double in the int64 range hashes like the equal int,
      // so that Compare-equal values hash equal.
      const double d = AsDouble();
      if (d == std::trunc(d) && d >= -kTwo63 && d < kTwo63) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

bool Key::operator<(const Key& other) const {
  const size_t n = std::min(parts.size(), other.parts.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = parts[i].Compare(other.parts[i]);
    if (c != 0) return c < 0;
  }
  return parts.size() < other.parts.size();
}

size_t Key::Hash() const {
  size_t h = 0x345678;
  for (const auto& v : parts) {
    h = h * 1000003 ^ v.Hash();
  }
  return h;
}

std::string Key::ToString() const { return RowToString(parts); }

}  // namespace sirep::sql
