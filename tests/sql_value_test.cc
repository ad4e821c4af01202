// Unit tests for sql::Value, Row, and Key semantics.

#include "sql/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_set>

namespace sirep::sql {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Bool(true).AsBool());
}

TEST(ValueTest, IntDoubleCrossCompare) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(4.1).Compare(Value::Int(4)), 0);
}

TEST(ValueTest, IntDoubleCompareIsExact) {
  // An INT is never rounded to a DOUBLE, so equality stays transitive,
  // and values that compare equal hash equal.
  constexpr int64_t kBig = 1'000'000'000'000'000'000;
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const double two53 = static_cast<double>(kTwo53);
  const double two63 = 9223372036854775808.0;

  EXPECT_EQ(Value::Int(kBig).Compare(Value::Double(1e18)), 0);
  EXPECT_EQ(Value::Int(kBig).Hash(), Value::Double(1e18).Hash());
  EXPECT_GT(Value::Int(kTwo53 + 1).Compare(Value::Double(two53)), 0);
  EXPECT_LT(Value::Double(two53).Compare(Value::Int(kTwo53 + 1)), 0);
  EXPECT_LT(Value::Int(INT64_MAX).Compare(Value::Double(two63)), 0);
  EXPECT_GT(Value::Double(two63).Compare(Value::Int(INT64_MAX)), 0);
  EXPECT_EQ(Value::Int(INT64_MIN).Compare(Value::Double(-two63)), 0);
  EXPECT_EQ(Value::Int(INT64_MIN).Hash(), Value::Double(-two63).Hash());
  EXPECT_EQ(Value::Int(0).Compare(Value::Double(-0.0)), 0);
  EXPECT_EQ(Value::Int(0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Int(-3).Compare(Value::Double(-3.5)), 0);
  EXPECT_LT(Value::Int(-4).Compare(Value::Double(-3.5)), 0);
}

TEST(ValueTest, IntIntCompareExact) {
  // Large int64 values that would lose precision as doubles.
  const int64_t big = (int64_t{1} << 62) + 1;
  EXPECT_GT(Value::Int(big).Compare(Value::Int(big - 1)), 0);
  EXPECT_EQ(Value::Int(big).Compare(Value::Int(big)), 0);
}

TEST(ValueTest, NullComparesEqualAndLowest) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Null().Compare(Value::String("")), 0);
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
}

TEST(ValueTest, CrossTypeOrderingIsStable) {
  // NULL < BOOL < numeric < STRING
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::String("a")), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::String("k").Hash(), Value::String("k").Hash());
  // Compare-equal int and double hash equal (needed for key indexing).
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-4).ToString(), "-4");
  EXPECT_EQ(Value::String("s").ToString(), "'s'");
  EXPECT_EQ(Value::Bool(false).ToString(), "FALSE");
}

TEST(KeyTest, OrderingLexicographic) {
  Key a{{Value::Int(1), Value::Int(2)}};
  Key b{{Value::Int(1), Value::Int(3)}};
  Key c{{Value::Int(2)}};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(b < a);
  Key prefix{{Value::Int(1)}};
  EXPECT_TRUE(prefix < a);  // shorter prefix sorts first
}

TEST(KeyTest, EqualityAndHash) {
  Key a{{Value::Int(1), Value::String("x")}};
  Key b{{Value::Int(1), Value::String("x")}};
  Key c{{Value::Int(1), Value::String("y")}};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.Hash(), b.Hash());

  std::unordered_set<Key, KeyHash> set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);
}

TEST(KeyTest, WorksAsMapKey) {
  std::map<Key, int> m;
  m[Key{{Value::Int(2)}}] = 2;
  m[Key{{Value::Int(1)}}] = 1;
  m[Key{{Value::Int(3)}}] = 3;
  int expected = 1;
  for (const auto& [k, v] : m) EXPECT_EQ(v, expected++);
}

TEST(RowTest, ToStringFormats) {
  Row row{Value::Int(1), Value::String("a"), Value::Null()};
  EXPECT_EQ(RowToString(row), "(1, 'a', NULL)");
}

}  // namespace
}  // namespace sirep::sql
