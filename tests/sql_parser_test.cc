// Unit tests for the SQL parser: every statement kind, expression
// precedence, parameters, and error paths.

#include "sql/parser.h"

#include <gtest/gtest.h>

namespace sirep::sql {
namespace {

Statement MustParse(const std::string& sql) {
  auto result = Parse(sql);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
  return std::move(result).value();
}

TEST(ParserTest, CreateTable) {
  auto stmt = MustParse(
      "CREATE TABLE t (id INT, name VARCHAR(20), price DOUBLE, ok BOOL, "
      "PRIMARY KEY (id))");
  ASSERT_EQ(stmt.kind, StatementKind::kCreateTable);
  const auto& ct = *stmt.create_table;
  EXPECT_EQ(ct.table, "t");
  ASSERT_EQ(ct.columns.size(), 4u);
  EXPECT_EQ(ct.columns[0].name, "id");
  EXPECT_EQ(ct.columns[0].type, ValueType::kInt);
  EXPECT_EQ(ct.columns[1].type, ValueType::kString);
  EXPECT_EQ(ct.columns[2].type, ValueType::kDouble);
  EXPECT_EQ(ct.columns[3].type, ValueType::kBool);
  ASSERT_EQ(ct.key_columns.size(), 1u);
  EXPECT_EQ(ct.key_columns[0], "id");
}

TEST(ParserTest, CreateTableCompositeKey) {
  auto stmt = MustParse(
      "CREATE TABLE ol (o INT, i INT, qty INT, PRIMARY KEY (o, i))");
  ASSERT_EQ(stmt.create_table->key_columns.size(), 2u);
}

TEST(ParserTest, CreateTableRequiresPrimaryKey) {
  EXPECT_FALSE(Parse("CREATE TABLE t (id INT)").ok());
}

TEST(ParserTest, InsertPositional) {
  auto stmt = MustParse("INSERT INTO t VALUES (1, 'a', 2.5, NULL)");
  ASSERT_EQ(stmt.kind, StatementKind::kInsert);
  EXPECT_EQ(stmt.insert->table, "t");
  EXPECT_TRUE(stmt.insert->columns.empty());
  ASSERT_EQ(stmt.insert->values.size(), 4u);
  EXPECT_EQ(stmt.insert->values[0]->literal, Value::Int(1));
  EXPECT_TRUE(stmt.insert->values[3]->literal.is_null());
}

TEST(ParserTest, InsertWithColumnList) {
  auto stmt = MustParse("INSERT INTO t (a, b) VALUES (?, ?)");
  ASSERT_EQ(stmt.insert->columns.size(), 2u);
  EXPECT_EQ(stmt.insert->values[0]->kind, ExprKind::kParam);
  EXPECT_EQ(stmt.insert->values[0]->param_index, 0);
  EXPECT_EQ(stmt.insert->values[1]->param_index, 1);
}

TEST(ParserTest, SelectStar) {
  auto stmt = MustParse("SELECT * FROM t");
  ASSERT_EQ(stmt.kind, StatementKind::kSelect);
  EXPECT_TRUE(stmt.select->star);
  EXPECT_EQ(stmt.select->table(), "t");
  EXPECT_EQ(stmt.select->where, nullptr);
}

TEST(ParserTest, SelectColumnsWhereOrderLimit) {
  auto stmt = MustParse(
      "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY b DESC LIMIT 10");
  const auto& sel = *stmt.select;
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[0].column, "a");
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->bin_op, BinOp::kAnd);
  ASSERT_TRUE(sel.order_by.has_value());
  EXPECT_EQ(*sel.order_by, "b");
  EXPECT_TRUE(sel.order_desc);
  EXPECT_EQ(sel.limit, 10);
}

TEST(ParserTest, SelectAggregates) {
  auto stmt = MustParse(
      "SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t");
  const auto& sel = *stmt.select;
  ASSERT_EQ(sel.items.size(), 5u);
  EXPECT_EQ(sel.items[0].agg, AggFunc::kCount);
  EXPECT_TRUE(sel.items[0].star);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(sel.items[1].column, "x");
  EXPECT_EQ(sel.items[4].agg, AggFunc::kMax);
}

TEST(ParserTest, StarOnlyValidInCount) {
  EXPECT_FALSE(Parse("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, Update) {
  auto stmt = MustParse("UPDATE t SET a = a + 1, b = ? WHERE id = 3");
  ASSERT_EQ(stmt.kind, StatementKind::kUpdate);
  const auto& up = *stmt.update;
  ASSERT_EQ(up.assignments.size(), 2u);
  EXPECT_EQ(up.assignments[0].first, "a");
  EXPECT_EQ(up.assignments[0].second->bin_op, BinOp::kAdd);
  ASSERT_NE(up.where, nullptr);
}

TEST(ParserTest, Delete) {
  auto stmt = MustParse("DELETE FROM t WHERE id = 1");
  ASSERT_EQ(stmt.kind, StatementKind::kDelete);
  EXPECT_EQ(stmt.delete_->table, "t");
  ASSERT_NE(stmt.delete_->where, nullptr);
}

TEST(ParserTest, DeleteWithoutWhere) {
  auto stmt = MustParse("DELETE FROM t");
  EXPECT_EQ(stmt.delete_->where, nullptr);
}

TEST(ParserTest, TransactionControl) {
  EXPECT_EQ(MustParse("BEGIN").kind, StatementKind::kBegin);
  EXPECT_EQ(MustParse("COMMIT").kind, StatementKind::kCommit);
  EXPECT_EQ(MustParse("ROLLBACK").kind, StatementKind::kRollback);
  EXPECT_EQ(MustParse("ABORT").kind, StatementKind::kRollback);
  for (const char* sql : {"BEGIN", "  commit;", "Rollback", "abort ;"}) {
    EXPECT_TRUE(IsTransactionControl(sql)) << sql;
  }
  for (const char* sql : {"SELECT * FROM t", "committed", "begin_x", ""}) {
    EXPECT_FALSE(IsTransactionControl(sql)) << sql;
  }
}

TEST(ParserTest, TrailingSemicolonAllowed) {
  EXPECT_EQ(MustParse("COMMIT;").kind, StatementKind::kCommit);
  EXPECT_EQ(MustParse("SELECT * FROM t;").kind, StatementKind::kSelect);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(Parse("COMMIT COMMIT").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t 123").ok());  // "t extra" would be an alias
}

TEST(ParserTest, ExpressionPrecedence) {
  // a = 1 OR b = 2 AND c = 3  parses as  a=1 OR (b=2 AND c=3)
  auto stmt = MustParse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  const auto* where = stmt.select->where.get();
  ASSERT_EQ(where->bin_op, BinOp::kOr);
  EXPECT_EQ(where->right->bin_op, BinOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3)
  auto stmt = MustParse("UPDATE t SET a = 1 + 2 * 3");
  const auto* expr = stmt.update->assignments[0].second.get();
  ASSERT_EQ(expr->bin_op, BinOp::kAdd);
  EXPECT_EQ(expr->right->bin_op, BinOp::kMul);
}

TEST(ParserTest, ParensOverridePrecedence) {
  auto stmt = MustParse("UPDATE t SET a = (1 + 2) * 3");
  const auto* expr = stmt.update->assignments[0].second.get();
  ASSERT_EQ(expr->bin_op, BinOp::kMul);
  EXPECT_EQ(expr->left->bin_op, BinOp::kAdd);
}

TEST(ParserTest, UnaryAndIsNull) {
  auto stmt = MustParse(
      "SELECT * FROM t WHERE NOT a = 1 AND b IS NULL AND c IS NOT NULL "
      "AND d = -5");
  EXPECT_NE(stmt.select->where, nullptr);
}

TEST(ParserTest, ParamNumberingIsLeftToRight) {
  auto stmt = MustParse("UPDATE t SET a = ?, b = ? WHERE id = ?");
  EXPECT_EQ(stmt.update->assignments[0].second->param_index, 0);
  EXPECT_EQ(stmt.update->assignments[1].second->param_index, 1);
  // WHERE id = ? is the third param.
  const auto* where = stmt.update->where.get();
  EXPECT_EQ(where->right->param_index, 2);
}

TEST(ParserTest, ErrorsCarryOffset) {
  auto result = Parse("SELECT FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, VariousMalformedInputs) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELEC * FROM t").ok());
  EXPECT_FALSE(Parse("INSERT INTO t").ok());
  EXPECT_FALSE(Parse("UPDATE t WHERE a = 1").ok());
  EXPECT_FALSE(Parse("DELETE t").ok());
  EXPECT_FALSE(Parse("CREATE TABLE (id INT, PRIMARY KEY (id))").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT x").ok());
}

TEST(ParserTest, ReadOnlyClassification) {
  EXPECT_TRUE(MustParse("SELECT * FROM t").IsReadOnly());
  EXPECT_FALSE(MustParse("UPDATE t SET a = 1").IsReadOnly());
  EXPECT_FALSE(MustParse("INSERT INTO t VALUES (1)").IsReadOnly());
  EXPECT_FALSE(MustParse("DELETE FROM t").IsReadOnly());
}

TEST(ParserTest, FromListAndAliases) {
  auto stmt = MustParse("SELECT a.x FROM t1 a, t2 AS b, t3");
  const auto& sel = *stmt.select;
  ASSERT_EQ(sel.tables.size(), 3u);
  EXPECT_EQ(sel.tables[0].table, "t1");
  EXPECT_EQ(sel.tables[0].alias, "a");
  EXPECT_EQ(sel.tables[1].alias, "b");
  EXPECT_EQ(sel.tables[2].alias, "t3");  // defaults to the table name
  EXPECT_EQ(sel.items[0].column, "a.x");
}

TEST(ParserTest, JoinOnFoldsIntoWhere) {
  auto stmt = MustParse(
      "SELECT x FROM t1 JOIN t2 ON t1.a = t2.b WHERE t1.c = 1");
  const auto& sel = *stmt.select;
  ASSERT_EQ(sel.tables.size(), 2u);
  // ON and WHERE combined with AND.
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->bin_op, BinOp::kAnd);
}

TEST(ParserTest, GroupByList) {
  auto stmt = MustParse(
      "SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY 3 DESC");
  const auto& sel = *stmt.select;
  ASSERT_EQ(sel.group_by.size(), 2u);
  EXPECT_EQ(sel.group_by[0], "a");
  EXPECT_EQ(sel.order_by_position, 3);
  EXPECT_TRUE(sel.order_desc);
}

TEST(ParserTest, OrderByAggregateNormalized) {
  auto stmt = MustParse(
      "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY SUM(b) DESC");
  ASSERT_TRUE(stmt.select->order_by.has_value());
  EXPECT_EQ(*stmt.select->order_by, "sum(b)");
  auto count = MustParse("SELECT COUNT(*) FROM t ORDER BY COUNT(*)");
  EXPECT_EQ(*count.select->order_by, "count(*)");
}

TEST(ParserTest, QualifiedColumnsInExpressions) {
  auto stmt = MustParse("SELECT x FROM t a WHERE a.k = 3 AND a.v > a.w");
  EXPECT_NE(stmt.select->where, nullptr);
  EXPECT_EQ(stmt.select->where->left->left->column, "a.k");
}

TEST(ParserTest, OrderByPositionMustBePositive) {
  EXPECT_FALSE(Parse("SELECT a FROM t ORDER BY 0").ok());
}

TEST(ParserTest, MalformedJoinRejected) {
  EXPECT_FALSE(Parse("SELECT x FROM t1 JOIN").ok());
  EXPECT_FALSE(Parse("SELECT x FROM t1 JOIN t2 ON").ok());
  EXPECT_FALSE(Parse("SELECT a. FROM t").ok());
}

}  // namespace
}  // namespace sirep::sql
