// Tests for multi-table SELECT: comma joins, JOIN..ON, aliases,
// qualified names, GROUP BY, and ORDER BY position.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace sirep::engine {
namespace {

using sql::Value;

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE dept (d_id INT, d_name VARCHAR(20), "
         "PRIMARY KEY (d_id))");
    Must("CREATE TABLE emp (e_id INT, e_name VARCHAR(20), e_dept INT, "
         "e_sal INT, PRIMARY KEY (e_id))");
    Must("INSERT INTO dept VALUES (1, 'eng')");
    Must("INSERT INTO dept VALUES (2, 'sales')");
    Must("INSERT INTO dept VALUES (3, 'empty')");
    Must("INSERT INTO emp VALUES (10, 'ann', 1, 120)");
    Must("INSERT INTO emp VALUES (11, 'bob', 1, 100)");
    Must("INSERT INTO emp VALUES (12, 'cat', 2, 90)");
    Must("INSERT INTO emp VALUES (13, 'dan', 2, 90)");
  }

  QueryResult Must(const std::string& sql,
                   const std::vector<Value>& params = {}) {
    auto result = db_.ExecuteAutoCommit(sql, params);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  Database db_;
};

TEST_F(JoinTest, CommaJoinWithWhere) {
  auto r = Must(
      "SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id "
      "ORDER BY e_name");
  ASSERT_EQ(r.NumRows(), 4u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows[0][1].AsString(), "eng");
  EXPECT_EQ(r.rows[2][0].AsString(), "cat");
  EXPECT_EQ(r.rows[2][1].AsString(), "sales");
}

TEST_F(JoinTest, ExplicitJoinOn) {
  auto r = Must(
      "SELECT e_name FROM emp JOIN dept ON e_dept = d_id "
      "WHERE d_name = 'eng' ORDER BY e_name");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows[1][0].AsString(), "bob");
}

TEST_F(JoinTest, AliasesAndQualifiedColumns) {
  auto r = Must(
      "SELECT e.e_name, d.d_name FROM emp e JOIN dept d ON "
      "e.e_dept = d.d_id WHERE d.d_id = 2 ORDER BY e.e_name");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.columns[0], "e.e_name");
  EXPECT_EQ(r.rows[0][0].AsString(), "cat");
}

TEST_F(JoinTest, AsAliasKeyword) {
  auto r = Must(
      "SELECT x.e_name FROM emp AS x WHERE x.e_id = 10");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
}

TEST_F(JoinTest, SelfJoinNeedsAliases) {
  // Pairs of employees in the same department (e1 < e2).
  auto r = Must(
      "SELECT a.e_name, b.e_name FROM emp a JOIN emp b ON "
      "a.e_dept = b.e_dept WHERE a.e_id < b.e_id ORDER BY a.e_id");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows[0][1].AsString(), "bob");
  EXPECT_EQ(r.rows[1][0].AsString(), "cat");
  EXPECT_EQ(r.rows[1][1].AsString(), "dan");
}

TEST_F(JoinTest, AmbiguousPlainColumnRejected) {
  auto r = db_.ExecuteAutoCommit(
      "SELECT e_name FROM emp a, emp b WHERE a.e_id = b.e_id");
  EXPECT_FALSE(r.ok());  // e_name resolves in both a and b
}

TEST_F(JoinTest, InnerJoinDropsUnmatched) {
  // dept 3 has no employees; an employee with no dept never matches.
  Must("INSERT INTO emp VALUES (14, 'eve', 99, 50)");
  auto r = Must("SELECT COUNT(*) FROM emp JOIN dept ON e_dept = d_id");
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
}

TEST_F(JoinTest, CartesianProductWithoutCondition) {
  auto r = Must("SELECT COUNT(*) FROM emp, dept");
  EXPECT_EQ(r.rows[0][0].AsInt(), 4 * 3);
}

TEST_F(JoinTest, ThreeWayJoin) {
  Must("CREATE TABLE loc (l_dept INT, l_city VARCHAR(20), "
       "PRIMARY KEY (l_dept))");
  Must("INSERT INTO loc VALUES (1, 'nyc')");
  Must("INSERT INTO loc VALUES (2, 'sfo')");
  auto r = Must(
      "SELECT e_name, l_city FROM emp JOIN dept ON e_dept = d_id "
      "JOIN loc ON d_id = l_dept WHERE e_id = 12");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "sfo");
}

TEST_F(JoinTest, GroupByWithAggregates) {
  auto r = Must(
      "SELECT e_dept, COUNT(*), SUM(e_sal), AVG(e_sal) FROM emp "
      "GROUP BY e_dept ORDER BY e_dept");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[0][2].AsInt(), 220);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 110.0);
  EXPECT_EQ(r.rows[1][2].AsInt(), 180);
}

TEST_F(JoinTest, GroupByOverJoin) {
  auto r = Must(
      "SELECT d_name, COUNT(*) FROM emp JOIN dept ON e_dept = d_id "
      "GROUP BY d_name ORDER BY d_name");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "eng");
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsString(), "sales");
}

TEST_F(JoinTest, OrderByPositionOnAggregate) {
  auto r = Must(
      "SELECT e_dept, SUM(e_sal) FROM emp GROUP BY e_dept "
      "ORDER BY 2 DESC LIMIT 1");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);  // eng has the bigger payroll
}

TEST_F(JoinTest, OrderByOutputColumnName) {
  auto r = Must(
      "SELECT e_dept, SUM(e_sal) FROM emp GROUP BY e_dept "
      "ORDER BY sum(e_sal) DESC");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(JoinTest, NonGroupedColumnRejected) {
  auto r = db_.ExecuteAutoCommit(
      "SELECT e_name, COUNT(*) FROM emp GROUP BY e_dept");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(JoinTest, GroupByUnknownColumnRejected) {
  EXPECT_FALSE(
      db_.ExecuteAutoCommit("SELECT COUNT(*) FROM emp GROUP BY zz").ok());
}

TEST_F(JoinTest, GroupByEmptyInputYieldsNoRows) {
  auto r = Must(
      "SELECT e_dept, COUNT(*) FROM emp WHERE e_sal > 9999 "
      "GROUP BY e_dept");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(JoinTest, UngroupedAggregateStillOneRow) {
  auto r = Must("SELECT COUNT(*) FROM emp WHERE e_sal > 9999");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(JoinTest, JoinSeesOwnWritesInTransaction) {
  auto txn = db_.Begin();
  ASSERT_TRUE(
      db_.Execute(txn, "INSERT INTO emp VALUES (20, 'zed', 1, 70)").ok());
  auto r = db_.Execute(
      txn, "SELECT COUNT(*) FROM emp JOIN dept ON e_dept = d_id "
           "WHERE d_id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 3);
  db_.Abort(txn);
}

TEST_F(JoinTest, JoinRespectsSnapshot) {
  auto reader = db_.Begin();
  // Concurrent commit adds an eng employee.
  Must("INSERT INTO emp VALUES (21, 'new', 1, 80)");
  auto r = db_.Execute(
      reader, "SELECT COUNT(*) FROM emp JOIN dept ON e_dept = d_id "
              "WHERE d_id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 2);  // snapshot predates insert
  db_.Abort(reader);
}

TEST_F(JoinTest, IntAndDoubleKeysJoinWhenEqual) {
  // 10^18 as INT and as DOUBLE are equal, so they hash alike and join.
  Must("CREATE TABLE a (k INT, x INT, PRIMARY KEY (k))");
  Must("CREATE TABLE b (k INT, y DOUBLE, PRIMARY KEY (k))");
  Must("INSERT INTO a VALUES (?, ?)",
       {Value::Int(1), Value::Int(1'000'000'000'000'000'000)});
  Must("INSERT INTO a VALUES (?, ?)", {Value::Int(2), Value::Int(5)});
  Must("INSERT INTO b VALUES (?, ?)", {Value::Int(1), Value::Double(1e18)});
  Must("INSERT INTO b VALUES (?, ?)", {Value::Int(2), Value::Double(5.0)});
  auto r = Must("SELECT a.k, b.k FROM a JOIN b ON x = y ORDER BY a.k");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
}

TEST_F(JoinTest, GroupByMergesEqualIntAndDouble) {
  // A DOUBLE column holds 10^18 once as an INT and once as a DOUBLE.
  Must("CREATE TABLE c (k INT, y DOUBLE, PRIMARY KEY (k))");
  Must("INSERT INTO c VALUES (?, ?)",
       {Value::Int(1), Value::Int(1'000'000'000'000'000'000)});
  Must("INSERT INTO c VALUES (?, ?)", {Value::Int(2), Value::Double(1e18)});
  auto r = Must("SELECT y, COUNT(*) FROM c GROUP BY y");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
}

TEST_F(JoinTest, SelectStarOnJoinUsesQualifiedNames) {
  auto r = Must("SELECT * FROM emp JOIN dept ON e_dept = d_id LIMIT 1");
  ASSERT_EQ(r.columns.size(), 4u + 2u);
  EXPECT_EQ(r.columns[0], "emp.e_id");
  EXPECT_EQ(r.columns[4], "dept.d_id");
}

}  // namespace
}  // namespace sirep::engine
