// End-to-end SQL tests against a single Database, plus Session semantics
// (autocommit, implicit begin, rollback on failure).

#include "engine/database.h"

#include <gtest/gtest.h>

#include "engine/session.h"

namespace sirep::engine {
namespace {

using sql::Value;

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE acct (id INT, owner VARCHAR(20), bal DOUBLE, "
         "branch INT, PRIMARY KEY (id))");
    Must("INSERT INTO acct VALUES (1, 'alice', 100.0, 1)");
    Must("INSERT INTO acct VALUES (2, 'bob', 200.0, 1)");
    Must("INSERT INTO acct VALUES (3, 'carol', 300.0, 2)");
    Must("INSERT INTO acct VALUES (4, 'dave', 400.0, 2)");
  }

  QueryResult Must(const std::string& sql,
                   const std::vector<Value>& params = {}) {
    auto result = db_.ExecuteAutoCommit(sql, params);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  Database db_;
};

TEST_F(DatabaseTest, SelectStar) {
  auto r = Must("SELECT * FROM acct");
  EXPECT_EQ(r.NumRows(), 4u);
  ASSERT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns[0], "id");
}

TEST_F(DatabaseTest, SelectProjectionAndFilter) {
  auto r = Must("SELECT owner, bal FROM acct WHERE branch = 2");
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "carol");
}

TEST_F(DatabaseTest, PointLookupByKey) {
  auto r = Must("SELECT bal FROM acct WHERE id = 2");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 200.0);
}

TEST_F(DatabaseTest, OrderByAndLimit) {
  auto r = Must("SELECT id FROM acct ORDER BY bal DESC LIMIT 2");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
}

TEST_F(DatabaseTest, Aggregates) {
  auto r = Must(
      "SELECT COUNT(*), SUM(bal), AVG(bal), MIN(bal), MAX(bal) FROM acct");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 250.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 400.0);
}

TEST_F(DatabaseTest, AggregatesOnEmptySet) {
  auto r = Must("SELECT COUNT(*), SUM(bal) FROM acct WHERE id = 99");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(DatabaseTest, UpdateWithExpression) {
  auto r = Must("UPDATE acct SET bal = bal + 50.0 WHERE branch = 1");
  EXPECT_EQ(r.rows_affected, 2);
  auto check = Must("SELECT bal FROM acct WHERE id = 1");
  EXPECT_DOUBLE_EQ(check.rows[0][0].AsDouble(), 150.0);
}

TEST_F(DatabaseTest, UpdateByKeyAffectsOne) {
  auto r = Must("UPDATE acct SET owner = 'ALICE' WHERE id = 1");
  EXPECT_EQ(r.rows_affected, 1);
}

TEST_F(DatabaseTest, UpdateNoMatchAffectsZero) {
  auto r = Must("UPDATE acct SET bal = 0.0 WHERE id = 999");
  EXPECT_EQ(r.rows_affected, 0);
}

TEST_F(DatabaseTest, UpdatePrimaryKeyRejected) {
  auto result = db_.ExecuteAutoCommit("UPDATE acct SET id = 9 WHERE id = 1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

TEST_F(DatabaseTest, DeleteWithPredicate) {
  auto r = Must("DELETE FROM acct WHERE bal >= 300.0");
  EXPECT_EQ(r.rows_affected, 2);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM acct").rows[0][0].AsInt(), 2);
}

TEST_F(DatabaseTest, InsertWithColumnListFillsNulls) {
  Must("INSERT INTO acct (id, owner) VALUES (9, 'eve')");
  auto r = Must("SELECT bal FROM acct WHERE id = 9");
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(DatabaseTest, ParameterizedStatements) {
  Must("INSERT INTO acct VALUES (?, ?, ?, ?)",
       {Value::Int(10), Value::String("pat"), Value::Double(5.0),
        Value::Int(3)});
  auto r = Must("SELECT owner FROM acct WHERE id = ?", {Value::Int(10)});
  EXPECT_EQ(r.rows[0][0].AsString(), "pat");
}

TEST_F(DatabaseTest, TypeMismatchRejected) {
  auto result =
      db_.ExecuteAutoCommit("INSERT INTO acct VALUES ('x', 'y', 1.0, 1)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, UnknownTableAndColumnErrors) {
  EXPECT_EQ(db_.ExecuteAutoCommit("SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(db_.ExecuteAutoCommit("SELECT zz FROM acct").ok());
}

TEST_F(DatabaseTest, PreparedStatementsAreCached) {
  auto s1 = db_.Prepare("SELECT * FROM acct");
  auto s2 = db_.Prepare("SELECT * FROM acct");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1.value().get(), s2.value().get());
}

TEST_F(DatabaseTest, PreparedStatementCacheIsBounded) {
  // Inlined literals make every text distinct: one cache entry each.
  const size_t texts = Database::kMaxPreparedStatements + 100;
  auto text = [](size_t i) {
    return "SELECT owner FROM acct WHERE id = " + std::to_string(i % 4 + 1) +
           " AND branch < " + std::to_string(i + 3);
  };
  for (size_t i = 0; i < texts; ++i) {
    ASSERT_TRUE(db_.Prepare(text(i)).ok());
    ASSERT_LE(db_.PreparedCount(), Database::kMaxPreparedStatements);
  }
  // Evicted texts are parsed again and still run.
  for (size_t i = 0; i < texts; ++i) {
    EXPECT_EQ(Must(text(i)).NumRows(), 1u) << text(i);
  }
  EXPECT_LE(db_.PreparedCount(), Database::kMaxPreparedStatements);
}

TEST_F(DatabaseTest, TransactionControlRejectedAtDatabaseLevel) {
  auto txn = db_.Begin();
  EXPECT_FALSE(db_.Execute(txn, "COMMIT").ok());
  db_.Abort(txn);
}

TEST_F(DatabaseTest, MultiStatementTransactionAtomicity) {
  auto txn = db_.Begin();
  ASSERT_TRUE(
      db_.Execute(txn, "UPDATE acct SET bal = bal - 10.0 WHERE id = 1").ok());
  ASSERT_TRUE(
      db_.Execute(txn, "UPDATE acct SET bal = bal + 10.0 WHERE id = 2").ok());
  db_.Abort(txn);  // roll everything back
  EXPECT_DOUBLE_EQ(
      Must("SELECT bal FROM acct WHERE id = 1").rows[0][0].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(
      Must("SELECT bal FROM acct WHERE id = 2").rows[0][0].AsDouble(), 200.0);
}

// ---- Session semantics ----

TEST_F(DatabaseTest, SessionAutocommit) {
  Session session(&db_);
  auto r = session.Execute("UPDATE acct SET bal = 0.0 WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(session.in_transaction());  // committed automatically
  EXPECT_DOUBLE_EQ(
      Must("SELECT bal FROM acct WHERE id = 1").rows[0][0].AsDouble(), 0.0);
}

TEST_F(DatabaseTest, SessionExplicitTransaction) {
  Session session(&db_);
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("UPDATE acct SET bal = 1.0 WHERE id = 1").ok());
  EXPECT_TRUE(session.in_transaction());
  ASSERT_TRUE(session.Execute("ROLLBACK").ok());
  EXPECT_DOUBLE_EQ(
      Must("SELECT bal FROM acct WHERE id = 1").rows[0][0].AsDouble(), 100.0);

  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("UPDATE acct SET bal = 2.0 WHERE id = 1").ok());
  ASSERT_TRUE(session.Execute("COMMIT").ok());
  EXPECT_DOUBLE_EQ(
      Must("SELECT bal FROM acct WHERE id = 1").rows[0][0].AsDouble(), 2.0);
}

TEST_F(DatabaseTest, SessionImplicitBeginWithAutocommitOff) {
  Session session(&db_);
  session.SetAutoCommit(false);
  ASSERT_TRUE(session.Execute("UPDATE acct SET bal = 9.0 WHERE id = 1").ok());
  EXPECT_TRUE(session.in_transaction());  // JDBC-style implicit begin
  // Not yet visible to others.
  EXPECT_DOUBLE_EQ(
      Must("SELECT bal FROM acct WHERE id = 1").rows[0][0].AsDouble(), 100.0);
  ASSERT_TRUE(session.Commit().ok());
  EXPECT_DOUBLE_EQ(
      Must("SELECT bal FROM acct WHERE id = 1").rows[0][0].AsDouble(), 9.0);
}

TEST_F(DatabaseTest, SessionDoubleBeginRejected) {
  Session session(&db_);
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  EXPECT_FALSE(session.Execute("BEGIN").ok());
}

TEST_F(DatabaseTest, SessionSeesConflictAsAbort) {
  Session s1(&db_), s2(&db_);
  ASSERT_TRUE(s1.Execute("BEGIN").ok());
  ASSERT_TRUE(s2.Execute("BEGIN").ok());
  ASSERT_TRUE(s1.Execute("UPDATE acct SET bal = 1.0 WHERE id = 1").ok());
  ASSERT_TRUE(s1.Execute("COMMIT").ok());
  auto r = s2.Execute("UPDATE acct SET bal = 2.0 WHERE id = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConflict);
  EXPECT_FALSE(s2.in_transaction());  // aborted and forgotten
}

TEST_F(DatabaseTest, InPredicate) {
  auto r = Must("SELECT id FROM acct WHERE id IN (1, 3, 9) ORDER BY id");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
  auto none = Must("SELECT id FROM acct WHERE id NOT IN (1, 2, 3, 4)");
  EXPECT_EQ(none.NumRows(), 0u);
}

TEST_F(DatabaseTest, BetweenPredicate) {
  auto r = Must("SELECT id FROM acct WHERE bal BETWEEN 150.0 AND 350.0 "
                "ORDER BY id");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
  auto outside =
      Must("SELECT COUNT(*) FROM acct WHERE bal NOT BETWEEN 150.0 AND 350.0");
  EXPECT_EQ(outside.rows[0][0].AsInt(), 2);
}

TEST_F(DatabaseTest, LikePredicate) {
  auto r = Must("SELECT owner FROM acct WHERE owner LIKE 'c%'");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "carol");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM acct WHERE owner LIKE '%o%'")
                .rows[0][0]
                .AsInt(),
            2);  // bob, carol
  EXPECT_EQ(Must("SELECT COUNT(*) FROM acct WHERE owner LIKE '_ob'")
                .rows[0][0]
                .AsInt(),
            1);  // bob
  EXPECT_EQ(Must("SELECT COUNT(*) FROM acct WHERE owner NOT LIKE '%a%'")
                .rows[0][0]
                .AsInt(),
            1);  // bob
  EXPECT_EQ(Must("SELECT COUNT(*) FROM acct WHERE owner LIKE 'alice'")
                .rows[0][0]
                .AsInt(),
            1);  // no wildcards: exact match
  // LIKE on a non-string errors.
  EXPECT_FALSE(
      db_.ExecuteAutoCommit("SELECT * FROM acct WHERE bal LIKE 'x'").ok());
}

TEST_F(DatabaseTest, InWithParamsAndExpressions) {
  auto r = Must("SELECT id FROM acct WHERE id IN (?, ? + 1) ORDER BY id",
                {Value::Int(1), Value::Int(2)});
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
}

}  // namespace
}  // namespace sirep::engine
