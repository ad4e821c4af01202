// Driver-level tests: JDBC-like connection semantics over the replicated
// cluster (autocommit, explicit transactions, error handling, session
// behaviour).

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace sirep {
namespace {

using client::Connection;
using cluster::Cluster;
using cluster::ClusterOptions;
using sql::Value;

class ClientConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_replicas = 3;
    cluster_ = std::make_unique<Cluster>(options);
    ASSERT_TRUE(cluster_->Start().ok());
    ASSERT_TRUE(cluster_
                    ->ExecuteEverywhere(
                        "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                    .ok());
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(cluster_
                      ->ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                          {Value::Int(k)})
                      .ok());
    }
    auto conn = cluster_->Connect();
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(conn).value();
  }

  int64_t Read(int64_t k) {
    auto r = conn_->Execute("SELECT v FROM kv WHERE k = ?", {Value::Int(k)});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.value().rows[0][0].AsInt();
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(ClientConnectionTest, AutocommitPerStatement) {
  EXPECT_TRUE(conn_->autocommit());
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 5 WHERE k = 0").ok());
  EXPECT_FALSE(conn_->in_transaction());
  EXPECT_EQ(Read(0), 5);
}

TEST_F(ClientConnectionTest, ExplicitBeginCommit) {
  ASSERT_TRUE(conn_->Execute("BEGIN").ok());
  EXPECT_TRUE(conn_->in_transaction());
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 1 WHERE k = 1").ok());
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 2 WHERE k = 2").ok());
  // Other clients can't see uncommitted work.
  auto other = std::move(cluster_->Connect()).value();
  auto peek = other->Execute("SELECT v FROM kv WHERE k = 1");
  EXPECT_EQ(peek.value().rows[0][0].AsInt(), 0);
  ASSERT_TRUE(conn_->Execute("COMMIT").ok());
  EXPECT_FALSE(conn_->in_transaction());
  EXPECT_EQ(Read(1), 1);
  EXPECT_EQ(Read(2), 2);
}

TEST_F(ClientConnectionTest, RollbackStatement) {
  ASSERT_TRUE(conn_->Execute("BEGIN").ok());
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 9 WHERE k = 3").ok());
  ASSERT_TRUE(conn_->Execute("ROLLBACK").ok());
  EXPECT_EQ(Read(3), 0);
}

TEST_F(ClientConnectionTest, DoubleBeginRejected) {
  ASSERT_TRUE(conn_->Execute("BEGIN").ok());
  auto r = conn_->Execute("BEGIN");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  conn_->Rollback();
}

TEST_F(ClientConnectionTest, ImplicitBeginWithAutocommitOff) {
  conn_->SetAutoCommit(false);
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 7 WHERE k = 4").ok());
  EXPECT_TRUE(conn_->in_transaction());  // JDBC: first statement begins
  ASSERT_TRUE(conn_->Commit().ok());
  conn_->SetAutoCommit(true);
  EXPECT_EQ(Read(4), 7);
}

TEST_F(ClientConnectionTest, TransactionControlInAnyCaseWithSemicolon) {
  ASSERT_TRUE(conn_->Execute("  Begin;").ok());
  EXPECT_TRUE(conn_->in_transaction());
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 1 WHERE k = 1").ok());
  ASSERT_TRUE(conn_->Execute("cOmMiT ;").ok());
  EXPECT_FALSE(conn_->in_transaction());
  EXPECT_EQ(Read(1), 1);
  for (const char* rollback : {"rollback;", "Abort"}) {
    ASSERT_TRUE(conn_->Execute("begin").ok());
    ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 9 WHERE k = 2").ok());
    ASSERT_TRUE(conn_->Execute(rollback).ok()) << rollback;
    EXPECT_FALSE(conn_->in_transaction()) << rollback;
    EXPECT_EQ(Read(2), 0) << rollback;
  }
  // Trailing input after the keyword is the parser's error, and the
  // transaction stays open.
  ASSERT_TRUE(conn_->Execute("BEGIN").ok());
  EXPECT_EQ(conn_->Execute("COMMIT now").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn_->in_transaction());
  ASSERT_TRUE(conn_->Execute("ROLLBACK").ok());
}

TEST_F(ClientConnectionTest, ParseErrorLeavesConnectionUsable) {
  auto r = conn_->Execute("SELEC bogus");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("parse error"), std::string::npos)
      << r.status();
  EXPECT_FALSE(conn_->in_transaction());
  EXPECT_TRUE(conn_->Execute("SELECT v FROM kv WHERE k = 0").ok());
}

TEST_F(ClientConnectionTest, FailedStatementRollsBackTheTransactionItBegan) {
  // Same replica as conn_, so visibility does not wait on remote apply.
  client::ConnectionOptions same_replica;
  same_replica.pinned_replica =
      static_cast<int>(conn_->replica()->member_id());
  auto other = std::move(cluster_->Connect(same_replica)).value();
  for (bool autocommit : {true, false}) {
    conn_->SetAutoCommit(autocommit);
    EXPECT_EQ(conn_->Execute("UPDATE nosuch SET v = 1 WHERE k = 0")
                  .status()
                  .code(),
              StatusCode::kNotFound);
    EXPECT_FALSE(conn_->in_transaction()) << "autocommit " << autocommit;
    EXPECT_FALSE(conn_->Execute("SELEC bogus").ok());
    EXPECT_FALSE(conn_->in_transaction()) << "autocommit " << autocommit;
  }
  conn_->SetAutoCommit(true);
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 5 WHERE k = 0").ok());
  EXPECT_FALSE(conn_->in_transaction());
  auto peek = other->Execute("SELECT v FROM kv WHERE k = 0");
  ASSERT_TRUE(peek.ok()) << peek.status();
  EXPECT_EQ(peek.value().rows[0][0].AsInt(), 5);
}

TEST_F(ClientConnectionTest, CommitWithoutTxnIsNoop) {
  EXPECT_TRUE(conn_->Commit().ok());
  EXPECT_TRUE(conn_->Rollback().ok());
}

TEST_F(ClientConnectionTest, ReadYourOwnWritesWithinTxn) {
  conn_->SetAutoCommit(false);
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = 42 WHERE k = 0").ok());
  EXPECT_EQ(Read(0), 42);  // same transaction sees it
  conn_->Rollback();
  conn_->SetAutoCommit(true);
  EXPECT_EQ(Read(0), 0);
}

TEST_F(ClientConnectionTest, ReadYourWritesAcrossTransactions) {
  // Sticky sessions: consecutive transactions on one connection run at
  // the same replica, so committed writes are immediately visible.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = ? WHERE k = 0",
                               {Value::Int(i)})
                    .ok());
    EXPECT_EQ(Read(0), i);
  }
}

TEST_F(ClientConnectionTest, ConflictSurfacesAsConflictStatus) {
  client::ConnectionOptions o1, o2;
  o1.pinned_replica = 0;
  o2.pinned_replica = 1;
  auto c1 = std::move(cluster_->Connect(o1)).value();
  auto c2 = std::move(cluster_->Connect(o2)).value();
  c1->SetAutoCommit(false);
  c2->SetAutoCommit(false);
  ASSERT_TRUE(c1->Execute("UPDATE kv SET v = 1 WHERE k = 2").ok());
  ASSERT_TRUE(c2->Execute("UPDATE kv SET v = 2 WHERE k = 2").ok());
  Status s1 = c1->Commit();
  Status s2 = c2->Commit();
  EXPECT_NE(s1.ok(), s2.ok());
  const Status& failed = s1.ok() ? s2 : s1;
  EXPECT_EQ(failed.code(), StatusCode::kConflict);
}

TEST_F(ClientConnectionTest, ParamsFlowThrough) {
  ASSERT_TRUE(conn_->Execute("UPDATE kv SET v = ? WHERE k = ?",
                             {Value::Int(33), Value::Int(1)})
                  .ok());
  auto r = conn_->Execute("SELECT v FROM kv WHERE k = ?", {Value::Int(1)});
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 33);
}

TEST_F(ClientConnectionTest, DestructorRollsBackOpenTxn) {
  {
    auto conn = std::move(cluster_->Connect()).value();
    conn->SetAutoCommit(false);
    ASSERT_TRUE(conn->Execute("UPDATE kv SET v = 99 WHERE k = 3").ok());
    // Connection dropped with the transaction open.
  }
  EXPECT_EQ(Read(3), 0);
}

}  // namespace
}  // namespace sirep
