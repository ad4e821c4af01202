// Replicated DDL: CREATE TABLE / CREATE INDEX issued through the driver
// take effect at every replica at the same total-order position, so
// writesets referencing new tables always find them; recovery replays
// schema changes from the writeset log.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/failpoint.h"

namespace sirep {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;
using sql::Value;

std::unique_ptr<Cluster> MakeCluster(size_t n) {
  ClusterOptions options;
  options.num_replicas = n;
  auto cluster = std::make_unique<Cluster>(options);
  EXPECT_TRUE(cluster->Start().ok());
  return cluster;
}

TEST(DdlReplicationTest, CreateTableReachesAllReplicas) {
  auto cluster = MakeCluster(3);
  auto conn = std::move(cluster->Connect()).value();
  ASSERT_TRUE(conn->Execute("CREATE TABLE t (k INT, v INT, "
                            "PRIMARY KEY (k))")
                  .ok());
  cluster->Quiesce();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_NE(cluster->db(r)->engine().GetTable("t"), nullptr)
        << "replica " << r;
  }
}

TEST(DdlReplicationTest, WritesAfterDdlApplyEverywhere) {
  auto cluster = MakeCluster(3);
  auto conn = std::move(cluster->Connect()).value();
  ASSERT_TRUE(conn->Execute("CREATE TABLE t (k INT, v INT, "
                            "PRIMARY KEY (k))")
                  .ok());
  // Immediately write through the same connection: the insert's writeset
  // is ordered after the DDL at every replica.
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (1, 42)").ok());
  cluster->Quiesce();
  for (size_t r = 0; r < 3; ++r) {
    auto res = cluster->db(r)->ExecuteAutoCommit(
        "SELECT v FROM t WHERE k = 1");
    ASSERT_TRUE(res.ok()) << "replica " << r << ": " << res.status();
    EXPECT_EQ(res.value().rows[0][0].AsInt(), 42) << "replica " << r;
  }
  EXPECT_EQ(cluster->DumpMetrics().counters.at("mw.remote_discards"), 0u);
}

TEST(DdlReplicationTest, CreateIndexReplicates) {
  auto cluster = MakeCluster(2);
  auto conn = std::move(cluster->Connect()).value();
  ASSERT_TRUE(conn->Execute("CREATE TABLE t (k INT, v INT, "
                            "PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(conn->Execute("CREATE INDEX t_v ON t (v)").ok());
  cluster->Quiesce();
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(cluster->db(r)->engine().GetTable("t")->HasIndex("v"))
        << "replica " << r;
  }
}

TEST(DdlReplicationTest, DuplicateCreateFailsEverywhereConsistently) {
  auto cluster = MakeCluster(2);
  auto conn = std::move(cluster->Connect()).value();
  ASSERT_TRUE(conn->Execute("CREATE TABLE t (k INT, PRIMARY KEY (k))").ok());
  auto dup = conn->Execute("CREATE TABLE t (k INT, PRIMARY KEY (k))");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(DdlReplicationTest, CrashReleasesAWaitingDdl) {
  auto cluster = MakeCluster(3);
  ASSERT_TRUE(cluster
                  ->ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(cluster->ExecuteEverywhere("INSERT INTO kv VALUES (1, 0)").ok());
  auto* origin = cluster->replica(0);
  auto ddl_handle = std::move(origin->BeginTxn()).value();

  // Every delivery thread holds in the validation of a writeset from
  // replica 1, so replica 0's CREATE TABLE queues behind it.
  failpoint::ScopedFailpoint hold("mw.validate", "delay(300ms)");
  std::thread writer([&] {
    auto* mw = cluster->replica(1);
    auto handle = std::move(mw->BeginTxn()).value();
    EXPECT_TRUE(mw->Execute(handle, "UPDATE kv SET v = 1 WHERE k = 1").ok());
    EXPECT_TRUE(mw->CommitTxn(handle).ok());
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (failpoint::Hits("mw.validate") < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(failpoint::Hits("mw.validate"), 3u);
  Status ddl;
  std::thread ddl_client([&] {
    ddl = origin
              ->Execute(ddl_handle,
                        "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
              .status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster->CrashReplica(0);
  ddl_client.join();
  writer.join();

  // The crash fails the waiting statement like a commit; the survivors
  // still run it at its position.
  EXPECT_EQ(ddl.code(), StatusCode::kUnavailable) << ddl;
  cluster->Quiesce();
  for (size_t r = 1; r < 3; ++r) {
    EXPECT_NE(cluster->db(r)->engine().GetTable("t"), nullptr)
        << "replica " << r;
  }
}

TEST(DdlReplicationTest, RecoveryReplaysDdlFromLog) {
  auto cluster = MakeCluster(3);
  auto conn = std::move(cluster->Connect()).value();
  ASSERT_TRUE(conn->Execute("CREATE TABLE old (k INT, PRIMARY KEY (k))").ok());
  cluster->Quiesce();
  cluster->CrashReplica(2);
  // Schema evolves while replica 2 is down.
  ASSERT_TRUE(conn->Execute("CREATE TABLE fresh (k INT, v INT, "
                            "PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(conn->Execute("INSERT INTO fresh VALUES (1, 7)").ok());
  cluster->Quiesce();
  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  auto res = cluster->db(2)->ExecuteAutoCommit(
      "SELECT v FROM fresh WHERE k = 1");
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().rows[0][0].AsInt(), 7);
}

TEST(DdlReplicationTest, FreshReplicaGetsSchemaViaFullCopy) {
  // Tiny log forces the full-copy path, whose table dumps carry schemas:
  // a node that never saw the replicated CREATE TABLE still ends up with
  // the table.
  ClusterOptions options;
  options.num_replicas = 2;
  options.replica.ws_log_capacity = 2;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto conn = std::move(cluster.Connect()).value();
  ASSERT_TRUE(conn->Execute("CREATE TABLE t (k INT, v INT, "
                            "PRIMARY KEY (k))")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (?, ?)",
                              {Value::Int(i), Value::Int(i * 2)})
                    .ok());
  }
  cluster.Quiesce();
  auto added = cluster.AddReplica(
      [](engine::Database*) { return Status::OK(); });  // no schema given
  ASSERT_TRUE(added.ok()) << added.status();
  auto res = cluster.db(added.value())
                 ->ExecuteAutoCommit("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().rows[0][0].AsInt(), 10);
}

TEST(DdlReplicationTest, DdlUnderConcurrentTraffic) {
  auto cluster = MakeCluster(3);
  auto setup = std::move(cluster->Connect()).value();
  ASSERT_TRUE(
      setup->Execute("CREATE TABLE base (k INT, v INT, PRIMARY KEY (k))")
          .ok());
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(setup->Execute("INSERT INTO base VALUES (?, 0)",
                               {Value::Int(k)})
                    .ok());
  }
  cluster->Quiesce();

  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      client::ConnectionOptions copt;
      copt.seed = 100 + w;
      auto conn = cluster->Connect(copt);
      if (!conn.ok()) return;
      conn.value()->SetAutoCommit(false);
      Prng prng(w);
      while (!stop.load()) {
        auto r = conn.value()->Execute(
            "UPDATE base SET v = v + 1 WHERE k = ?",
            {Value::Int(static_cast<int64_t>(prng.Uniform(8)))});
        if (r.ok() && conn.value()->Commit().ok()) {
          committed.fetch_add(1);
        } else {
          conn.value()->Rollback();
        }
      }
    });
  }
  // DDL storms while the writers run.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(setup
                    ->Execute("CREATE TABLE extra" + std::to_string(i) +
                              " (k INT, PRIMARY KEY (k))")
                    .ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : writers) t.join();
  cluster->Quiesce();
  EXPECT_GT(committed.load(), 0);
  // All replicas converged on both data and schema.
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster->db(r)->engine().TableNames().size(), 6u)
        << "replica " << r;
    auto sum = cluster->db(r)->ExecuteAutoCommit("SELECT SUM(v) FROM base");
    EXPECT_EQ(sum.value().rows[0][0].AsInt(), committed.load())
        << "replica " << r;
  }
}

}  // namespace
}  // namespace sirep
