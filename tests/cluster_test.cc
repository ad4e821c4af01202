// Tests for the cluster harness: wiring, discovery, loading, the cost
// model, and capacity-limited charging.

#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sql/parser.h"

namespace sirep::cluster {
namespace {

using sql::Value;

TEST(CostModelTest, DisabledByDefault) {
  CostModel cost;
  EXPECT_FALSE(cost.enabled());
}

TEST(CostModelTest, StatementCosts) {
  CostModel cost;
  cost.select_service = std::chrono::microseconds(100);
  cost.update_service = std::chrono::microseconds(200);
  cost.insert_service = std::chrono::microseconds(300);
  cost.delete_service = std::chrono::microseconds(400);
  EXPECT_TRUE(cost.enabled());

  auto select = sql::Parse("SELECT * FROM t").value();
  auto update = sql::Parse("UPDATE t SET a = 1").value();
  auto insert = sql::Parse("INSERT INTO t VALUES (1)").value();
  auto del = sql::Parse("DELETE FROM t").value();
  EXPECT_EQ(cost.StatementCost(select).count(), 100);
  EXPECT_EQ(cost.StatementCost(update).count(), 200);
  EXPECT_EQ(cost.StatementCost(insert).count(), 300);
  EXPECT_EQ(cost.StatementCost(del).count(), 400);
}

TEST(CostModelTest, ApplyCostScalesWithWriteSetSize) {
  CostModel cost;
  cost.update_service = std::chrono::microseconds(1000);
  cost.apply_fraction = 0.2;
  storage::WriteSet ws;
  for (int64_t i = 0; i < 10; ++i) {
    ws.Record({"t", sql::Key{{Value::Int(i)}}}, storage::WriteOp::kUpdate,
              {Value::Int(i)});
  }
  // 10 entries * 20% of 1000us = 2000us: the paper's "applying writesets
  // takes ~20% of executing the entire transaction".
  EXPECT_EQ(cost.ApplyCost(ws).count(), 2000);
}

TEST(ReplicaNodeTest, ChargeIsNoopWhenDisabled) {
  ReplicaNode node("n", 1, CostModel{});
  const auto t0 = std::chrono::steady_clock::now();
  node.Charge(std::chrono::microseconds(100000));
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));
}

TEST(ReplicaNodeTest, CapacityLimitsParallelism) {
  CostModel cost;
  cost.update_service = std::chrono::microseconds(30000);  // 30 ms
  ReplicaNode node("n", /*workers=*/1, cost);
  node.SetEmulationEnabled(true);

  // Two concurrent charges through 1 worker => ~60 ms total.
  const auto t0 = std::chrono::steady_clock::now();
  std::thread other([&] { node.Charge(cost.update_service); });
  node.Charge(cost.update_service);
  other.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 55);
}

TEST(ClusterTest, StartAndDiscover) {
  ClusterOptions options;
  options.num_replicas = 4;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.Discover().size(), 4u);
  cluster.CrashReplica(2);
  EXPECT_EQ(cluster.Discover().size(), 3u);
}

TEST(ClusterTest, ExecuteEverywhereLoadsAllReplicas) {
  ClusterOptions options;
  options.num_replicas = 3;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(cluster.ExecuteEverywhere("INSERT INTO t VALUES (1, 5)").ok());
  for (size_t r = 0; r < 3; ++r) {
    auto result =
        cluster.db(r)->ExecuteAutoCommit("SELECT v FROM t WHERE k = 1");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().rows[0][0].AsInt(), 5);
  }
}

TEST(ClusterTest, LoadEverywhereRunsLoader) {
  ClusterOptions options;
  options.num_replicas = 2;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  int calls = 0;
  ASSERT_TRUE(cluster
                  .LoadEverywhere([&](engine::Database* db) -> Status {
                    ++calls;
                    auto r = db->ExecuteAutoCommit(
                        "CREATE TABLE x (k INT, PRIMARY KEY (k))");
                    return r.ok() ? Status::OK() : r.status();
                  })
                  .ok());
  EXPECT_EQ(calls, 2);
}

TEST(ClusterTest, EmulationTogglesPerNode) {
  ClusterOptions options;
  options.num_replicas = 1;
  options.cost.select_service = std::chrono::microseconds(30000);
  options.workers_per_replica = 1;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, PRIMARY KEY (k))")
                  .ok());

  // Emulation off: fast.
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(cluster.db(0)->ExecuteAutoCommit("SELECT * FROM t").ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));

  // Emulation on: the select takes >= 30ms.
  cluster.SetEmulationEnabled(true);
  t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(cluster.db(0)->ExecuteAutoCommit("SELECT * FROM t").ok());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(28));
}

TEST(ClusterTest, GcsDelayConfigurable) {
  ClusterOptions options;
  options.num_replicas = 2;
  options.gcs.multicast_delay = std::chrono::microseconds(3000);  // Spread-ish
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(cluster.ExecuteEverywhere("INSERT INTO t VALUES (1, 0)").ok());

  auto* mw = cluster.replica(0);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(mw->Execute(handle, "UPDATE t SET v = 1 WHERE k = 1").ok());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(mw->CommitTxn(handle).ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // The commit had to wait for the totally ordered (delayed) delivery.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2);
}

TEST(ClusterTest, DumpMetricsSumsReplicaCounters) {
  ClusterOptions options;
  options.num_replicas = 2;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(cluster.ExecuteEverywhere("INSERT INTO t VALUES (1, 0)").ok());
  auto* mw = cluster.replica(0);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(mw->Execute(handle, "UPDATE t SET v = 1 WHERE k = 1").ok());
  ASSERT_TRUE(mw->CommitTxn(handle).ok());
  cluster.Quiesce();
  // One local commit at replica 0 plus its remote apply at replica 1.
  EXPECT_EQ(cluster.DumpMetrics().counters.at("mw.committed"), 2u);
}

/// Names of this process's threads, from /proc/self/task/*/comm.
std::multiset<std::string> ThreadNames() {
  std::multiset<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.insert(name);
  }
  return names;
}

TEST(ClusterTest, ThreadsAreNamedByRole) {
  // Every thread the stack starts carries its role in its name, so the
  // per-thread CPU in /proc/self/task/*/stat can be attributed to it.
  ClusterOptions options;
  options.num_replicas = 3;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::multiset<std::string> names = ThreadNames();
  for (int member = 0; member < 3; ++member) {
    EXPECT_EQ(names.count("dlv/" + std::to_string(member)), 1u)
        << "no delivery thread for member " << member;
  }
  // One pool of appliers per replica.
  EXPECT_EQ(names.count("apply/0"), 3u);
}

TEST(ClusterTest, RetiredIncarnationsReleaseTheirThreads) {
  // A restart parks the dead incarnation for clients still holding it,
  // but its applier pool must not outlive it.
  ClusterOptions options;
  options.num_replicas = 3;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 3; ++i) {
    cluster.CrashReplica(2);
    ASSERT_TRUE(cluster.RestartReplica(2).ok());
  }
  EXPECT_EQ(ThreadNames().count("apply/0"), 3u);
}

constexpr char kKvSchema[] = "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))";

TEST(ClusterTest, RestartWhileAddReplicaGrowsTheCluster) {
  // A join appends to the cluster's node list, and its first append
  // reallocates it, while a restart works on the restarting replica's
  // node: both must go through, and the cluster grows once per join.
  ClusterOptions options;
  options.num_replicas = 3;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.ExecuteEverywhere(kKvSchema).ok());
  for (size_t round = 0; round < 3; ++round) {
    const size_t before = cluster.size();
    cluster.CrashReplica(2);
    Status joined;
    size_t joined_index = 0;
    std::thread joiner([&] {
      auto added = cluster.AddReplica([](engine::Database* db) {
        return db->ExecuteAutoCommit(kKvSchema).status();
      });
      joined = added.status();
      if (added.ok()) joined_index = added.value();
    });
    const Status restarted = cluster.RestartReplica(2);
    joiner.join();
    ASSERT_TRUE(restarted.ok()) << "round " << round << ": " << restarted;
    ASSERT_TRUE(joined.ok()) << "round " << round << ": " << joined;
    EXPECT_EQ(joined_index, before);
    EXPECT_EQ(cluster.size(), before + 1);
    EXPECT_TRUE(cluster.replica(2)->IsAcceptingClients());
  }
}

/// Every row of table t, in key order, one "k,v" string each.
std::vector<std::string> KvRows(engine::Database* db) {
  auto r = db->ExecuteAutoCommit("SELECT k, v FROM t ORDER BY k");
  EXPECT_TRUE(r.ok()) << r.status();
  std::vector<std::string> rows;
  if (!r.ok()) return rows;
  for (const auto& row : r.value().rows) rows.push_back(sql::RowToString(row));
  return rows;
}

TEST(ClusterTest, ReplicatedCommitsReachEveryGroupCommitWal) {
  // The middleware's two-phase commit against a group-commit WAL: the
  // commit inside the tocommit queue only buffers the record, and the
  // durability wait after it elects a flush leader, at the origin's
  // client and at four parallel appliers per replica. Each replica's log
  // must replay to exactly that replica's rows.
  constexpr size_t kReplicas = 3;
  constexpr int kClients = 4;
  constexpr int kRowsPerClient = 50;
  std::vector<std::string> paths;
  for (size_t i = 0; i < kReplicas; ++i) {
    paths.push_back((std::filesystem::temp_directory_path() /
                     ("sirep_cluster_wal_" + std::to_string(::getpid()) +
                      "_" + std::to_string(i) + ".wal"))
                        .string());
    std::filesystem::remove(paths.back());
  }
  std::vector<std::vector<std::string>> committed(kReplicas);
  {
    ClusterOptions options;
    options.num_replicas = kReplicas;
    options.replica.applier_threads = 4;
    Cluster cluster(options);
    for (size_t i = 0; i < kReplicas; ++i) {
      ASSERT_TRUE(
          cluster.db(i)->EnableWal(paths[i], /*group_commit=*/true).ok());
    }
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.ExecuteEverywhere(kKvSchema).ok());

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&cluster, c] {
        client::ConnectionOptions copts;
        copts.pinned_replica = c % 2;
        auto conn = cluster.Connect(copts);
        ASSERT_TRUE(conn.ok()) << conn.status();
        for (int i = 0; i < kRowsPerClient; ++i) {
          const int64_t k = c * kRowsPerClient + i;
          ASSERT_TRUE(conn.value()
                          ->Execute("INSERT INTO t VALUES (?, ?)",
                                    {Value::Int(k), Value::Int(c)})
                          .ok());
        }
      });
    }
    for (auto& t : clients) t.join();
    cluster.Quiesce();

    for (size_t i = 0; i < kReplicas; ++i) {
      committed[i] = KvRows(cluster.db(i));
      EXPECT_EQ(committed[i].size(),
                static_cast<size_t>(kClients * kRowsPerClient))
          << "replica " << i;
      EXPECT_EQ(committed[i], committed[0]) << "replica " << i;
      const auto snap = cluster.db(i)->engine().metrics().Snapshot();
      const auto it = snap.histograms.find("storage.wal_group_size");
      ASSERT_NE(it, snap.histograms.end()) << "replica " << i;
      EXPECT_GT(it->second.count, 0u) << "replica " << i;
    }
  }  // Shutdown joins the appliers, each after its durability wait.

  for (size_t i = 0; i < kReplicas; ++i) {
    engine::Database revived;
    ASSERT_TRUE(revived.ExecuteAutoCommit(kKvSchema).ok());
    ASSERT_TRUE(revived.RecoverFromWal(paths[i]).ok()) << "replica " << i;
    EXPECT_EQ(KvRows(&revived), committed[i]) << "replica " << i;
    std::filesystem::remove(paths[i]);
  }
}

}  // namespace
}  // namespace sirep::cluster
