// Integration tests for the decentralized SRCA-Rep middleware (paper
// Fig. 4) running over the full cluster: replication, validation aborts,
// the hidden-deadlock resolution of Adjustment 2, concurrency, and the
// SRCA-Opt mode.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cluster/cluster.h"

namespace sirep {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;
using middleware::ReplicaMode;
using middleware::SrcaRepReplica;
using sql::Value;

std::unique_ptr<Cluster> MakeCluster(size_t n,
                                     ReplicaMode mode = ReplicaMode::kSrcaRep) {
  ClusterOptions options;
  options.num_replicas = n;
  options.replica.mode = mode;
  auto cluster = std::make_unique<Cluster>(options);
  EXPECT_TRUE(cluster->Start().ok());
  EXPECT_TRUE(cluster
                  ->ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  for (int k = 0; k < 20; ++k) {
    EXPECT_TRUE(cluster
                    ->ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                        {Value::Int(k)})
                    .ok());
  }
  return cluster;
}

uint64_t Counter(const SrcaRepReplica& mw, const std::string& name) {
  return mw.metrics().Snapshot().counters.at(name);
}

int64_t ReadAt(Cluster& cluster, size_t replica, int64_t k) {
  auto r = cluster.db(replica)->ExecuteAutoCommit(
      "SELECT v FROM kv WHERE k = ?", {Value::Int(k)});
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().NumRows(), 1u);
  return r.value().rows[0][0].AsInt();
}

TEST(SrcaRepTest, UpdateReplicatesEverywhere) {
  auto cluster = MakeCluster(3);
  SrcaRepReplica* mw = cluster->replica(0);

  auto txn = mw->BeginTxn();
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  ASSERT_TRUE(
      mw->Execute(handle, "UPDATE kv SET v = 7 WHERE k = 3").ok());
  ASSERT_TRUE(mw->CommitTxn(handle).ok());

  cluster->Quiesce();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(ReadAt(*cluster, r, 3), 7) << "replica " << r;
  }
}

TEST(SrcaRepTest, ReadOnlyNeverMulticast) {
  auto cluster = MakeCluster(3);
  SrcaRepReplica* mw = cluster->replica(1);
  const uint64_t delivered_before = cluster->group().messages_delivered();

  auto txn = mw->BeginTxn();
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  auto r = mw->Execute(handle, "SELECT v FROM kv WHERE k = 1");
  ASSERT_TRUE(r.ok());
  bool had_writes = true;
  ASSERT_TRUE(mw->CommitTxn(handle, &had_writes).ok());
  EXPECT_FALSE(had_writes);

  cluster->Quiesce();
  EXPECT_EQ(cluster->group().messages_delivered(), delivered_before);
  EXPECT_EQ(Counter(*mw, "mw.empty_ws_commits"), 1u);
}

TEST(SrcaRepTest, ConcurrentConflictOneAborts) {
  auto cluster = MakeCluster(2);
  SrcaRepReplica* m0 = cluster->replica(0);
  SrcaRepReplica* m1 = cluster->replica(1);

  auto t0 = m0->BeginTxn();
  auto t1 = m1->BeginTxn();
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  auto h0 = std::move(t0).value();
  auto h1 = std::move(t1).value();

  ASSERT_TRUE(m0->Execute(h0, "UPDATE kv SET v = 10 WHERE k = 5").ok());
  ASSERT_TRUE(m1->Execute(h1, "UPDATE kv SET v = 11 WHERE k = 5").ok());

  Status s0 = m0->CommitTxn(h0);
  Status s1 = m1->CommitTxn(h1);
  // Exactly one commits (total order decides which).
  EXPECT_NE(s0.ok(), s1.ok());
  cluster->Quiesce();
  const int64_t winner = s0.ok() ? 10 : 11;
  EXPECT_EQ(ReadAt(*cluster, 0, 5), winner);
  EXPECT_EQ(ReadAt(*cluster, 1, 5), winner);
}

TEST(SrcaRepTest, NonConflictingConcurrentCommitsBothSucceed) {
  auto cluster = MakeCluster(2);
  auto h0 = std::move(cluster->replica(0)->BeginTxn()).value();
  auto h1 = std::move(cluster->replica(1)->BeginTxn()).value();
  ASSERT_TRUE(cluster->replica(0)
                  ->Execute(h0, "UPDATE kv SET v = 1 WHERE k = 1")
                  .ok());
  ASSERT_TRUE(cluster->replica(1)
                  ->Execute(h1, "UPDATE kv SET v = 2 WHERE k = 2")
                  .ok());
  EXPECT_TRUE(cluster->replica(0)->CommitTxn(h0).ok());
  EXPECT_TRUE(cluster->replica(1)->CommitTxn(h1).ok());
  cluster->Quiesce();
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(ReadAt(*cluster, r, 1), 1);
    EXPECT_EQ(ReadAt(*cluster, r, 2), 2);
  }
}

TEST(SrcaRepTest, LocalValidationAbortsAgainstQueuedRemote) {
  // A transaction that conflicts with a remote writeset still sitting in
  // the local tocommit queue must fail *local* validation (Fig. 4 I.2.d).
  // We force the queue to be non-empty by holding a lock at replica 1 so
  // the remote apply blocks there.
  auto cluster = MakeCluster(2);
  SrcaRepReplica* m0 = cluster->replica(0);
  SrcaRepReplica* m1 = cluster->replica(1);

  // Blocker at replica 1 holds the lock on k=9.
  auto blocker = std::move(m1->BeginTxn()).value();
  ASSERT_TRUE(m1->Execute(blocker, "UPDATE kv SET v = 99 WHERE k = 9").ok());

  // Commit an update to k=9 at replica 0: it validates and commits
  // locally, and its remote apply at replica 1 blocks behind `blocker`.
  auto writer = std::move(m0->BeginTxn()).value();
  ASSERT_TRUE(m0->Execute(writer, "UPDATE kv SET v = 1 WHERE k = 9").ok());
  ASSERT_TRUE(m0->CommitTxn(writer).ok());
  // Give the writeset time to reach replica 1's queue.
  for (int i = 0; i < 200 && m1->PendingQueueSize() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(m1->PendingQueueSize(), 0u);

  // `blocker` now tries to commit: local validation sees the conflicting
  // queued remote writeset and aborts it.
  Status st = m1->CommitTxn(blocker);
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  EXPECT_GE(Counter(*m1, "mw.local_val_aborts"), 1u);

  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 1, 9), 1);  // the remote apply went through
}

TEST(SrcaRepTest, HiddenDeadlockResolvedByImmediateLocalCommit) {
  // The §4.2 scenario that stalls SRCA forever: with Adjustment 2,
  // SRCA-Rep commits the validated local transaction immediately, which
  // breaks the cycle.
  auto cluster = MakeCluster(2);
  SrcaRepReplica* m0 = cluster->replica(0);
  SrcaRepReplica* m1 = cluster->replica(1);

  // Ti (local at 0) holds x=7; Tj (local at 0) holds y=8.
  auto ti = std::move(m0->BeginTxn()).value();
  auto tj = std::move(m0->BeginTxn()).value();
  ASSERT_TRUE(m0->Execute(ti, "UPDATE kv SET v = 1 WHERE k = 7").ok());
  ASSERT_TRUE(m0->Execute(tj, "UPDATE kv SET v = 1 WHERE k = 8").ok());

  // Tr (local at 1) writes y=8; its apply at replica 0 blocks on Tj.
  auto tr = std::move(m1->BeginTxn()).value();
  ASSERT_TRUE(m1->Execute(tr, "UPDATE kv SET v = 2 WHERE k = 8").ok());
  ASSERT_TRUE(m1->CommitTxn(tr).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Tj blocks on x=7 (held by Ti) inside the database.
  std::thread tj_thread([&] {
    auto r = m0->Execute(tj, "UPDATE kv SET v = 2 WHERE k = 7");
    // Tj becomes a deadlock victim or fails validation later; either way
    // it must not hang.
    if (!r.ok()) m0->RollbackTxn(tj);
  });

  // Ti commits: under SRCA this would stall (hidden deadlock); SRCA-Rep
  // must complete it promptly.
  Status st = m0->CommitTxn(ti);
  EXPECT_TRUE(st.ok()) << st;
  tj_thread.join();

  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 0, 7), 1);
  EXPECT_EQ(ReadAt(*cluster, 0, 8), 2);
  EXPECT_EQ(ReadAt(*cluster, 1, 8), 2);
}

TEST(SrcaRepTest, ManyClientsConvergeAcrossReplicas) {
  auto cluster = MakeCluster(3);
  constexpr int kClients = 6;
  constexpr int kTxns = 25;
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SrcaRepReplica* mw = cluster->replica(static_cast<size_t>(c) % 3);
      Prng prng(static_cast<uint64_t>(c) + 1);
      for (int i = 0; i < kTxns; ++i) {
        auto txn = mw->BeginTxn();
        if (!txn.ok()) continue;
        auto handle = std::move(txn).value();
        const int64_t k = static_cast<int64_t>(prng.Uniform(20));
        auto r = mw->Execute(handle, "UPDATE kv SET v = v + 1 WHERE k = ?",
                             {Value::Int(k)});
        if (!r.ok()) {
          mw->RollbackTxn(handle);
          continue;
        }
        if (mw->CommitTxn(handle).ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  cluster->Quiesce();

  int64_t sum0 = 0;
  for (int k = 0; k < 20; ++k) sum0 += ReadAt(*cluster, 0, k);
  EXPECT_EQ(sum0, committed.load());
  for (size_t r = 1; r < 3; ++r) {
    for (int k = 0; k < 20; ++k) {
      EXPECT_EQ(ReadAt(*cluster, r, k), ReadAt(*cluster, 0, k))
          << "replica " << r << " key " << k;
    }
  }
  EXPECT_EQ(cluster->DumpMetrics().counters.at("mw.committed"),
            static_cast<uint64_t>(committed.load()) * 3);
}

TEST(SrcaRepTest, SrcaOptModeAlsoConverges) {
  auto cluster = MakeCluster(3, ReplicaMode::kSrcaOpt);
  constexpr int kClients = 6;
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SrcaRepReplica* mw = cluster->replica(static_cast<size_t>(c) % 3);
      Prng prng(static_cast<uint64_t>(c) + 99);
      for (int i = 0; i < 25; ++i) {
        auto txn = mw->BeginTxn();
        if (!txn.ok()) continue;
        auto handle = std::move(txn).value();
        const int64_t k = static_cast<int64_t>(prng.Uniform(20));
        if (!mw->Execute(handle, "UPDATE kv SET v = v + 1 WHERE k = ?",
                         {Value::Int(k)})
                 .ok()) {
          mw->RollbackTxn(handle);
          continue;
        }
        if (mw->CommitTxn(handle).ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  cluster->Quiesce();
  // SRCA-Opt keeps write/write agreement (validation order still rules),
  // so replicas converge; only the global snapshot property is weakened.
  int64_t sum0 = 0;
  for (int k = 0; k < 20; ++k) sum0 += ReadAt(*cluster, 0, k);
  EXPECT_EQ(sum0, committed.load());
  for (size_t r = 1; r < 3; ++r) {
    for (int k = 0; k < 20; ++k) {
      EXPECT_EQ(ReadAt(*cluster, r, k), ReadAt(*cluster, 0, k));
    }
  }
  // SRCA-Opt never blocks starts.
  EXPECT_EQ(cluster->DumpMetrics().Percentiles("mw.begin.hole_wait_us").count,
            0u);
}

TEST(SrcaRepTest, RollbackDiscardsWrites) {
  auto cluster = MakeCluster(2);
  SrcaRepReplica* mw = cluster->replica(0);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(mw->Execute(handle, "UPDATE kv SET v = 5 WHERE k = 0").ok());
  ASSERT_TRUE(mw->RollbackTxn(handle).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 0, 0), 0);
  EXPECT_EQ(ReadAt(*cluster, 1, 0), 0);
}

TEST(SrcaRepTest, InsertsAndDeletesReplicate) {
  auto cluster = MakeCluster(3);
  SrcaRepReplica* mw = cluster->replica(2);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(
      mw->Execute(handle, "INSERT INTO kv VALUES (100, 1)").ok());
  ASSERT_TRUE(mw->Execute(handle, "DELETE FROM kv WHERE k = 19").ok());
  ASSERT_TRUE(mw->CommitTxn(handle).ok());
  cluster->Quiesce();
  for (size_t r = 0; r < 3; ++r) {
    auto inserted = cluster->db(r)->ExecuteAutoCommit(
        "SELECT COUNT(*) FROM kv WHERE k = 100");
    EXPECT_EQ(inserted.value().rows[0][0].AsInt(), 1) << "replica " << r;
    auto deleted = cluster->db(r)->ExecuteAutoCommit(
        "SELECT COUNT(*) FROM kv WHERE k = 19");
    EXPECT_EQ(deleted.value().rows[0][0].AsInt(), 0) << "replica " << r;
  }
}

TEST(SrcaRepTest, StatsAccounting) {
  auto cluster = MakeCluster(2);
  SrcaRepReplica* mw = cluster->replica(0);
  for (int i = 0; i < 5; ++i) {
    auto handle = std::move(mw->BeginTxn()).value();
    ASSERT_TRUE(mw->Execute(handle, "UPDATE kv SET v = v + 1 WHERE k = 1")
                    .ok());
    ASSERT_TRUE(mw->CommitTxn(handle).ok());
  }
  cluster->Quiesce();
  EXPECT_EQ(Counter(*cluster->replica(0), "mw.committed"), 5u);  // local
  EXPECT_EQ(Counter(*cluster->replica(1), "mw.committed"), 5u);  // remote
  EXPECT_EQ(Counter(*cluster->replica(0), "mw.holes.starts"), 5u);
}

}  // namespace
}  // namespace sirep
