// Online recovery tests (the paper's §5.4 extension / stated future
// work): restarting crashed replicas and adding fresh ones while the
// cluster keeps committing, via writeset logging and a marker-based state
// transfer in the total order.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "test_variant.h"

namespace sirep {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;
using sql::Value;

std::unique_ptr<Cluster> MakeCluster(
    size_t n, ClusterOptions options = test::VariantOptions()) {
  options.num_replicas = n;
  auto cluster = std::make_unique<Cluster>(options);
  EXPECT_TRUE(cluster->Start().ok());
  EXPECT_TRUE(cluster
                  ->ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  for (int k = 0; k < 10; ++k) {
    EXPECT_TRUE(cluster
                    ->ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                        {Value::Int(k)})
                    .ok());
  }
  return cluster;
}

int64_t ReadAt(Cluster& cluster, size_t replica, int64_t k) {
  auto r = cluster.db(replica)->ExecuteAutoCommit(
      "SELECT v FROM kv WHERE k = ?", {Value::Int(k)});
  EXPECT_TRUE(r.ok()) << r.status();
  return r.value().rows[0][0].AsInt();
}

Status CommitUpdate(Cluster& cluster, size_t replica, int64_t k, int64_t v) {
  auto* mw = cluster.replica(replica);
  auto txn = mw->BeginTxn();
  if (!txn.ok()) return txn.status();
  auto handle = std::move(txn).value();
  auto r = mw->Execute(handle, "UPDATE kv SET v = ? WHERE k = ?",
                       {Value::Int(v), Value::Int(k)});
  if (!r.ok()) {
    mw->RollbackTxn(handle);
    return r.status();
  }
  return mw->CommitTxn(handle);
}

TEST(RecoveryTest, RestartedReplicaCatchesUp) {
  auto cluster = MakeCluster(3);
  // Some committed history everywhere.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitUpdate(*cluster, 0, i, i + 100).ok());
  }
  cluster->Quiesce();

  // Replica 2 crashes; the cluster keeps committing without it.
  cluster->CrashReplica(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitUpdate(*cluster, 1, i, i + 200).ok());
  }
  cluster->Quiesce();
  // The crashed replica's DB is stale.
  EXPECT_EQ(ReadAt(*cluster, 2, 0), 100);

  // Online restart: a new incarnation catches up from the writeset log.
  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  ASSERT_TRUE(cluster->replica(2)->IsAcceptingClients());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ReadAt(*cluster, 2, i), i + 200) << "key " << i;
  }
}

TEST(RecoveryTest, RecoveredReplicaParticipatesAgain) {
  auto cluster = MakeCluster(3);
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 1, 7).ok());
  cluster->Quiesce();
  cluster->CrashReplica(1);
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 2, 8).ok());
  cluster->Quiesce();
  ASSERT_TRUE(cluster->RestartReplica(1).ok());

  // The recovered incarnation can run local update transactions that
  // replicate everywhere...
  ASSERT_TRUE(CommitUpdate(*cluster, 1, 3, 9).ok());
  cluster->Quiesce();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(ReadAt(*cluster, r, 3), 9) << "replica " << r;
  }
  // ...and receives later remote writesets.
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 4, 10).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 1, 4), 10);
}

TEST(RecoveryTest, RestartedReplicaAnswersForWritesetsItCommittedBefore) {
  auto cluster = MakeCluster(3);
  auto* origin = cluster->replica(0);
  const gcs::MemberId origin_id = origin->member_id();
  auto handle = std::move(origin->BeginTxn()).value();
  const middleware::GlobalTxnId gid = handle.gid;
  ASSERT_TRUE(origin->Execute(handle, "UPDATE kv SET v = 42 WHERE k = 1").ok());
  ASSERT_TRUE(origin->CommitTxn(handle).ok());
  cluster->Quiesce();

  // Replica 1's new incarnation recovers past the writeset without
  // replaying it: its previous incarnation committed it.
  cluster->CrashReplica(1);
  ASSERT_TRUE(cluster->RestartReplica(1).ok());
  // Replica 2's crash makes the new incarnation install, while live, a
  // view that contains the origin; then the origin crashes.
  cluster->CrashReplica(2);
  cluster->CrashReplica(0);

  // Every replica committed the writeset, so it must not be called lost.
  EXPECT_EQ(cluster->replica(1)->InquireOutcome(gid, origin_id),
            middleware::TxnOutcome::kCommitted);
  EXPECT_EQ(ReadAt(*cluster, 1, 1), 42);
}

TEST(RecoveryTest, RecoveryConcurrentWithTraffic) {
  // The headline property: transaction processing never stops while a
  // replica recovers, and the recovered replica still converges.
  auto cluster = MakeCluster(3);
  cluster->CrashReplica(2);

  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Prng prng(w + 1);
      while (!stop.load()) {
        const int64_t k = static_cast<int64_t>(prng.Uniform(10));
        if (CommitUpdate(*cluster, static_cast<size_t>(w) % 2, k,
                         static_cast<int64_t>(prng.Uniform(100000)))
                .ok()) {
          committed.fetch_add(1);
        }
      }
    });
  }
  // Let traffic build history, then recover under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& t : writers) t.join();
  cluster->Quiesce();
  EXPECT_GT(committed.load(), 0);

  for (int k = 0; k < 10; ++k) {
    const int64_t expect = ReadAt(*cluster, 0, k);
    EXPECT_EQ(ReadAt(*cluster, 1, k), expect) << "key " << k;
    EXPECT_EQ(ReadAt(*cluster, 2, k), expect) << "key " << k;
  }
}

TEST(RecoveryTest, FreshReplicaJoinsViaFullReplay) {
  auto cluster = MakeCluster(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CommitUpdate(*cluster, 0, i % 10, i + 500).ok());
  }
  cluster->Quiesce();

  // A brand-new node: schema only, no data (inserts arrive via the log
  // replay? no — the seed data was loaded out-of-band, so the new node
  // needs the same out-of-band load; the *writesets* carry everything
  // committed through the middleware).
  auto added = cluster->AddReplica([](engine::Database* db) -> Status {
    auto r = db->ExecuteAutoCommit(
        "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))");
    if (!r.ok()) return r.status();
    for (int k = 0; k < 10; ++k) {
      auto ins = db->ExecuteAutoCommit("INSERT INTO kv VALUES (?, 0)",
                                       {sql::Value::Int(k)});
      if (!ins.ok()) return ins.status();
    }
    return Status::OK();
  });
  ASSERT_TRUE(added.ok()) << added.status();
  const size_t idx = added.value();
  EXPECT_EQ(cluster->size(), 3u);

  // Caught up with all replicated updates.
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(ReadAt(*cluster, idx, k), ReadAt(*cluster, 0, k)) << k;
  }
  // And fully live.
  ASSERT_TRUE(CommitUpdate(*cluster, idx, 0, 777).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 0, 0), 777);
}

TEST(RecoveryTest, RecoveringReplicaInvisibleToDiscovery) {
  auto cluster = MakeCluster(3);
  cluster->CrashReplica(1);
  EXPECT_EQ(cluster->Discover().size(), 2u);
  ASSERT_TRUE(cluster->RestartReplica(1).ok());
  EXPECT_EQ(cluster->Discover().size(), 3u);
}

TEST(RecoveryTest, RestartOfLiveReplicaRejected) {
  auto cluster = MakeCluster(2);
  EXPECT_EQ(cluster->RestartReplica(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster->RestartReplica(9).code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, RecoverWithoutFlagRejected) {
  auto cluster = MakeCluster(2);
  EXPECT_EQ(cluster->replica(0)->Recover(0).code(),
            StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, NoEligibleDonorReturnsRetryable) {
  // Recover() itself — below the cluster's cold-start logic — must fail
  // fast and clean when no donor exists: a retryable status from its
  // single attempt, never a hang.
  ClusterOptions options = test::VariantOptions();
  options.num_replicas = 1;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  cluster.CrashReplica(0);
  middleware::ReplicaOptions ropt = test::VariantOptions().replica;
  ropt.start_recovering = true;
  middleware::SrcaRepReplica joiner(cluster.db(0), &cluster.group(), ropt);
  ASSERT_TRUE(joiner.Start().ok());
  const auto start = std::chrono::steady_clock::now();
  const Status st = joiner.Recover(0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  joiner.Crash();  // detach the joined listener before destruction
}

TEST(RecoveryTest, SoleCrashedReplicaColdStarts) {
  // With every replica down there is no donor, so online recovery is
  // impossible — but the replica holding the longest stable prefix may
  // cold-start over its surviving database and seed the new epoch.
  ClusterOptions options = test::VariantOptions();
  options.num_replicas = 1;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(cluster.ExecuteEverywhere("INSERT INTO kv VALUES (1, 0)").ok());
  ASSERT_TRUE(CommitUpdate(cluster, 0, 1, 41).ok());
  cluster.CrashReplica(0);
  ASSERT_TRUE(cluster.RestartReplica(0).ok());
  EXPECT_EQ(ReadAt(cluster, 0, 1), 41);
  // And the cold-started incarnation processes new commits.
  ASSERT_TRUE(CommitUpdate(cluster, 0, 1, 42).ok());
  EXPECT_EQ(ReadAt(cluster, 0, 1), 42);
}

TEST(RecoveryTest, ClusterOutageColdStartsLongestPrefixFirst) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 1, 10).ok());
  cluster->Quiesce();
  cluster->CrashReplica(1);
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 2, 20).ok());
  cluster->Quiesce();
  cluster->CrashReplica(0);

  // The shorter-prefix replica may not seed the new epoch: it is missing
  // an acknowledged commit that only replica 0 holds.
  EXPECT_EQ(cluster->RestartReplica(1).code(), StatusCode::kUnavailable);
  // The longest-prefix replica cold-starts...
  ASSERT_TRUE(cluster->RestartReplica(0).ok());
  // ...and the rest recover from it normally. Its writeset log is empty,
  // which must force a fresh full copy rather than silently skipping the
  // suffix.
  ASSERT_TRUE(cluster->RestartReplica(1).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 1, 2), 20);
  ASSERT_TRUE(CommitUpdate(*cluster, 1, 3, 30).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 0, 3), 30);
}

TEST(RecoveryTest, RestartAfterCrashWithBlockedTransactions) {
  // The crashed incarnation left transactions holding locks; a restart
  // must clear them or recovery replay would block forever.
  auto cluster = MakeCluster(3);
  auto* mw = cluster->replica(2);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(mw->Execute(handle, "UPDATE kv SET v = 1 WHERE k = 5").ok());
  // Crash with the lock on k=5 still held.
  cluster->CrashReplica(2);

  // The survivors commit a conflicting update.
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 5, 42).ok());
  cluster->Quiesce();

  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  EXPECT_EQ(ReadAt(*cluster, 2, 5), 42);
}

TEST(RecoveryTest, ChainedCrashAndRecover) {
  auto cluster = MakeCluster(3);
  for (int round = 0; round < 3; ++round) {
    const size_t victim = static_cast<size_t>(round) % 3;
    ASSERT_TRUE(
        CommitUpdate(*cluster, (victim + 1) % 3, round, round * 10).ok());
    cluster->Quiesce();
    cluster->CrashReplica(victim);
    ASSERT_TRUE(
        CommitUpdate(*cluster, (victim + 1) % 3, round, round * 10 + 1).ok());
    cluster->Quiesce();
    ASSERT_TRUE(cluster->RestartReplica(victim).ok()) << "round " << round;
    EXPECT_EQ(ReadAt(*cluster, victim, round), round * 10 + 1);
  }
  // Everyone ends identical.
  for (int k = 0; k < 10; ++k) {
    const int64_t expect = ReadAt(*cluster, 0, k);
    EXPECT_EQ(ReadAt(*cluster, 1, k), expect);
    EXPECT_EQ(ReadAt(*cluster, 2, k), expect);
  }
}

TEST(RecoveryTest, FullCopyFallbackWhenLogTruncated) {
  // Replicas keep only a tiny writeset log; after enough commits while a
  // replica is down, incremental catch-up is impossible and the donor
  // sends a full online state copy instead.
  ClusterOptions options = test::VariantOptions();
  options.num_replicas = 3;
  options.replica.ws_log_capacity = 4;  // tiny window
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(cluster
                    .ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                       {Value::Int(k)})
                    .ok());
  }
  cluster.CrashReplica(2);
  // Far more commits than the log window, including deletes and inserts
  // (the full copy must remove rows the donor no longer has).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(CommitUpdate(cluster, 0, i % 10, i + 1).ok());
  }
  {
    auto* mw = cluster.replica(0);
    auto handle = std::move(mw->BeginTxn()).value();
    ASSERT_TRUE(mw->Execute(handle, "DELETE FROM kv WHERE k = 9").ok());
    ASSERT_TRUE(mw->Execute(handle, "INSERT INTO kv VALUES (100, 7)").ok());
    ASSERT_TRUE(mw->CommitTxn(handle).ok());
  }
  cluster.Quiesce();

  ASSERT_TRUE(cluster.RestartReplica(2).ok());
  // Full state equality, including the delete and the insert.
  auto donor = cluster.db(0)->ExecuteAutoCommit("SELECT * FROM kv ORDER BY k");
  auto recovered =
      cluster.db(2)->ExecuteAutoCommit("SELECT * FROM kv ORDER BY k");
  ASSERT_EQ(recovered.value().NumRows(), donor.value().NumRows());
  for (size_t i = 0; i < donor.value().rows.size(); ++i) {
    EXPECT_EQ(recovered.value().rows[i], donor.value().rows[i]) << "row " << i;
  }
  // And it participates again.
  ASSERT_TRUE(CommitUpdate(cluster, 2, 0, 999).ok());
  cluster.Quiesce();
  EXPECT_EQ(ReadAt(cluster, 0, 0), 999);
}

// Shared setup for the full-copy tests: a 3-replica cluster with a
// tiny writeset log and `rows` rows in kv, replica 2 crashed, and far
// more commits than the log window — so its restart is forced through a
// full copy.
std::unique_ptr<Cluster> MakeFullCopyCluster(ClusterOptions options,
                                             int rows = 10) {
  options.num_replicas = 3;
  options.replica.ws_log_capacity = 4;
  auto cluster = std::make_unique<Cluster>(options);
  EXPECT_TRUE(cluster->Start().ok());
  EXPECT_TRUE(cluster
                  ->ExecuteEverywhere(
                      "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  for (int k = 0; k < rows; ++k) {
    EXPECT_TRUE(cluster
                    ->ExecuteEverywhere("INSERT INTO kv VALUES (?, 0)",
                                        {Value::Int(k)})
                    .ok());
  }
  cluster->CrashReplica(2);
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(CommitUpdate(*cluster, 0, i % rows, i + 1).ok());
  }
  cluster->Quiesce();
  return cluster;
}

void ExpectConverged(Cluster& cluster, size_t a, size_t b) {
  auto ra = cluster.db(a)->ExecuteAutoCommit("SELECT * FROM kv ORDER BY k");
  auto rb = cluster.db(b)->ExecuteAutoCommit("SELECT * FROM kv ORDER BY k");
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.value().rows, rb.value().rows)
      << "replicas " << a << " and " << b << " diverged";
}

TEST(RecoveryTest, FullCopyOfATableLargerThanTwoBatches) {
  auto cluster = MakeFullCopyCluster(
      test::VariantOptions(),
      static_cast<int>(2 * middleware::kRecoveryBatchRows + 1));

  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  ExpectConverged(*cluster, 0, 2);
  // The copy really took several batches.
  const auto counters = cluster->replica(2)->metrics().Snapshot().counters;
  EXPECT_GE(counters.at("mw.recovery.chunks_received"), 3u);
  ASSERT_TRUE(CommitUpdate(*cluster, 2, 0, 999).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 0, 0), 999);
}

TEST(RecoveryTest, DonorCrashMidTransferFailsOver) {
  auto cluster = MakeFullCopyCluster(test::VariantOptions());

  // The first donor crashes once the recoverer applied the first batch
  // of its copy; the recoverer must fail over to the surviving replica
  // and complete a fresh transfer from it.
  failpoint::ScopedFailpoint fp("mw.recovery.donor_crash_mid_transfer",
                                "1in(1,crash)*1");
  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  ASSERT_TRUE(cluster->replica(2)->IsAcceptingClients());
  const auto counters = cluster->DumpMetrics().counters;
  EXPECT_GE(counters.at("mw.recovery.donor_switches"), 1u);

  // Exactly one donor died mid-donation; the recoverer converged with
  // the survivor.
  const size_t survivor = cluster->replica(0)->IsAlive() ? 0 : 1;
  EXPECT_FALSE(cluster->replica(1 - survivor)->IsAlive());
  ExpectConverged(*cluster, survivor, 2);
}

TEST(RecoveryTest, FullCopyFromLaggingDonorKeepsEveryCommit) {
  auto cluster = MakeFullCopyCluster(test::VariantOptions());

  // A local transaction at replica 1 holds row 5, so the commit of
  // 4242 below is validated there but cannot apply: replica 1's stable
  // prefix lags replica 0's.
  auto* lagging = cluster->replica(1);
  auto blocker = std::move(lagging->BeginTxn()).value();
  ASSERT_TRUE(
      lagging->Execute(blocker, "UPDATE kv SET v = -1 WHERE k = 5").ok());
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 5, 4242).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (lagging->PendingQueueSize() != 1 ||
         lagging->StableCommitPrefix() >=
             cluster->replica(0)->StableCommitPrefix()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Replica 0 donates the full copy first and dies once the recoverer
  // applied its first batch; replica 1 must ship the commit its dump
  // lacks in its log.
  {
    failpoint::ScopedFailpoint fp("mw.recovery.donor_crash_mid_transfer",
                                  "1in(1,crash)*1");
    ASSERT_TRUE(cluster->RestartReplica(2).ok());
  }
  ASSERT_TRUE(lagging->RollbackTxn(blocker).ok());
  cluster->Quiesce();

  EXPECT_EQ(ReadAt(*cluster, 1, 5), 4242);
  EXPECT_EQ(ReadAt(*cluster, 2, 5), 4242);
  ExpectConverged(*cluster, 1, 2);
}

// A crashed incarnation's stable prefix must never cover a validated
// writeset it did not commit, or its restart skips that writeset. Replica
// 2's only applier blocks on a row its own open transaction holds, a
// second remote writeset waits behind it in the pipeline, and a local
// commit lands after both. Once the crash releases the blocked apply, the
// queued writeset never runs at the dead incarnation.
TEST(RecoveryTest, CrashedApplierNeverAdvancesStablePrefix) {
  ClusterOptions options = test::VariantOptions();
  options.replica.applier_threads = 1;
  auto cluster = MakeCluster(3, options);
  auto* victim = cluster->replica(2);
  auto blocker = std::move(victim->BeginTxn()).value();
  ASSERT_TRUE(
      victim->Execute(blocker, "UPDATE kv SET v = -1 WHERE k = 5").ok());
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 5, 55).ok());  // tid 1: blocks
  ASSERT_TRUE(CommitUpdate(*cluster, 0, 6, 66).ok());  // tid 2: waits
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (victim->PendingQueueSize() != 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(CommitUpdate(*cluster, 2, 7, 77).ok());  // tid 3, out of order

  cluster->CrashReplica(2);
  ASSERT_TRUE(victim->RollbackTxn(blocker).ok());  // tid 1's apply resumes
  const auto watch_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < watch_until) {
    ASSERT_LT(victim->StableCommitPrefix(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  cluster->Quiesce();
  for (int64_t k : {5, 6, 7}) {
    EXPECT_EQ(ReadAt(*cluster, 2, k), ReadAt(*cluster, 0, k)) << "key " << k;
  }
  EXPECT_EQ(ReadAt(*cluster, 0, 6), 66);
}

// A validated writeset a replica cannot apply makes it crash (fail-stop)
// instead of skipping the writeset and serving a diverged copy; the
// restarted incarnation recovers the writeset from a donor.
TEST(RecoveryTest, UnretryableApplyFailureCrashesReplica) {
  auto cluster = MakeCluster(3);
  {
    // Fires at whichever of replicas 1 and 2 applies first.
    failpoint::ScopedFailpoint fp("mw.apply", "error(internal)*1");
    ASSERT_TRUE(CommitUpdate(*cluster, 0, 5, 55).ok());
    ASSERT_TRUE(CommitUpdate(*cluster, 0, 6, 66).ok());
    cluster->Quiesce();
  }
  std::vector<size_t> crashed;
  for (size_t r = 0; r < 3; ++r) {
    if (!cluster->replica(r)->IsAlive()) crashed.push_back(r);
  }
  ASSERT_EQ(crashed.size(), 1u);
  ASSERT_TRUE(cluster->RestartReplica(crashed[0]).ok());
  cluster->Quiesce();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(ReadAt(*cluster, r, 5), 55) << "replica " << r;
    EXPECT_EQ(ReadAt(*cluster, r, 6), 66) << "replica " << r;
  }
}

TEST(RecoveryTest, BoundedBufferSpillsAndReanchors) {
  ClusterOptions options = test::VariantOptions();
  options.replica.recovery_buffer_high_water = 4;
  auto cluster = MakeFullCopyCluster(options);

  // Stretch the transfer after every batch while live traffic keeps
  // delivering to the buffering recoverer: the bounded buffer must hit
  // its high-water mark, spill, and re-anchor the transfer instead of
  // growing without bound. The mark doubles on every spill, so a later
  // attempt finishes.
  failpoint::ScopedFailpoint stall("mw.recovery.stall", "delay(5ms)*40");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      (void)CommitUpdate(*cluster, 0, i % 10, 1000 + i);
      ++i;
    }
  });
  const Status restarted = cluster->RestartReplica(2);
  stop.store(true);
  writer.join();
  ASSERT_TRUE(restarted.ok()) << restarted;
  cluster->Quiesce();

  const auto counters = cluster->DumpMetrics().counters;
  EXPECT_GE(counters.at("mw.recovery.buffer_spills"), 1u);
  ExpectConverged(*cluster, 0, 2);
  ExpectConverged(*cluster, 1, 2);
}

TEST(RecoveryTest, VacuumKeepsReplicasUsable) {
  auto cluster = MakeCluster(2);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CommitUpdate(*cluster, 0, i % 10, i).ok());
  }
  cluster->Quiesce();
  const size_t freed = cluster->VacuumAll();
  EXPECT_GT(freed, 0u);
  // Replication continues to work post-vacuum.
  ASSERT_TRUE(CommitUpdate(*cluster, 1, 5, 4242).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadAt(*cluster, 0, 5), 4242);
  EXPECT_EQ(ReadAt(*cluster, 1, 5), 4242);
}

}  // namespace
}  // namespace sirep
