// 1-copy-SI under partial replication. The cluster is 4 replicas, 8
// partitions, replication factor 2 — two disjoint holder groups, slots
// {0,1} and {2,3}, each running its own total order. Clients obey the
// routing contract (transactions execute at a holder of every partition
// they write; the middleware aborts misroutes), and the 1-copy-SI
// observables are asserted against the replicas that hold the data:
//
//  * the snapshot staircase holds per group, and each group validates
//    only its own transactions;
//  * cross-partition transactions *within* a group commit normally and
//    read their own writes;
//  * misrouted transactions abort before dissemination, leaving every
//    replica untouched;
//  * a holder crashing mid-commit of a cross-partition transaction
//    loses nothing: the group peer commits it, and the crashed holder
//    recovers its partitions from that peer;
//  * a whole-group outage mid-commit is reported as "outcome unknown",
//    never acknowledged, and the group cold-starts on its own;
//  * cross-group operations (AddReplica, runtime DDL) are refused.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "test_variant.h"

namespace sirep {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;
using cluster::PartitionMap;
using middleware::ReplicaMode;
using sql::Value;

constexpr size_t kReplicas = 4;
constexpr size_t kPartitions = 8;
constexpr size_t kRf = 2;

std::unique_ptr<Cluster> MakePartialCluster() {
  ClusterOptions options = test::VariantOptions();
  options.num_replicas = kReplicas;
  options.replica.mode = ReplicaMode::kSrcaRep;
  options.partitions = kPartitions;
  options.replication_factor = kRf;
  auto cluster = std::make_unique<Cluster>(options);
  EXPECT_TRUE(cluster->Start().ok());
  EXPECT_NE(cluster->partition_map(), nullptr);
  EXPECT_TRUE(cluster->partition_map()->partial());
  return cluster;
}

storage::TupleId Tuple(const std::string& table, int64_t k) {
  return {table, sql::Key{{Value::Int(k)}}};
}

size_t GroupOfKey(const PartitionMap& map, const std::string& table,
                  int64_t k) {
  return map.GroupOfPartition(map.PartitionOf(Tuple(table, k)));
}

/// First slot of `group` (groups are contiguous runs of rf slots).
size_t FirstSlotOfGroup(size_t group) { return group * kRf; }

/// Smallest key >= `from` whose partition belongs to `group`,
/// optionally avoiding one partition (to force cross-partition
/// writesets within a group).
int64_t FindKeyInGroup(const PartitionMap& map, const std::string& table,
                       size_t group, int64_t from,
                       int64_t avoid_partition = -1) {
  for (int64_t k = from;; ++k) {
    const size_t p = map.PartitionOf(Tuple(table, k));
    if (map.GroupOfPartition(p) == group &&
        static_cast<int64_t>(p) != avoid_partition) {
      return k;
    }
  }
}

Status Commit1(middleware::SrcaRepReplica* mw, const std::string& sql) {
  auto txn = mw->BeginTxn();
  if (!txn.ok()) return txn.status();
  auto handle = std::move(txn).value();
  Status st = mw->Execute(handle, sql).status();
  if (!st.ok()) {
    mw->RollbackTxn(handle);
    return st;
  }
  return mw->CommitTxn(handle);
}

/// A driver counter from the process-default registry (0 if never
/// registered).
uint64_t DriverCounter(const std::string& name) {
  const auto snap = obs::MetricsRegistry::Default().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

int64_t ReadV(engine::Database* db, int64_t k) {
  auto r = db->ExecuteAutoCommit("SELECT v FROM pair WHERE k = " +
                                 std::to_string(k));
  if (!r.ok() || r.value().NumRows() != 1) return -1;
  return r.value().rows[0][0].AsInt();
}

struct Observation {
  int64_t x, y;
};

bool IsStaircase(const std::vector<Observation>& obs, std::string* bad) {
  auto sorted = obs;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].y < sorted[i - 1].y && sorted[i].x > sorted[i - 1].x) {
      *bad = "(" + std::to_string(sorted[i - 1].x) + "," +
             std::to_string(sorted[i - 1].y) + ") vs (" +
             std::to_string(sorted[i].x) + "," +
             std::to_string(sorted[i].y) + ")";
      return false;
    }
  }
  return true;
}

class OneCopySiPartialTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  /// CREATE TABLE pair + one row per key at every replica (loading
  /// bypasses replication, like restoring the same backup everywhere;
  /// non-held rows simply stay at their seeded value).
  void Seed(Cluster& cluster, const std::vector<int64_t>& keys) {
    ASSERT_TRUE(cluster
                    .ExecuteEverywhere(
                        "CREATE TABLE pair (k INT, v INT, PRIMARY KEY (k))")
                    .ok());
    for (int64_t k : keys) {
      ASSERT_TRUE(cluster
                      .ExecuteEverywhere("INSERT INTO pair VALUES (?, 0)",
                                         {Value::Int(k)})
                      .ok());
    }
  }
};

TEST_F(OneCopySiPartialTest, EachHolderGroupRunsItsOwnGroup) {
  auto cluster = MakePartialCluster();
  // Group peers share one gcs::Group and the two groups do not; member
  // ids stay unique cluster-wide, since clients pin and fail over by
  // member id.
  std::set<gcs::MemberId> ids;
  std::vector<gcs::MemberId> members[2];
  for (size_t r = 0; r < kReplicas; ++r) {
    const size_t g = r / kRf;
    EXPECT_EQ(cluster->replica(r)->group(), &cluster->group(g))
        << "replica " << r;
    ids.insert(cluster->replica(r)->member_id());
    members[g].push_back(cluster->replica(r)->member_id());
  }
  EXPECT_EQ(ids.size(), kReplicas);
  for (size_t g = 0; g < 2; ++g) {
    EXPECT_EQ(cluster->group(g).CurrentView().members, members[g])
        << "group " << g;
  }

  // A restarted replica rejoins its own group under a fresh id.
  cluster->CrashReplica(2);
  ASSERT_TRUE(cluster->RestartReplica(2).ok());
  const gcs::MemberId restarted = cluster->replica(2)->member_id();
  EXPECT_EQ(ids.count(restarted), 0u);
  EXPECT_EQ(cluster->group(1).CurrentView().members,
            (std::vector<gcs::MemberId>{cluster->replica(3)->member_id(),
                                        restarted}));
  EXPECT_EQ(cluster->group(0).CurrentView().members, members[0]);
}

TEST_F(OneCopySiPartialTest, RoutedStaircaseHoldsPerGroup) {
  auto cluster = MakePartialCluster();
  const PartitionMap& map = *cluster->partition_map();

  // One (x, y) pair per group, writers and readers routed to holders.
  int64_t x[2], y[2];
  for (size_t g = 0; g < 2; ++g) {
    x[g] = FindKeyInGroup(map, "pair", g, /*from=*/g * 1000);
    y[g] = FindKeyInGroup(map, "pair", g, x[g] + 1);
  }
  Seed(*cluster, {x[0], y[0], x[1], y[1]});

  std::mutex obs_mu;
  std::vector<Observation> observations[2];
  std::vector<std::thread> threads;
  for (size_t g = 0; g < 2; ++g) {
    for (int w = 0; w < 2; ++w) {
      for (int64_t key : {x[g], y[g]}) {
        threads.emplace_back([&, g, w, key] {
          middleware::SrcaRepReplica* mw =
              cluster->replica(FirstSlotOfGroup(g) + w % kRf);
          const std::string sql = "UPDATE pair SET v = v + 1 WHERE k = " +
                                  std::to_string(key);
          for (int i = 0; i < 25; ++i) (void)Commit1(mw, sql);
        });
      }
    }
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, g, r] {
        middleware::SrcaRepReplica* mw =
            cluster->replica(FirstSlotOfGroup(g) + r % kRf);
        for (int i = 0; i < 50; ++i) {
          auto txn = mw->BeginTxn();
          if (!txn.ok()) continue;
          auto handle = std::move(txn).value();
          auto rx = mw->Execute(handle, "SELECT v FROM pair WHERE k = " +
                                            std::to_string(x[g]));
          auto ry = mw->Execute(handle, "SELECT v FROM pair WHERE k = " +
                                            std::to_string(y[g]));
          (void)mw->CommitTxn(handle);
          if (rx.ok() && ry.ok() && rx.value().NumRows() == 1 &&
              ry.value().NumRows() == 1) {
            std::lock_guard<std::mutex> lock(obs_mu);
            observations[g].push_back({rx.value().rows[0][0].AsInt(),
                                       ry.value().rows[0][0].AsInt()});
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  cluster->Quiesce();

  for (size_t g = 0; g < 2; ++g) {
    ASSERT_GT(observations[g].size(), 20u) << "group " << g;
    std::string bad;
    EXPECT_TRUE(IsStaircase(observations[g], &bad))
        << "group " << g << ": incomparable snapshots " << bad;
    // Group peers converge on the group's keys...
    const size_t s0 = FirstSlotOfGroup(g);
    for (int64_t key : {x[g], y[g]}) {
      const int64_t v = ReadV(cluster->db(s0), key);
      EXPECT_GT(v, 0) << "group " << g << " key " << key;
      EXPECT_EQ(ReadV(cluster->db(s0 + 1), key), v)
          << "group " << g << " key " << key;
      // ...while the *other* group never applied them: its copies stay
      // at the seeded value. Stale-by-design is what makes misroutes
      // abort instead of vacuously committing.
      EXPECT_EQ(ReadV(cluster->db(FirstSlotOfGroup(1 - g)), key), 0)
          << "non-holder applied group " << g << " key " << key;
    }
  }

  // Each group ran its own total order: both peers validated exactly the
  // group's own commits (one tid per increment of x or y) and none of
  // the other group's, and drained their queues.
  for (size_t g = 0; g < 2; ++g) {
    const size_t s0 = FirstSlotOfGroup(g);
    const int64_t commits =
        ReadV(cluster->db(s0), x[g]) + ReadV(cluster->db(s0), y[g]);
    for (size_t r = s0; r < s0 + kRf; ++r) {
      EXPECT_EQ(cluster->replica(r)->StableCommitPrefix(),
                static_cast<uint64_t>(commits))
          << "replica " << r;
      EXPECT_EQ(cluster->replica(r)->PendingQueueSize(), 0u)
          << "replica " << r;
    }
  }
  const obs::MetricsSnapshot snap = cluster->DumpMetrics();
  EXPECT_EQ(snap.counters.at("mw.partial.misroutes"), 0u);
}

TEST_F(OneCopySiPartialTest, CrossPartitionWithinGroupReadsYourWrites) {
  auto cluster = MakePartialCluster();
  const PartitionMap& map = *cluster->partition_map();

  // Two keys in group 0 but in *different* partitions: the writeset's
  // mask has two bits, both held by slots 0 and 1.
  const int64_t k1 = FindKeyInGroup(map, "pair", /*group=*/0, /*from=*/0);
  const int64_t k2 =
      FindKeyInGroup(map, "pair", /*group=*/0, k1 + 1,
                     static_cast<int64_t>(map.PartitionOf(Tuple("pair", k1))));
  ASSERT_NE(map.PartitionOf(Tuple("pair", k1)),
            map.PartitionOf(Tuple("pair", k2)));
  Seed(*cluster, {k1, k2});

  middleware::SrcaRepReplica* mw = cluster->replica(0);
  auto txn = mw->BeginTxn();
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  ASSERT_TRUE(mw->Execute(handle, "UPDATE pair SET v = 7 WHERE k = " +
                                      std::to_string(k1))
                  .ok());
  ASSERT_TRUE(mw->Execute(handle, "UPDATE pair SET v = 8 WHERE k = " +
                                      std::to_string(k2))
                  .ok());
  // In-transaction read-your-writes.
  auto in_txn = mw->Execute(handle, "SELECT v FROM pair WHERE k = " +
                                        std::to_string(k1));
  ASSERT_TRUE(in_txn.ok());
  EXPECT_EQ(in_txn.value().rows[0][0].AsInt(), 7);
  ASSERT_TRUE(mw->CommitTxn(handle).ok());

  // Post-commit read-your-writes at the executing holder, and at its
  // group peer once the pipeline drains.
  EXPECT_EQ(ReadV(cluster->db(0), k1), 7);
  EXPECT_EQ(ReadV(cluster->db(0), k2), 8);
  cluster->Quiesce();
  EXPECT_EQ(ReadV(cluster->db(1), k1), 7);
  EXPECT_EQ(ReadV(cluster->db(1), k2), 8);
  // Group 1 never saw it.
  EXPECT_EQ(ReadV(cluster->db(2), k1), 0);
  EXPECT_EQ(ReadV(cluster->db(3), k2), 0);
  EXPECT_EQ(cluster->replica(2)->StableCommitPrefix(), 0u);
}

TEST_F(OneCopySiPartialTest, MisroutedTransactionsAbortBeforeDissemination) {
  auto cluster = MakePartialCluster();
  const PartitionMap& map = *cluster->partition_map();
  const int64_t g0 = FindKeyInGroup(map, "pair", /*group=*/0, /*from=*/0);
  const int64_t g1 = FindKeyInGroup(map, "pair", /*group=*/1, /*from=*/0);
  Seed(*cluster, {g0, g1});

  // A group-1 key executed at a group-0 holder: refused at commit.
  Status st = Commit1(cluster->replica(0), "UPDATE pair SET v = 5 WHERE k = " +
                                               std::to_string(g1));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;

  // A cross-*group* writeset has no holder anywhere: refused at every
  // replica (the documented cost of the disjoint-group model).
  for (size_t r = 0; r < kReplicas; ++r) {
    auto txn = cluster->replica(r)->BeginTxn();
    ASSERT_TRUE(txn.ok());
    auto handle = std::move(txn).value();
    ASSERT_TRUE(cluster->replica(r)
                    ->Execute(handle, "UPDATE pair SET v = 5 WHERE k = " +
                                          std::to_string(g0))
                    .ok());
    ASSERT_TRUE(cluster->replica(r)
                    ->Execute(handle, "UPDATE pair SET v = 5 WHERE k = " +
                                          std::to_string(g1))
                    .ok());
    st = cluster->replica(r)->CommitTxn(handle);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "replica " << r << ": " << st;
  }

  // Nothing was multicast, applied, or validated anywhere.
  cluster->Quiesce();
  for (size_t r = 0; r < kReplicas; ++r) {
    EXPECT_EQ(ReadV(cluster->db(r), g0), 0) << "replica " << r;
    EXPECT_EQ(ReadV(cluster->db(r), g1), 0) << "replica " << r;
    EXPECT_EQ(cluster->replica(r)->StableCommitPrefix(), 0u);
  }
  const obs::MetricsSnapshot snap = cluster->DumpMetrics();
  EXPECT_GE(snap.counters.at("mw.partial.misroutes"), 1u + kReplicas);

  // The guard is a router error, not poison: a correctly routed retry
  // of the same logical work succeeds.
  EXPECT_TRUE(Commit1(cluster->replica(FirstSlotOfGroup(GroupOfKey(
                          map, "pair", g1))),
                      "UPDATE pair SET v = 5 WHERE k = " + std::to_string(g1))
                  .ok());
}

TEST_F(OneCopySiPartialTest, HolderCrashDuringCrossPartitionCommit) {
  auto cluster = MakePartialCluster();
  const PartitionMap& map = *cluster->partition_map();
  const int64_t k1 = FindKeyInGroup(map, "pair", /*group=*/0, /*from=*/0);
  const int64_t k2 =
      FindKeyInGroup(map, "pair", /*group=*/0, k1 + 1,
                     static_cast<int64_t>(map.PartitionOf(Tuple("pair", k1))));
  Seed(*cluster, {k1, k2});

  // Slot 0 dies mid-commit of a cross-partition (two-mask-bit)
  // transaction, *after* the writeset entered the total order: uniform
  // reliable delivery means the surviving group peer must commit it.
  middleware::SrcaRepReplica* mw = cluster->replica(0);
  auto txn = mw->BeginTxn();
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  ASSERT_TRUE(mw->Execute(handle, "UPDATE pair SET v = 41 WHERE k = " +
                                      std::to_string(k1))
                  .ok());
  ASSERT_TRUE(mw->Execute(handle, "UPDATE pair SET v = 42 WHERE k = " +
                                      std::to_string(k2))
                  .ok());
  {
    failpoint::ScopedFailpoint fp("mw.commit.crash.after_multicast",
                                  "crash*1");
    (void)mw->CommitTxn(handle);  // the executing replica just died
    EXPECT_EQ(failpoint::Fires("mw.commit.crash.after_multicast"), 1u);
  }
  cluster->Quiesce();
  EXPECT_EQ(ReadV(cluster->db(1), k1), 41);
  EXPECT_EQ(ReadV(cluster->db(1), k2), 42);
  // The other group never saw it: its rows and its total order are
  // untouched.
  EXPECT_EQ(ReadV(cluster->db(2), k1), 0);
  EXPECT_EQ(cluster->replica(2)->StableCommitPrefix(), 0u);
  EXPECT_EQ(cluster->replica(3)->StableCommitPrefix(), 0u);

  // The crashed holder restarts and recovers its partitions — the only
  // covering donor is its group peer. Afterwards it serves reads and
  // commits again.
  ASSERT_TRUE(cluster->RestartReplica(0).ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadV(cluster->db(0), k1), 41);
  EXPECT_EQ(ReadV(cluster->db(0), k2), 42);
  EXPECT_TRUE(Commit1(cluster->replica(0), "UPDATE pair SET v = v + 1 "
                                           "WHERE k = " +
                                               std::to_string(k1))
                  .ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadV(cluster->db(1), k1), 42);
}

TEST_F(OneCopySiPartialTest, WholeGroupOutageNeverAcksALostCommit) {
  auto cluster = MakePartialCluster();
  const PartitionMap& map = *cluster->partition_map();
  const int64_t k = FindKeyInGroup(map, "pair", /*group=*/0, /*from=*/0);
  const int64_t other = FindKeyInGroup(map, "pair", /*group=*/1, /*from=*/0);
  Seed(*cluster, {k, other});

  // Group 0 is slots {0, 1}. Slot 1 is down; slot 0 then dies right
  // after multicasting, so its writeset reaches no live member of its
  // group. Only group 0's replicas could know the outcome, and none is
  // up: the driver must answer "outcome unknown", never "committed".
  cluster->CrashReplica(1);
  const gcs::MemberId origin = cluster->replica(0)->member_id();
  client::ConnectionOptions copt;
  copt.pinned_replica = static_cast<int>(origin);
  copt.connect_deadline = std::chrono::milliseconds(50);
  auto connected = cluster->Connect(copt);
  ASSERT_TRUE(connected.ok()) << connected.status();
  auto conn = std::move(connected).value();
  ASSERT_EQ(conn->replica(), cluster->replica(0));
  conn->SetAutoCommit(false);
  ASSERT_TRUE(
      conn->Execute("UPDATE pair SET v = 5 WHERE k = " + std::to_string(k))
          .ok());
  const uint64_t unknown_before = DriverCounter("client.indoubt_unknown");
  Status st;
  {
    failpoint::ScopedFailpoint crash("mw.commit.crash.after_multicast",
                                     "crash*1");
    // Slot 0 is alone in its group, so the stall holds no delivery
    // thread: the committing thread validates its own writeset inside
    // Multicast(), before the crash fires. What keeps the
    // acknowledgement away is CommitTxn's check that the replica is
    // still alive just before its local commit.
    failpoint::ScopedFailpoint stall("mw.validate", "delay(100ms)");
    st = conn->Commit();
    EXPECT_EQ(failpoint::Fires("mw.commit.crash.after_multicast"), 1u);
  }
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  EXPECT_EQ(DriverCounter("client.indoubt_unknown"), unknown_before + 1);

  // The group cold-starts on its own: slot 0 holds the longest stable
  // prefix and seeds it. The seed never installed a view containing the
  // crashed origin, so it cannot tell the in-doubt outcome either: it
  // must answer kUnknown, not kLost. (The connection's transaction was
  // the first one slot 0 ever began: sequence number 1.)
  ASSERT_TRUE(cluster->RestartReplica(0).ok());
  EXPECT_EQ(cluster->replica(0)->InquireOutcome(
                middleware::GlobalTxnId{origin, 1}, origin),
            middleware::TxnOutcome::kUnknown);
  ASSERT_TRUE(cluster->RestartReplica(1).ok());
  cluster->Quiesce();

  // Group 0's replicas agree; group 1 never took a step.
  EXPECT_EQ(ReadV(cluster->db(0), k), ReadV(cluster->db(1), k));
  EXPECT_EQ(cluster->replica(0)->StableCommitPrefix(),
            cluster->replica(1)->StableCommitPrefix());
  for (size_t r = 2; r < kReplicas; ++r) {
    EXPECT_EQ(cluster->replica(r)->StableCommitPrefix(), 0u)
        << "replica " << r;
    EXPECT_EQ(ReadV(cluster->db(r), k), 0) << "replica " << r;
  }
  // The group serves routed commits again.
  EXPECT_TRUE(Commit1(cluster->replica(1), "UPDATE pair SET v = v + 1 "
                                           "WHERE k = " +
                                               std::to_string(k))
                  .ok());
  cluster->Quiesce();
  EXPECT_EQ(ReadV(cluster->db(0), k), ReadV(cluster->db(1), k));
}

TEST_F(OneCopySiPartialTest, AddReplicaAndRuntimeDdlAreRefused) {
  auto cluster = MakePartialCluster();
  const PartitionMap& map = *cluster->partition_map();
  const int64_t k = FindKeyInGroup(map, "pair", /*group=*/0, /*from=*/0);
  Seed(*cluster, {k});

  // A new replica would belong to no holder group.
  auto added = cluster->AddReplica([](engine::Database* db) {
    return db
        ->ExecuteAutoCommit("CREATE TABLE pair (k INT, v INT, PRIMARY KEY (k))")
        .status();
  });
  EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument)
      << added.status();
  EXPECT_EQ(cluster->size(), kReplicas);

  // Runtime DDL would reach one group's total order only: refused at
  // the middleware and through the driver.
  auto txn = cluster->replica(0)->BeginTxn();
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  EXPECT_EQ(cluster->replica(0)
                ->Execute(handle, "CREATE TABLE extra (k INT, PRIMARY KEY (k))")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(cluster->replica(0)->RollbackTxn(handle).ok());
  auto conn = cluster->Connect();
  ASSERT_TRUE(conn.ok()) << conn.status();
  EXPECT_EQ(conn.value()->Execute("CREATE INDEX pair_v ON pair (v)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Every replica is unchanged and keeps committing.
  cluster->Quiesce();
  for (size_t r = 0; r < kReplicas; ++r) {
    EXPECT_EQ(cluster->db(r)->engine().GetTable("extra"), nullptr)
        << "replica " << r;
    EXPECT_EQ(cluster->replica(r)->StableCommitPrefix(), 0u)
        << "replica " << r;
  }
  EXPECT_TRUE(Commit1(cluster->replica(0),
                      "UPDATE pair SET v = 1 WHERE k = " + std::to_string(k))
                  .ok());
}

}  // namespace
}  // namespace sirep
