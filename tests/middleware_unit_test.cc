// Unit tests for the middleware building blocks: WsList, WsLog,
// ToCommitQueue (with its Adjustment 3 hole rules), TableLockManager, and
// commit-path stage tracing.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "middleware/table_locks.h"
#include "middleware/tocommit_queue.h"
#include "middleware/ws_log.h"
#include "middleware/ws_list.h"
#include "obs/trace.h"
#include "sql/value.h"
#include "storage/write_set.h"

namespace sirep::middleware {
namespace {

using storage::WriteOp;
using storage::WriteSet;

std::shared_ptr<const WriteSet> Ws(
    std::initializer_list<std::pair<const char*, int64_t>> tuples) {
  auto ws = std::make_shared<WriteSet>();
  for (const auto& [table, key] : tuples) {
    ws->Record({table, sql::Key{{sql::Value::Int(key)}}}, WriteOp::kUpdate,
               {sql::Value::Int(key)});
  }
  return ws;
}

// ---- WsList ----

TEST(WsListTest, ConflictsAfterCert) {
  WsList list;
  list.Append(1, Ws({{"t", 1}}));
  list.Append(2, Ws({{"t", 2}}));
  list.Append(3, Ws({{"t", 3}}));

  // cert = 0 sees everything.
  EXPECT_TRUE(list.ConflictsAfter(0, *Ws({{"t", 2}})));
  // cert = 2: only tid 3 is checked.
  EXPECT_FALSE(list.ConflictsAfter(2, *Ws({{"t", 2}})));
  EXPECT_TRUE(list.ConflictsAfter(2, *Ws({{"t", 3}})));
  // cert = 3: nothing newer.
  EXPECT_FALSE(list.ConflictsAfter(3, *Ws({{"t", 3}})));
  // Disjoint writesets never conflict.
  EXPECT_FALSE(list.ConflictsAfter(0, *Ws({{"u", 1}})));
}

TEST(WsListTest, WindowPruning) {
  WsList list(/*max_entries=*/3);
  for (uint64_t tid = 1; tid <= 5; ++tid) {
    list.Append(tid, Ws({{"t", static_cast<int64_t>(tid)}}));
  }
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.MinRetainedTid(), 3u);
  // Conflicts inside the retained window are still exact.
  EXPECT_TRUE(list.ConflictsAfter(2, *Ws({{"t", 4}})));
  EXPECT_FALSE(list.ConflictsAfter(4, *Ws({{"t", 4}})));
}

// ---- WsLog ----

std::vector<uint64_t> Tids(const WsLog& log) {
  std::vector<uint64_t> tids;
  for (const auto& entry : log.entries()) tids.push_back(entry.tid);
  return tids;
}

TEST(WsLogTest, ConflictsAfterCert) {
  WsLog log;
  EXPECT_EQ(log.AppendWriteSet({1, 1}, Ws({{"t", 1}})), 1u);
  EXPECT_EQ(log.AppendWriteSet({1, 2}, Ws({{"t", 2}})), 2u);
  EXPECT_EQ(log.AppendWriteSet({1, 3}, Ws({{"t", 3}})), 3u);
  EXPECT_EQ(log.lastvalidated(), 3u);

  EXPECT_TRUE(log.ConflictsAfter(0, *Ws({{"t", 2}})));
  EXPECT_FALSE(log.ConflictsAfter(2, *Ws({{"t", 2}})));
  EXPECT_TRUE(log.ConflictsAfter(2, *Ws({{"t", 3}})));
  EXPECT_FALSE(log.ConflictsAfter(3, *Ws({{"t", 3}})));
  EXPECT_FALSE(log.ConflictsAfter(0, *Ws({{"u", 1}})));
}

TEST(WsLogTest, TrimsBelowTheFloor) {
  WsLog log(/*capacity=*/3);
  EXPECT_EQ(log.floor(), 1u);
  for (int64_t key = 1; key <= 5; ++key) {
    log.AppendWriteSet({1, static_cast<uint64_t>(key)}, Ws({{"t", key}}));
  }
  EXPECT_EQ(log.floor(), 3u);
  EXPECT_EQ(Tids(log), (std::vector<uint64_t>{3, 4, 5}));
  EXPECT_TRUE(log.ConflictsAfter(2, *Ws({{"t", 4}})));
  EXPECT_FALSE(log.ConflictsAfter(4, *Ws({{"t", 4}})));
}

// Trimming an old writeset must not forget a *newer* writer of the same
// tuple: the tuple leaves the map only while the trimmed tid still owns
// it.
TEST(WsLogTest, TrimKeepsNewestWriterOfTuple) {
  WsLog log(/*capacity=*/2);
  log.AppendWriteSet({1, 1}, Ws({{"t", 7}}));
  log.AppendWriteSet({1, 2}, Ws({{"t", 7}}));  // same tuple, newer writer
  log.AppendWriteSet({1, 3}, Ws({{"t", 8}}));  // trims tid 1
  EXPECT_EQ(log.floor(), 2u);
  // tid 2 still conflicts even though tid 1 (same tuple) was trimmed.
  EXPECT_TRUE(log.ConflictsAfter(1, *Ws({{"t", 7}})));
  EXPECT_FALSE(log.ConflictsAfter(2, *Ws({{"t", 7}})));
}

// A replicated DDL statement takes a tid whether or not it ran, so the
// floor, which depends only on lastvalidated, stays the same at every
// replica; only one that ran is logged, for recovery to replay.
TEST(WsLogTest, DdlTakesATidWhetherOrNotItRan) {
  const std::string ddl = "CREATE TABLE u (k INT, PRIMARY KEY (k))";
  WsLog log(/*capacity=*/3);
  EXPECT_EQ(log.AppendWriteSet({1, 1}, Ws({{"t", 1}})), 1u);
  EXPECT_EQ(log.AppendDdl({1, 2}, ddl, /*ran=*/true), 2u);
  EXPECT_EQ(log.AppendDdl({2, 1}, ddl, /*ran=*/false), 3u);
  EXPECT_EQ(log.lastvalidated(), 3u);
  ASSERT_EQ(Tids(log), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(log.entries()[1].ws, nullptr);
  EXPECT_EQ(log.entries()[1].ddl, ddl);

  // Both DDL tids count against the capacity: the next writeset moves
  // the floor past tid 1, whose tuple leaves the map with it.
  EXPECT_EQ(log.AppendWriteSet({1, 3}, Ws({{"t", 2}})), 4u);
  EXPECT_EQ(log.floor(), 2u);
  EXPECT_EQ(Tids(log), (std::vector<uint64_t>{2, 4}));
  EXPECT_FALSE(log.ConflictsAfter(0, *Ws({{"t", 1}})));
}

TEST(WsLogTest, AdoptReplacesTheLog) {
  WsLog donor;
  donor.Adopt(3, {});  // a cold-start seed: tids up to 3, none logged
  EXPECT_EQ(donor.AppendWriteSet({2, 1}, Ws({{"t", 1}})), 4u);
  EXPECT_EQ(donor.AppendWriteSet({2, 2}, Ws({{"t", 2}, {"u", 2}})), 5u);

  WsLog joiner;
  joiner.AppendWriteSet({1, 1}, Ws({{"stale", 1}}));  // replaced by Adopt
  joiner.Adopt(donor.lastvalidated(), donor.entries());
  EXPECT_EQ(joiner.lastvalidated(), 5u);
  EXPECT_EQ(Tids(joiner), (std::vector<uint64_t>{4, 5}));
  EXPECT_TRUE(joiner.ConflictsAfter(4, *Ws({{"u", 2}})));
  EXPECT_FALSE(joiner.ConflictsAfter(0, *Ws({{"stale", 1}})));
  // The joiner continues the donor's tid sequence.
  EXPECT_EQ(joiner.AppendWriteSet({1, 2}, Ws({{"t", 3}})), 6u);
}

// Differential check against WsList, the literal paper formulation: for
// a long random append/probe sequence (fixed seed, deterministic) both
// structures must return identical verdicts — validation decisions are
// part of the cross-replica determinism argument, so the O(writeset)
// log must be decision-equivalent, not just approximately right.
TEST(WsLogTest, DifferentialAgainstWsList) {
  constexpr size_t kWindow = 16;
  WsList oracle(kWindow);
  WsLog log(kWindow);
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int64_t> key(0, 24);
  std::uniform_int_distribution<int> nkeys(1, 4);
  std::uniform_int_distribution<int> table(0, 1);
  const char* tables[] = {"a", "b"};

  auto random_ws = [&]() {
    auto ws = std::make_shared<WriteSet>();
    const int n = nkeys(rng);
    for (int i = 0; i < n; ++i) {
      ws->Record({tables[table(rng)], sql::Key{{sql::Value::Int(key(rng))}}},
                 WriteOp::kUpdate, {sql::Value::Int(0)});
    }
    return ws;
  };

  for (uint64_t tid = 1; tid <= 400; ++tid) {
    auto ws = random_ws();
    oracle.Append(tid, ws);
    ASSERT_EQ(log.AppendWriteSet({1, tid}, ws), tid);
    ASSERT_EQ(oracle.size(), log.size());
    ASSERT_EQ(oracle.MinRetainedTid(), log.floor());

    // Probe both with certs across the whole window (including below
    // the floor and above the newest tid).
    for (int probe = 0; probe < 8; ++probe) {
      auto probe_ws = random_ws();
      std::uniform_int_distribution<uint64_t> cert(
          tid > kWindow + 4 ? tid - kWindow - 4 : 0, tid + 2);
      const uint64_t c = cert(rng);
      ASSERT_EQ(oracle.ConflictsAfter(c, *probe_ws),
                log.ConflictsAfter(c, *probe_ws))
          << "tid=" << tid << " cert=" << c;
    }
  }
}

// The adopt/trim boundary, exhaustively: a donor log at every fill
// level, adopted by joiners whose capacity is narrower than and equal
// to the donor's (the capacity is one value per cluster; a narrower one
// shows that Adopt trims to the joiner's own floor), then both oracle
// and joiner keep appending past the trim edge. Every probe sweeps
// certs straddling floor - 1 (the conservative-abort boundary) — the
// exact off-by-one territory where a trimming bug would let a joiner
// reach a different verdict than a live replica.
TEST(WsLogTest, DifferentialAtAdoptTrimBoundary) {
  constexpr size_t kDonorCapacity = 8;
  std::mt19937 rng(8008);
  std::uniform_int_distribution<int64_t> key(0, 9);

  auto ws_for = [&](int64_t k) {
    auto ws = std::make_shared<WriteSet>();
    ws->Record({"t", sql::Key{{sql::Value::Int(k)}}}, WriteOp::kUpdate,
               {sql::Value::Int(0)});
    return ws;
  };

  for (size_t fill = 1; fill <= 2 * kDonorCapacity; ++fill) {
    WsLog donor(kDonorCapacity);
    for (uint64_t tid = 1; tid <= fill; ++tid) {
      donor.AppendWriteSet({2, tid}, ws_for(key(rng)));
    }
    ASSERT_EQ(donor.size(), std::min(fill, kDonorCapacity));

    for (size_t joiner_capacity : {kDonorCapacity / 2, kDonorCapacity}) {
      // The oracle holds the suffix of the donor's log a live WsList of
      // the joiner's width would hold.
      WsList oracle(joiner_capacity);
      for (const auto& entry : donor.entries()) {
        oracle.Append(entry.tid, entry.ws);
      }

      WsLog joiner(joiner_capacity);
      joiner.Adopt(donor.lastvalidated(), donor.entries());
      ASSERT_EQ(joiner.size(), oracle.size());
      ASSERT_EQ(joiner.floor(), oracle.MinRetainedTid());

      // Both keep running: append past the trim edge after adoption.
      for (uint64_t tid = fill + 1; tid <= fill + kDonorCapacity; ++tid) {
        auto ws = ws_for(key(rng));
        oracle.Append(tid, ws);
        ASSERT_EQ(joiner.AppendWriteSet({1, tid}, ws), tid);
        ASSERT_EQ(joiner.floor(), oracle.MinRetainedTid());

        const uint64_t floor = joiner.floor();
        for (int64_t k = 0; k <= 9; ++k) {
          auto probe = ws_for(k);
          // Certs pinned to the boundary: floor-2 .. floor+1, plus the
          // head.
          for (uint64_t cert : {floor >= 2 ? floor - 2 : 0, floor - 1, floor,
                                floor + 1, tid - 1, tid}) {
            ASSERT_EQ(oracle.ConflictsAfter(cert, *probe),
                      joiner.ConflictsAfter(cert, *probe))
                << "fill=" << fill << " jc=" << joiner_capacity
                << " tid=" << tid << " cert=" << cert << " key=" << k;
          }
        }
      }
    }
  }
}

// ---- ToCommitQueue ----

/// One of the queue's "mw.holes.*" counters.
uint64_t HoleCounter(const obs::MetricsRegistry& registry,
                     const std::string& name) {
  return registry.Snapshot().counters.at("mw.holes." + name);
}

/// Commits queued `tid` with a database commit that succeeds; returns the
/// remote entries the commit made dispatchable.
std::vector<ToCommitEntry> CommitOk(ToCommitQueue& q, uint64_t tid) {
  std::vector<ToCommitEntry> released;
  EXPECT_TRUE(q.Commit(tid, [] { return Status::OK(); }, &released).ok());
  return released;
}

std::vector<uint64_t> Tids(const std::vector<ToCommitEntry>& entries) {
  std::vector<uint64_t> tids;
  for (const auto& entry : entries) tids.push_back(entry.tid);
  return tids;
}

/// Waits until `n` starts found holes; a waiting start has then released
/// the queue mutex inside its wait (the counter and the wait set change
/// in one critical section).
void AwaitDelayedStarts(const obs::MetricsRegistry& registry, uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (HoleCounter(registry, "delayed_starts") < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ToCommitQueueTest, ConflictsWithRemoteOnly) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(/*gate_enabled=*/true, &registry);
  q.Append({.tid = 1, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {1, 1}, .local = false, .ws = Ws({{"t", 2}})});

  // Conflicts with the *local* entry don't count (Adjustment 1: the DB
  // already checked those).
  EXPECT_FALSE(q.ConflictsWithRemote(*Ws({{"t", 1}})));
  EXPECT_TRUE(q.ConflictsWithRemote(*Ws({{"t", 2}})));
  EXPECT_FALSE(q.ConflictsWithRemote(*Ws({{"u", 9}})));
}

TEST(ToCommitQueueTest, DispatchRespectsConflictOrder) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {1, 2}, .ws = Ws({{"t", 1}})});  // conflicts w/ 1
  q.Append({.tid = 3, .gid = {1, 3}, .ws = Ws({{"t", 9}})});  // independent

  EXPECT_EQ(Tids(q.TakeDispatchable()), (std::vector<uint64_t>{1, 3}));
  // tid 2 stays blocked until tid 1 commits; that commit releases it.
  EXPECT_TRUE(q.TakeDispatchable().empty());
  EXPECT_EQ(Tids(CommitOk(q, 1)), (std::vector<uint64_t>{2}));
}

TEST(ToCommitQueueTest, LocalEntriesNeverDispatched) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 1}})});
  EXPECT_TRUE(q.TakeDispatchable().empty());
  EXPECT_TRUE(CommitOk(q, 1).empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(ToCommitQueueTest, CommitOfUnknownTidChangesNothing) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 5, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  bool ran = false;
  std::vector<ToCommitEntry> released;
  EXPECT_FALSE(q.Commit(
                    99,
                    [&] {
                      ran = true;
                      return Status::OK();
                    },
                    &released)
                   .ok());
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.StablePrefix(), 4u);
}

// A tid leaves the queue only through a successful database commit, so
// the stable prefix never covers a writeset this replica did not commit.
TEST(ToCommitQueueTest, FailedCommitLeavesTidQueued) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {1, 2}, .ws = Ws({{"t", 1}})});  // behind 1
  q.Append({.tid = 3, .gid = {1, 3}, .ws = Ws({{"t", 3}})});
  EXPECT_EQ(Tids(q.TakeDispatchable()), (std::vector<uint64_t>{1, 3}));

  std::vector<ToCommitEntry> released;
  EXPECT_FALSE(
      q.Commit(1, [] { return Status::Internal("disk gone"); }, &released)
          .ok());
  EXPECT_TRUE(released.empty());  // tid 2 still waits behind tid 1
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(CommitOk(q, 3).empty());
  EXPECT_EQ(q.StablePrefix(), 0u);
  EXPECT_EQ(HoleCounter(registry, "commits"), 1u);

  EXPECT_EQ(Tids(CommitOk(q, 1)), (std::vector<uint64_t>{2}));
  EXPECT_EQ(q.StablePrefix(), 1u);
  CommitOk(q, 2);
  EXPECT_EQ(q.StablePrefix(), 3u);
}

TEST(ToCommitQueueTest, NoHolesInOrderCommits) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {1, 2}, .ws = Ws({{"t", 2}})});
  EXPECT_EQ(q.StablePrefix(), 0u);
  CommitOk(q, 1);
  EXPECT_EQ(q.StablePrefix(), 1u);
  CommitOk(q, 2);
  EXPECT_EQ(q.StablePrefix(), 2u);
  bool started = false;
  EXPECT_FALSE(q.RunStart([&] { started = true; }));
  EXPECT_TRUE(started);
  EXPECT_EQ(HoleCounter(registry, "starts"), 1u);
  EXPECT_EQ(HoleCounter(registry, "delayed_starts"), 0u);
}

TEST(ToCommitQueueTest, OutOfOrderCommitCreatesHole) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 2}})});
  // tid 2 commits first (local transactions may do that).
  CommitOk(q, 2);
  EXPECT_EQ(q.StablePrefix(), 0u);
  CommitOk(q, 1);
  EXPECT_EQ(q.StablePrefix(), 2u);
}

TEST(ToCommitQueueTest, StartWaitsForHoleToClose) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 2}})});
  CommitOk(q, 2);  // hole over tid 1

  std::atomic<bool> started{false};
  std::thread starter([&] {
    EXPECT_TRUE(q.RunStart([&] { started.store(true); }));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(started.load());  // blocked on the hole

  CommitOk(q, 1);  // closes the hole
  starter.join();
  EXPECT_TRUE(started.load());
  EXPECT_EQ(HoleCounter(registry, "starts"), 1u);
  EXPECT_EQ(HoleCounter(registry, "delayed_starts"), 1u);
}

TEST(ToCommitQueueTest, GateClosesForHoleCreatorsWhileStartsWait) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 2}})});
  // Nobody waits to start, so the local commit releases tid 1, and the
  // hole over it stays open while tid 1 is applied.
  EXPECT_EQ(Tids(CommitOk(q, 2)), (std::vector<uint64_t>{1}));

  std::thread starter([&] { q.RunStart([] {}); });
  AwaitDelayedStarts(registry, 1);

  // While the start waits, remote tid 3 would open a new hole (tid 1 is
  // still queued), so the gate holds it back. The deferral is counted
  // once per entry, not once per scan.
  q.Append({.tid = 3, .gid = {1, 2}, .ws = Ws({{"t", 3}})});
  EXPECT_TRUE(q.TakeDispatchable().empty());
  EXPECT_TRUE(q.TakeDispatchable().empty());
  EXPECT_EQ(HoleCounter(registry, "delayed_commits"), 1u);

  // Committing tid 1 closes the hole; tid 3 is now the oldest queued tid,
  // so its commit opens no new hole and the same commit releases it.
  EXPECT_EQ(Tids(CommitOk(q, 1)), (std::vector<uint64_t>{3}));
  starter.join();
}

TEST(ToCommitQueueTest, StartThatWaitedReleasesGatedEntries) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 2}})});
  EXPECT_EQ(Tids(CommitOk(q, 2)), (std::vector<uint64_t>{1}));  // hole

  std::vector<ToCommitEntry> after_start;
  std::thread starter([&] {
    EXPECT_TRUE(q.RunStart([] {}));
    after_start = q.TakeDispatchable();
  });
  AwaitDelayedStarts(registry, 1);
  q.Append({.tid = 3, .gid = {1, 2}, .ws = Ws({{"t", 3}})});
  q.Append({.tid = 4, .gid = {1, 3}, .ws = Ws({{"t", 4}})});
  EXPECT_TRUE(q.TakeDispatchable().empty());

  // Tid 1's commit closes the hole but runs while the start still waits:
  // it releases tid 3 (now the oldest queued) and keeps tid 4 gated.
  EXPECT_EQ(Tids(CommitOk(q, 1)), (std::vector<uint64_t>{3}));
  // The start, leaving the wait set, opens the gate for tid 4.
  starter.join();
  EXPECT_EQ(Tids(after_start), (std::vector<uint64_t>{4}));
}

TEST(ToCommitQueueTest, CancelReleasesWaitingStart) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(true, &registry);
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 2}})});
  CommitOk(q, 2);  // hole over tid 1, which will never commit

  std::atomic<bool> started{false};
  std::thread starter([&] { q.RunStart([&] { started.store(true); }); });
  AwaitDelayedStarts(registry, 1);
  EXPECT_FALSE(started.load());
  q.Cancel();  // the replica crashed
  starter.join();
  EXPECT_TRUE(started.load());
  // Cancelling releases waiters but keeps the uncommitted tid queued.
  q.WaitUntilEmpty();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.StablePrefix(), 0u);
}

TEST(ToCommitQueueTest, DisabledGateNeverBlocksOrGatesButCounts) {
  obs::MetricsRegistry registry;
  ToCommitQueue q(/*gate_enabled=*/false, &registry);  // SRCA-Opt
  q.Append({.tid = 1, .gid = {1, 1}, .ws = Ws({{"t", 1}})});
  q.Append({.tid = 2, .gid = {0, 1}, .local = true, .ws = Ws({{"t", 2}})});
  EXPECT_EQ(Tids(CommitOk(q, 2)), (std::vector<uint64_t>{1}));  // hole
  // Start proceeds immediately despite the hole, but the statistic
  // records that a hole was present.
  bool started = false;
  EXPECT_FALSE(q.RunStart([&] { started = true; }));
  EXPECT_TRUE(started);
  EXPECT_EQ(HoleCounter(registry, "delayed_starts"), 1u);
  // No start ever waits, so the hole-opening tid 3 is dispatched too.
  q.Append({.tid = 3, .gid = {1, 2}, .ws = Ws({{"t", 3}})});
  EXPECT_EQ(Tids(q.TakeDispatchable()), (std::vector<uint64_t>{3}));
  EXPECT_EQ(HoleCounter(registry, "delayed_commits"), 0u);
}

// ---- TableLockManager ----

TEST(TableLockTest, ExclusiveBlocksExclusive) {
  TableLockManager locks;
  auto t1 = locks.Request({"a"}, TableLockMode::kExclusive);
  auto t2 = locks.Request({"a"}, TableLockMode::kExclusive);
  EXPECT_TRUE(locks.IsGranted(t1));
  EXPECT_FALSE(locks.IsGranted(t2));
  locks.Release(t1);
  EXPECT_TRUE(locks.IsGranted(t2));
  EXPECT_EQ(locks.contended_requests(), 1u);
}

TEST(TableLockTest, SharedLocksCompatible) {
  TableLockManager locks;
  auto r1 = locks.Request({"a"}, TableLockMode::kShared);
  auto r2 = locks.Request({"a"}, TableLockMode::kShared);
  EXPECT_TRUE(locks.IsGranted(r1));
  EXPECT_TRUE(locks.IsGranted(r2));
  auto w = locks.Request({"a"}, TableLockMode::kExclusive);
  EXPECT_FALSE(locks.IsGranted(w));
  locks.Release(r1);
  locks.Release(r2);
  EXPECT_TRUE(locks.IsGranted(w));
}

TEST(TableLockTest, MultiTableAtomicRequest) {
  TableLockManager locks;
  auto t1 = locks.Request({"a", "b"}, TableLockMode::kExclusive);
  auto t2 = locks.Request({"b", "c"}, TableLockMode::kExclusive);
  auto t3 = locks.Request({"c"}, TableLockMode::kExclusive);
  EXPECT_TRUE(locks.IsGranted(t1));
  EXPECT_FALSE(locks.IsGranted(t2));  // waits for t1 on b
  EXPECT_FALSE(locks.IsGranted(t3));  // waits for t2 on c (enqueue order)
  locks.Release(t1);
  EXPECT_TRUE(locks.IsGranted(t2));
  locks.Release(t2);
  EXPECT_TRUE(locks.IsGranted(t3));
}

TEST(TableLockTest, NoDeadlockWithOpposingOrders) {
  // Tickets enqueue atomically at all tables, so "a,b" vs "b,a" cannot
  // deadlock: the second request waits on both.
  TableLockManager locks;
  auto t1 = locks.Request({"a", "b"}, TableLockMode::kExclusive);
  auto t2 = locks.Request({"b", "a"}, TableLockMode::kExclusive);
  EXPECT_TRUE(locks.IsGranted(t1));
  EXPECT_FALSE(locks.IsGranted(t2));
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    locks.Wait(t2);
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  locks.Release(t1);
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(TableLockTest, DuplicateTablesDeduplicated) {
  TableLockManager locks;
  auto t = locks.Request({"a", "a", "a"}, TableLockMode::kExclusive);
  EXPECT_TRUE(locks.IsGranted(t));
  locks.Release(t);
  auto t2 = locks.Request({"a"}, TableLockMode::kExclusive);
  EXPECT_TRUE(locks.IsGranted(t2));
}

// ---- commit-path stage tracing ----

TEST(CommitTraceTest, CommittedTxnRecordsEveryStageExactlyOnce) {
  cluster::ClusterOptions options;
  options.num_replicas = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster
          .ExecuteEverywhere("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
          .ok());
  ASSERT_TRUE(cluster.ExecuteEverywhere("INSERT INTO kv VALUES (1, 0)").ok());

  SrcaRepReplica* mw = cluster.replica(0);
  auto txn = mw->BeginTxn();
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  ASSERT_TRUE(mw->Execute(handle, "UPDATE kv SET v = 7 WHERE k = 1").ok());
  ASSERT_TRUE(mw->CommitTxn(handle).ok());

  // A committed local update passes through each commit-path stage
  // exactly once (one statement, one validation round). kApply is the
  // remote-replica writeset application and stays zero here.
  const obs::TxnTrace& trace = handle.trace;
  for (const obs::Stage stage :
       {obs::Stage::kExecute, obs::Stage::kExtract, obs::Stage::kLocalValidate,
        obs::Stage::kMulticast, obs::Stage::kGlobalValidate,
        obs::Stage::kCommit}) {
    EXPECT_EQ(trace.Count(stage), 1u) << obs::StageName(stage);
    EXPECT_FALSE(trace.Running(stage)) << obs::StageName(stage);
  }
  EXPECT_EQ(trace.Count(obs::Stage::kApply), 0u);

  // The trace was flushed into the replica's registry at commit: each
  // local-path stage histogram saw this transaction.
  cluster.Quiesce();
  const auto snap = mw->metrics().Snapshot();
  for (const obs::Stage stage :
       {obs::Stage::kExecute, obs::Stage::kExtract, obs::Stage::kLocalValidate,
        obs::Stage::kMulticast, obs::Stage::kGlobalValidate,
        obs::Stage::kCommit}) {
    const auto it = snap.histograms.find(obs::StageMetricName(stage));
    ASSERT_NE(it, snap.histograms.end()) << obs::StageName(stage);
    EXPECT_GE(it->second.count, 1u) << obs::StageName(stage);
  }
  // And the remote replica applied the writeset, feeding the apply/commit
  // histograms there.
  const auto remote = cluster.replica(1)->metrics().Snapshot();
  const auto apply =
      remote.histograms.find(obs::StageMetricName(obs::Stage::kApply));
  ASSERT_NE(apply, remote.histograms.end());
  EXPECT_GE(apply->second.count, 1u);
}

}  // namespace
}  // namespace sirep::middleware
