// Module tests of online state transfer (middleware/state_transfer.h),
// driven through fake hosts over real engine::Databases, without a
// cluster: the recoverer's copy and replay of a donor's plan, the
// plan's hand-off, and whole Recover() attempts over an in-process
// group.

#include "middleware/state_transfer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/failpoint.h"

namespace sirep::middleware {
namespace {

using sql::Value;

/// A replica reduced to what StateTransfer reaches: one database with
/// table t(k, v), a writeset log to donate, and a record of the log it
/// adopted.
class FakeHost : public StateTransferHost {
 public:
  FakeHost() {
    EXPECT_TRUE(
        db_.ExecuteAutoCommit("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
            .ok());
  }

  gcs::MemberId member_id() const override { return id; }
  bool IsRunning() const override { return running.load(); }
  engine::Database* db() const override { return &db_; }
  void Crash() override {
    running.store(false);
    if (group != nullptr) group->Crash(id);
  }
  void ReadValidationState(
      const std::function<void(const ValidationView&)>& read) override {
    read(ValidationView{log.lastvalidated(), log});
  }
  void AdoptValidationState(uint64_t validated,
                            std::deque<WsLogEntry> entries) override {
    adopted = validated;
    adopted_log = std::move(entries);
  }
  void ProcessDelivery(const gcs::Message&) override {}

  sql::Row Row(int64_t k, int64_t v) const {
    return {Value::Int(k), Value::Int(v)};
  }
  sql::Key Key(int64_t k) const {
    return db_.engine().GetTable("t")->schema().KeyOf(Row(k, 0));
  }
  void Put(int64_t k, int64_t v) {
    ASSERT_TRUE(db_.ExecuteAutoCommit("INSERT INTO t VALUES (?, ?)",
                                      {Value::Int(k), Value::Int(v)})
                    .ok());
  }
  /// v of row k, or -1 when the row is absent.
  int64_t Get(int64_t k) {
    auto r = db_.ExecuteAutoCommit("SELECT v FROM t WHERE k = ?",
                                   {Value::Int(k)});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.value().rows.empty() ? -1 : r.value().rows[0][0].AsInt();
  }
  /// True when no open transaction pins a snapshot: a write first moves
  /// the clock, so a pinned snapshot would fall behind it.
  bool NoSnapshotPinned() {
    Put(next_key_++, 0);
    return db_.engine().OldestActiveSnapshot() ==
           db_.engine().last_committed();
  }

  gcs::MemberId id = 1;
  gcs::Group* group = nullptr;
  std::atomic<bool> running{true};
  /// Donor side: the validation state it donates; everything up to
  /// lastvalidated() counts as committed here.
  WsLog log;
  /// Recoverer side: what AdoptValidationState received.
  uint64_t adopted = 0;
  std::deque<WsLogEntry> adopted_log;

 private:
  mutable engine::Database db_;
  int64_t next_key_ = 1000000;
};

/// Log entries first..last; entry i writes v = i into row `k(i)`.
std::deque<WsLogEntry> Log(const FakeHost& host, uint64_t first,
                           uint64_t last,
                           const std::function<int64_t(uint64_t)>& k) {
  std::deque<WsLogEntry> log;
  for (uint64_t tid = first; tid <= last; ++tid) {
    auto ws = std::make_shared<storage::WriteSet>();
    ws->Record({"t", host.Key(k(tid))}, storage::WriteOp::kUpdate,
               host.Row(k(tid), static_cast<int64_t>(tid)));
    WsLogEntry entry;
    entry.tid = tid;
    entry.gid = {2, tid};
    entry.ws = std::move(ws);
    log.push_back(std::move(entry));
  }
  return log;
}

std::vector<uint64_t> Tids(const std::deque<WsLogEntry>& log) {
  std::vector<uint64_t> tids;
  for (const auto& entry : log) tids.push_back(entry.tid);
  return tids;
}

// ---- the recoverer's copy and replay (ApplyPlan) ----------------------

class StateTransferTest : public ::testing::Test {
 protected:
  /// A plan from donor_ that replays `log` after `replay_after`; a full
  /// copy pins its snapshot now.
  DonorPlan Plan(bool full_copy, std::deque<WsLogEntry> log = {},
                 uint64_t replay_after = 0) {
    DonorPlan plan;
    plan.donor = &donor_;
    plan.full_copy = full_copy;
    plan.log = std::move(log);
    plan.replay_after = replay_after;
    if (full_copy) {
      plan.tables = donor_.db()->engine().TableNames();
      plan.dump_txn = donor_.db()->Begin();
    }
    return plan;
  }

  Status Apply(const DonorPlan& plan,
               const std::function<Status()>& after_batch = [] {
                 return Status::OK();
               }) {
    return transfer_.ApplyPlan(plan, after_batch);
  }

  FakeHost host_;
  FakeHost donor_;
  obs::MetricsRegistry registry_;
  obs::FlightRecorder flight_{64};
  StateTransfer transfer_{&host_, nullptr, ReplicaOptions{}, &registry_,
                          &flight_};
};

TEST_F(StateTransferTest, CopyOverwritesAndSweeps) {
  host_.Put(1, 5);
  host_.Put(2, 6);
  donor_.Put(1, 10);
  donor_.Put(4, 40);
  ASSERT_TRUE(donor_.db()
                  ->ExecuteAutoCommit(
                      "CREATE TABLE u (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  ASSERT_TRUE(donor_.db()->ExecuteAutoCommit("INSERT INTO u VALUES (7, 70)")
                  .ok());
  DonorPlan plan = Plan(/*full_copy=*/true);
  donor_.Put(3, 30);  // after the marker: not part of the copy

  ASSERT_TRUE(Apply(plan).ok());
  EXPECT_EQ(host_.Get(1), 10);  // overwritten
  EXPECT_EQ(host_.Get(2), -1);  // swept: the donor lacks it
  EXPECT_EQ(host_.Get(3), -1);
  EXPECT_EQ(host_.Get(4), 40);
  // A table this replica never saw is created from the donor's schema.
  auto u = host_.db()->ExecuteAutoCommit("SELECT v FROM u WHERE k = 7");
  ASSERT_TRUE(u.ok()) << u.status();
  ASSERT_EQ(u.value().rows.size(), 1u);
  EXPECT_EQ(u.value().rows[0][0].AsInt(), 70);
}

TEST_F(StateTransferTest, FullCopyRestartReplaysLogAfterNewBase) {
  // An abandoned attempt left row 1 at 150 (its log replayed that far).
  host_.Put(1, 150);

  // A fresh attempt copies the table at its donor's stable prefix 130:
  // the copy rolls the row back to 130, and the log (130, 150] must be
  // replayed again.
  donor_.Put(1, 130);
  const DonorPlan plan =
      Plan(/*full_copy=*/true,
           Log(host_, 121, 150, [](uint64_t) { return 1; }),
           /*replay_after=*/130);
  ASSERT_TRUE(Apply(plan).ok());

  EXPECT_EQ(host_.Get(1), 150);  // what the donor and every replica hold
}

TEST_F(StateTransferTest, LogIsReplayedAfterTheReplayPointInTidOrder) {
  host_.Put(1, 0);
  host_.Put(2, 10);  // a previous incarnation already committed entry 10
  // Entries 8 and 9 write row 3, entry 10 row 2, entries 11 and 12 row 1.
  const DonorPlan plan = Plan(/*full_copy=*/false,
                              Log(host_, 8, 12,
                                  [](uint64_t tid) -> int64_t {
                                    if (tid <= 9) return 3;
                                    return tid == 10 ? 2 : 1;
                                  }),
                              /*replay_after=*/9);
  ASSERT_TRUE(Apply(plan).ok());

  EXPECT_EQ(host_.Get(3), -1);  // at or below the replay point: skipped
  EXPECT_EQ(host_.Get(2), 10);
  EXPECT_EQ(host_.Get(1), 12);  // 11, then 12
}

TEST_F(StateTransferTest, CheckRunsAfterEveryBatchAndEndsTheCopy) {
  const auto rows = static_cast<int64_t>(2 * kRecoveryBatchRows + 1);
  for (int64_t k = 0; k < rows; ++k) donor_.Put(k, k);
  const DonorPlan plan = Plan(
      /*full_copy=*/true, Log(host_, 1, 3, [](uint64_t) { return 0; }));

  // Three batches of rows and one of log entries.
  int checks = 0;
  ASSERT_TRUE(Apply(plan, [&] {
                ++checks;
                return Status::OK();
              }).ok());
  EXPECT_EQ(checks, 4);
  EXPECT_EQ(host_.Get(rows - 1), rows - 1);
  EXPECT_EQ(host_.Get(0), 3);
  EXPECT_EQ(registry_.GetCounter("mw.recovery.chunks_received")->Value(), 4u);

  // A failed check ends the copy with its status, after its batch.
  checks = 0;
  const Status stop = Status::Unavailable("donor crashed mid-transfer");
  EXPECT_EQ(Apply(plan,
                  [&] {
                    ++checks;
                    return checks == 2 ? stop : Status::OK();
                  })
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(checks, 2);
  // The first batch copied row 0 back to the donor's 0; the log, which
  // sets it to 3, was not replayed.
  EXPECT_EQ(host_.Get(0), 0);
}

// ---- the plan's hand-off ------------------------------------------------

TEST_F(StateTransferTest, PlanPostedAfterTheRecovererGaveUpIsReleased) {
  PlanHandoff handoff;
  handoff.Abandon();
  handoff.Post(Plan(/*full_copy=*/true));
  EXPECT_TRUE(donor_.NoSnapshotPinned());
  EXPECT_FALSE(handoff.Take(std::chrono::milliseconds(0)).has_value());
}

TEST_F(StateTransferTest, AbandonReleasesAPlanNeverTaken) {
  PlanHandoff handoff;
  handoff.Post(Plan(/*full_copy=*/true));
  EXPECT_FALSE(donor_.NoSnapshotPinned());
  handoff.Abandon();
  EXPECT_TRUE(donor_.NoSnapshotPinned());
}

TEST_F(StateTransferTest, TakenPlanReleasesItsSnapshotWhenDropped) {
  PlanHandoff handoff;
  handoff.Post(Plan(/*full_copy=*/true));
  {
    auto plan = handoff.Take(std::chrono::milliseconds(0));
    ASSERT_TRUE(plan.has_value() && plan->ok());
    EXPECT_FALSE(donor_.NoSnapshotPinned());
  }
  EXPECT_TRUE(donor_.NoSnapshotPinned());
}

// ---- whole Recover() attempts over an in-process group ----------------

/// A fake replica joined to a group: its delivery callback hands every
/// recovery marker to its StateTransfer, unless the test holds it.
class Node : public gcs::GroupListener {
 public:
  Node(gcs::Group* group, bool recovering)
      : transfer_(&host, group, Options(recovering), &registry_, &flight_) {
    host.group = group;
    host.id = group->Join(this);
  }
  ~Node() override { host.group->Crash(host.id); }

  void OnDeliver(const gcs::Message& message) override {
    if (message.type != kRecoveryRequestType) return;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !held_; });
    lock.unlock();
    transfer_.OnMarker(message);
  }
  void OnViewChange(const gcs::View&) override {}

  /// Holds (or releases) marker delivery at this node.
  void Hold(bool held) {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = held;
    cv_.notify_all();
  }

  StateTransfer& transfer() { return transfer_; }

  FakeHost host;

 private:
  static ReplicaOptions Options(bool recovering) {
    ReplicaOptions options;
    options.start_recovering = recovering;
    return options;
  }

  obs::MetricsRegistry registry_;
  obs::FlightRecorder flight_{64};
  StateTransfer transfer_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
};

class StateTransferRecoverTest : public ::testing::Test {
 protected:
  StateTransferRecoverTest() {
    donor_.host.log.Adopt(5, {});  // from_tid 0 needs a full copy
    donor_.host.Put(1, 10);
    donor_.host.Put(2, 20);
    recoverer_.host.Put(3, 30);
    group_.WaitForQuiescence();
  }
  ~StateTransferRecoverTest() override { failpoint::DisarmAll(); }

  gcs::Group group_;
  Node donor_{&group_, /*recovering=*/false};
  Node recoverer_{&group_, /*recovering=*/true};
};

TEST_F(StateTransferRecoverTest, RecoverCopiesTheDonorOnItsOwnThread) {
  ASSERT_TRUE(recoverer_.transfer().Recover(0).ok());
  EXPECT_TRUE(recoverer_.transfer().live());
  EXPECT_EQ(recoverer_.host.adopted, 5u);
  EXPECT_EQ(recoverer_.host.Get(1), 10);
  EXPECT_EQ(recoverer_.host.Get(2), 20);
  EXPECT_EQ(recoverer_.host.Get(3), -1);
  EXPECT_TRUE(donor_.host.NoSnapshotPinned());
}

TEST_F(StateTransferRecoverTest, RecoverReplaysAfterFromTidAndAdoptsTheLog) {
  // The donor's log reaches back to tid 6; entry i writes v = i into row
  // i, and the recoverer already holds everything up to tid 7.
  auto row_of = [](uint64_t tid) { return static_cast<int64_t>(tid); };
  donor_.host.log.Adopt(9, Log(donor_.host, 6, 9, row_of));
  ASSERT_TRUE(recoverer_.transfer().Recover(7).ok());
  EXPECT_EQ(recoverer_.host.Get(7), -1);  // not replayed
  EXPECT_EQ(recoverer_.host.Get(8), 8);
  EXPECT_EQ(recoverer_.host.Get(9), 9);
  EXPECT_EQ(recoverer_.host.Get(3), 30);  // no full copy: rows kept
  EXPECT_EQ(recoverer_.host.adopted, 9u);
  EXPECT_EQ(Tids(recoverer_.host.adopted_log),
            (std::vector<uint64_t>{6, 7, 8, 9}));
}

TEST_F(StateTransferRecoverTest, DonorDeathMidCopyReleasesItsSnapshot) {
  failpoint::ScopedFailpoint fp("mw.recovery.donor_crash_mid_transfer",
                                "crash*1");
  EXPECT_EQ(recoverer_.transfer().Recover(0).code(), StatusCode::kUnavailable);
  EXPECT_FALSE(recoverer_.transfer().live());
  EXPECT_FALSE(donor_.host.IsRunning());
  EXPECT_TRUE(donor_.host.NoSnapshotPinned());
}

TEST_F(StateTransferRecoverTest, PlanArrivingAfterTheAttemptGaveUpIsReleased) {
  // The donor stays silent past the plan timeout, then answers.
  donor_.Hold(true);
  EXPECT_EQ(recoverer_.transfer().Recover(0).code(), StatusCode::kTimedOut);
  donor_.Hold(false);
  group_.WaitForQuiescence();
  EXPECT_TRUE(donor_.host.NoSnapshotPinned());
  EXPECT_FALSE(recoverer_.transfer().live());
}

}  // namespace
}  // namespace sirep::middleware
