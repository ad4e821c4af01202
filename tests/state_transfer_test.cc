// Module tests of online state transfer (middleware/state_transfer.h):
// the recoverer's chunk application driven through a fake host over a
// real engine::Database, without a cluster, a group or failpoints.

#include "middleware/state_transfer.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace sirep::middleware {
namespace {

using sql::Value;

/// A replica reduced to what StateTransfer reaches: one database with
/// table t(k, v), and a record of the transactions replay committed.
class FakeHost : public StateTransferHost {
 public:
  FakeHost() {
    EXPECT_TRUE(
        db_.ExecuteAutoCommit("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
            .ok());
  }

  gcs::MemberId member_id() const override { return 1; }
  bool IsRunning() const override { return true; }
  engine::Database* db() const override { return &db_; }
  void Crash() override {}
  void ReadValidationState(
      const std::function<void(const ValidationView&)>&) override {}
  void AdoptValidationState(uint64_t, const std::vector<WsWindowEntry>&,
                            std::vector<WsLogEntry>) override {}
  void MarkLocallyCommitted(const GlobalTxnId& gid) override {
    committed.push_back(gid.seq);
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

  /// Sequence numbers of the replayed transactions, in replay order.
  std::vector<uint64_t> committed;

 private:
  mutable engine::Database db_;
};

class StateTransferTest : public ::testing::Test {
 protected:
  static RecoveryChunk Meta(TransferMeta meta) {
    RecoveryChunk chunk;
    chunk.meta = std::move(meta);
    return chunk;
  }

  /// A whole-table dump of t in one chunk.
  RecoveryChunk Dump(const std::vector<std::pair<int64_t, int64_t>>& rows) {
    RecoveryChunk chunk;
    chunk.table = "t";
    chunk.schema = host_.db()->engine().GetTable("t")->schema();
    chunk.table_begin = true;
    chunk.table_complete = true;
    for (const auto& [k, v] : rows) chunk.rows.push_back(host_.Row(k, v));
    return chunk;
  }

  /// Log entries first..last; entry i writes v = i into row `k(i)`.
  RecoveryChunk Log(uint64_t first, uint64_t last,
                    const std::function<int64_t(uint64_t)>& k) {
    RecoveryChunk chunk;
    for (uint64_t tid = first; tid <= last; ++tid) {
      auto ws = std::make_shared<storage::WriteSet>();
      const auto v = static_cast<int64_t>(tid);
      ws->Record({"t", host_.Key(k(tid))}, storage::WriteOp::kUpdate,
                 host_.Row(k(tid), v));
      WsLogEntry entry;
      entry.tid = tid;
      entry.gid = {2, tid};
      entry.ws = std::move(ws);
      chunk.log.push_back(std::move(entry));
    }
    return chunk;
  }

  ReplicaOptions options_;  // read through transfer_'s reference
  FakeHost host_;
  obs::MetricsRegistry registry_;
  obs::FlightRecorder flight_{64};
  StateTransfer transfer_{&host_, nullptr, options_, &registry_, &flight_};
};

TEST_F(StateTransferTest, FullCopyRestartReplaysLogAfterNewBase) {
  // An abandoned attempt left row 1 at 150 (its log replayed that far).
  host_.Put(1, 150);

  // A fresh attempt copies the table at its donor's stable prefix 130:
  // the dump rolls the row back to 130, and the log (130, 150] must be
  // replayed again.
  RecoveryProgress progress;
  TransferMeta meta;
  meta.lastvalidated = 150;
  meta.full_copy = true;
  ASSERT_TRUE(transfer_.ApplyChunk(Meta(meta), &progress).ok());
  ASSERT_TRUE(transfer_.ApplyChunk(Dump({{1, 130}}), &progress).ok());
  EXPECT_EQ(host_.Get(1), 130);
  ASSERT_TRUE(
      transfer_.ApplyChunk(Log(131, 150, [](uint64_t) { return 1; }), &progress)
          .ok());

  EXPECT_EQ(host_.Get(1), 150);  // what the donor and every replica hold
  EXPECT_EQ(host_.committed.size(), 20u);
  ASSERT_EQ(progress.adopted_log.size(), 20u);
  EXPECT_EQ(progress.adopted_log.front().tid, 131u);
}

TEST_F(StateTransferTest, TableChunkOutOfOrderIsInternal) {
  RecoveryProgress progress;
  RecoveryChunk chunk = Dump({{1, 1}});
  chunk.table_begin = false;  // no table import is active
  EXPECT_EQ(transfer_.ApplyChunk(chunk, &progress).code(),
            StatusCode::kInternal);
}

TEST_F(StateTransferTest, EveryLogEntryIsReplayedAndAdoptedInTidOrder) {
  host_.Put(1, 0);
  host_.Put(2, 10);  // a previous incarnation already committed entry 10
  RecoveryProgress progress;
  // Entries 9 and 11 write row 1, entry 10 row 2; two chunks.
  const auto row_of = [](uint64_t tid) -> int64_t { return tid == 10 ? 2 : 1; };
  ASSERT_TRUE(transfer_.ApplyChunk(Log(9, 10, row_of), &progress).ok());
  ASSERT_TRUE(transfer_.ApplyChunk(Log(11, 11, row_of), &progress).ok());

  EXPECT_EQ(host_.Get(1), 11);  // 9, then 11
  EXPECT_EQ(host_.Get(2), 10);
  EXPECT_EQ(host_.committed, (std::vector<uint64_t>{9, 10, 11}));
  std::vector<uint64_t> adopted;
  for (const auto& entry : progress.adopted_log) adopted.push_back(entry.tid);
  EXPECT_EQ(adopted, (std::vector<uint64_t>{9, 10, 11}));
}

}  // namespace
}  // namespace sirep::middleware
