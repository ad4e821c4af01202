// Tests for the storage engine's snapshot-isolation semantics: snapshot
// reads, first-updater-wins conflicts, blocking writers, read-your-writes,
// and the writeset extraction/application primitives the middleware needs.

#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

namespace sirep::storage {
namespace {

using sql::Value;

sql::Key K(int64_t k) { return sql::Key{{Value::Int(k)}}; }
sql::Row R(int64_t k, int64_t v) { return {Value::Int(k), Value::Int(v)}; }

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sql::Schema schema(
        {{"k", sql::ValueType::kInt}, {"v", sql::ValueType::kInt}}, {0});
    ASSERT_TRUE(engine_.CreateTable("t", schema).ok());
    // Seed a few rows.
    auto txn = engine_.Begin();
    for (int64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(engine_.Insert(txn, "t", R(i, 100 * i)).ok());
    }
    ASSERT_TRUE(engine_.Commit(txn).ok());
  }

  int64_t MustReadV(const TransactionPtr& txn, int64_t k) {
    auto r = engine_.Read(txn, "t", K(k));
    EXPECT_TRUE(r.ok());
    EXPECT_NE(r.value(), nullptr);
    return r.value()->at(1).AsInt();
  }

  StorageEngine engine_;
};

TEST_F(StorageEngineTest, CreateTableValidation) {
  EXPECT_EQ(engine_.CreateTable("t", sql::Schema({{"x"}}, {0})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_.CreateTable("nokey", sql::Schema({{"x"}}, {})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.TableNames(), std::vector<std::string>{"t"});
}

TEST_F(StorageEngineTest, SnapshotReadIgnoresLaterCommit) {
  auto reader = engine_.Begin();
  EXPECT_EQ(MustReadV(reader, 1), 100);

  auto writer = engine_.Begin();
  ASSERT_TRUE(engine_.Update(writer, "t", R(1, 999)).ok());
  ASSERT_TRUE(engine_.Commit(writer).ok());

  // The reader's snapshot predates the commit.
  EXPECT_EQ(MustReadV(reader, 1), 100);

  // A fresh transaction sees the new value.
  auto fresh = engine_.Begin();
  EXPECT_EQ(MustReadV(fresh, 1), 999);
}

TEST_F(StorageEngineTest, FirstUpdaterWins) {
  auto t1 = engine_.Begin();
  auto t2 = engine_.Begin();
  ASSERT_TRUE(engine_.Update(t1, "t", R(1, 111)).ok());
  ASSERT_TRUE(engine_.Commit(t1).ok());

  // t2 is concurrent with t1 and writes the same tuple: version check
  // fails, transaction aborts.
  Status st = engine_.Update(t2, "t", R(1, 222));
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  EXPECT_EQ(t2->state(), TxnState::kAborted);
  EXPECT_GE(engine_.metrics().Snapshot().counters.at("storage.ww_conflicts"),
            1u);
}

TEST_F(StorageEngineTest, BlockedWriterAbortsWhenHolderCommits) {
  auto t1 = engine_.Begin();
  auto t2 = engine_.Begin();
  ASSERT_TRUE(engine_.Update(t1, "t", R(2, 1)).ok());

  std::atomic<bool> blocked_result_conflict{false};
  std::thread blocked([&] {
    // Blocks on t1's lock; when t1 commits, the version check fails.
    Status st = engine_.Update(t2, "t", R(2, 2));
    blocked_result_conflict.store(st.code() == StatusCode::kConflict);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(engine_.Commit(t1).ok());
  blocked.join();
  EXPECT_TRUE(blocked_result_conflict.load());
}

TEST_F(StorageEngineTest, BlockedWriterProceedsWhenHolderAborts) {
  auto t1 = engine_.Begin();
  auto t2 = engine_.Begin();
  ASSERT_TRUE(engine_.Update(t1, "t", R(2, 1)).ok());

  std::atomic<bool> update_ok{false};
  std::thread blocked([&] {
    update_ok.store(engine_.Update(t2, "t", R(2, 2)).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine_.Abort(t1);
  blocked.join();
  EXPECT_TRUE(update_ok.load());
  EXPECT_TRUE(engine_.Commit(t2).ok());
  auto check = engine_.Begin();
  EXPECT_EQ(MustReadV(check, 2), 2);
}

TEST_F(StorageEngineTest, ReadYourOwnWrites) {
  auto txn = engine_.Begin();
  ASSERT_TRUE(engine_.Update(txn, "t", R(1, 42)).ok());
  EXPECT_EQ(MustReadV(txn, 1), 42);
  ASSERT_TRUE(engine_.Insert(txn, "t", R(10, 1000)).ok());
  EXPECT_EQ(MustReadV(txn, 10), 1000);
  ASSERT_TRUE(engine_.Delete(txn, "t", K(2)).ok());
  auto r = engine_.Read(txn, "t", K(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), nullptr);
  engine_.Abort(txn);
}

TEST_F(StorageEngineTest, ScanMergesOwnWrites) {
  auto txn = engine_.Begin();
  ASSERT_TRUE(engine_.Update(txn, "t", R(3, -3)).ok());
  ASSERT_TRUE(engine_.Delete(txn, "t", K(4)).ok());
  ASSERT_TRUE(engine_.Insert(txn, "t", R(6, 600)).ok());

  std::vector<std::pair<int64_t, int64_t>> rows;
  ASSERT_TRUE(engine_
                  .Scan(txn, "t",
                        [&](const sql::Key& k, const sql::Row& row) {
                          rows.emplace_back(k.parts[0].AsInt(),
                                            row[1].AsInt());
                        })
                  .ok());
  std::vector<std::pair<int64_t, int64_t>> expected = {
      {1, 100}, {2, 200}, {3, -3}, {5, 500}, {6, 600}};
  EXPECT_EQ(rows, expected);
  engine_.Abort(txn);
}

TEST_F(StorageEngineTest, AbortDiscardsEverything) {
  auto txn = engine_.Begin();
  ASSERT_TRUE(engine_.Update(txn, "t", R(1, 7)).ok());
  ASSERT_TRUE(engine_.Insert(txn, "t", R(11, 7)).ok());
  engine_.Abort(txn);

  auto check = engine_.Begin();
  EXPECT_EQ(MustReadV(check, 1), 100);
  auto r = engine_.Read(check, "t", K(11));
  EXPECT_EQ(r.value(), nullptr);
  // The lock must be free again.
  auto t2 = engine_.Begin();
  EXPECT_TRUE(engine_.Update(t2, "t", R(1, 8)).ok());
  EXPECT_TRUE(engine_.Commit(t2).ok());
}

TEST_F(StorageEngineTest, DuplicateInsertRejected) {
  auto txn = engine_.Begin();
  Status st = engine_.Insert(txn, "t", R(1, 0));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(txn->state(), TxnState::kAborted);
}

TEST_F(StorageEngineTest, ConcurrentInsertSameKeyConflicts) {
  auto t1 = engine_.Begin();
  auto t2 = engine_.Begin();
  ASSERT_TRUE(engine_.Insert(t1, "t", R(20, 1)).ok());
  ASSERT_TRUE(engine_.Commit(t1).ok());
  Status st = engine_.Insert(t2, "t", R(20, 2));
  // Concurrent committed write to the same key: conflict (first-updater).
  EXPECT_EQ(st.code(), StatusCode::kConflict);
}

TEST_F(StorageEngineTest, UpdateInvisibleTupleIsNotFoundNotAbort) {
  auto txn = engine_.Begin();
  Status st = engine_.Update(txn, "t", R(99, 1));
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(txn->state(), TxnState::kActive);  // statement-level miss only
  ASSERT_TRUE(engine_.Commit(txn).ok());
}

TEST_F(StorageEngineTest, DeleteThenReinsertInOtherTxn) {
  auto t1 = engine_.Begin();
  ASSERT_TRUE(engine_.Delete(t1, "t", K(5)).ok());
  ASSERT_TRUE(engine_.Commit(t1).ok());

  auto t2 = engine_.Begin();
  ASSERT_TRUE(engine_.Insert(t2, "t", R(5, 555)).ok());
  ASSERT_TRUE(engine_.Commit(t2).ok());

  auto check = engine_.Begin();
  EXPECT_EQ(MustReadV(check, 5), 555);
}

TEST_F(StorageEngineTest, WriteSetExtractionPreCommit) {
  auto txn = engine_.Begin();
  ASSERT_TRUE(engine_.Update(txn, "t", R(1, 11)).ok());
  ASSERT_TRUE(engine_.Delete(txn, "t", K(2)).ok());
  ASSERT_TRUE(engine_.Insert(txn, "t", R(30, 3)).ok());

  // Extraction happens *before* commit (the middleware validates first).
  auto ws = engine_.ExtractWriteSet(txn);
  EXPECT_EQ(txn->state(), TxnState::kActive);
  ASSERT_EQ(ws->size(), 3u);
  EXPECT_EQ(ws->entries()[0].op, WriteOp::kUpdate);
  EXPECT_EQ(ws->entries()[1].op, WriteOp::kDelete);
  EXPECT_EQ(ws->entries()[2].op, WriteOp::kInsert);
  ASSERT_TRUE(engine_.Commit(txn).ok());
}

TEST_F(StorageEngineTest, ApplyWriteSetReplaysAtAnotherEngine) {
  // Extract at this engine, apply at a second "replica".
  StorageEngine replica;
  sql::Schema schema(
      {{"k", sql::ValueType::kInt}, {"v", sql::ValueType::kInt}}, {0});
  ASSERT_TRUE(replica.CreateTable("t", schema).ok());
  {
    auto seed = replica.Begin();
    for (int64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(replica.Insert(seed, "t", R(i, 100 * i)).ok());
    }
    ASSERT_TRUE(replica.Commit(seed).ok());
  }

  auto txn = engine_.Begin();
  ASSERT_TRUE(engine_.Update(txn, "t", R(1, 77)).ok());
  ASSERT_TRUE(engine_.Delete(txn, "t", K(2)).ok());
  ASSERT_TRUE(engine_.Insert(txn, "t", R(9, 900)).ok());
  auto ws = engine_.ExtractWriteSet(txn);
  ASSERT_TRUE(engine_.Commit(txn).ok());

  auto apply = replica.Begin();
  ASSERT_TRUE(replica.ApplyWriteSet(apply, *ws).ok());
  ASSERT_TRUE(replica.Commit(apply).ok());

  auto check = replica.Begin();
  auto r1 = replica.Read(check, "t", K(1));
  EXPECT_EQ(r1.value()->at(1).AsInt(), 77);
  EXPECT_EQ(replica.Read(check, "t", K(2)).value(), nullptr);
  EXPECT_EQ(replica.Read(check, "t", K(9)).value()->at(1).AsInt(), 900);
}

TEST_F(StorageEngineTest, EmptyCommitConsumesNoTimestamp) {
  const Timestamp before = engine_.last_committed();
  auto txn = engine_.Begin();
  EXPECT_EQ(MustReadV(txn, 1), 100);
  ASSERT_TRUE(engine_.Commit(txn).ok());
  EXPECT_EQ(engine_.last_committed(), before);
}

TEST_F(StorageEngineTest, UseAfterTerminationRejected) {
  auto txn = engine_.Begin();
  ASSERT_TRUE(engine_.Commit(txn).ok());
  EXPECT_FALSE(engine_.Read(txn, "t", K(1)).ok());
  EXPECT_FALSE(engine_.Update(txn, "t", R(1, 0)).ok());
  EXPECT_FALSE(engine_.Commit(txn).ok());

  auto txn2 = engine_.Begin();
  engine_.Abort(txn2);
  EXPECT_EQ(engine_.Update(txn2, "t", R(1, 0)).code(), StatusCode::kAborted);
  engine_.Abort(txn2);  // idempotent
}

TEST_F(StorageEngineTest, DeadlockBetweenWritersResolved) {
  auto t1 = engine_.Begin();
  auto t2 = engine_.Begin();
  ASSERT_TRUE(engine_.Update(t1, "t", R(1, 1)).ok());
  ASSERT_TRUE(engine_.Update(t2, "t", R(2, 2)).ok());

  std::atomic<int> failures{0};
  std::thread a([&] {
    Status st = engine_.Update(t1, "t", R(2, 1));
    if (!st.ok()) failures.fetch_add(1);
    if (st.ok()) engine_.Commit(t1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread b([&] {
    Status st = engine_.Update(t2, "t", R(1, 2));
    if (!st.ok()) failures.fetch_add(1);
    if (st.ok()) engine_.Commit(t2);
  });
  a.join();
  b.join();
  // At least one side was aborted (deadlock victim or version check after
  // the winner committed); both threads terminated.
  EXPECT_GE(failures.load(), 1);
}

TEST_F(StorageEngineTest, ConcurrentDisjointWritersAllCommit) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> commits{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto txn = engine_.Begin();
      if (engine_.Insert(txn, "t", R(100 + i, i)).ok() &&
          engine_.Commit(txn).ok()) {
        commits.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(commits.load(), kThreads);
  auto check = engine_.Begin();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(MustReadV(check, 100 + i), i);
  }
}

TEST_F(StorageEngineTest, HotKeyIncrementsAreNeverLost) {
  // SI forbids lost updates: concurrent read-modify-write on one row means
  // all but one conflicting transaction abort. The final value must equal
  // the number of successful commits.
  constexpr int kThreads = 6;
  constexpr int kAttempts = 30;
  std::atomic<int> commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttempts; ++i) {
        auto txn = engine_.Begin();
        auto r = engine_.Read(txn, "t", K(1));
        if (!r.ok() || r.value() == nullptr) {
          engine_.Abort(txn);
          continue;
        }
        const int64_t v = r.value()->at(1).AsInt();
        if (!engine_.Update(txn, "t", R(1, v + 1)).ok()) continue;
        if (engine_.Commit(txn).ok()) commits.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto check = engine_.Begin();
  EXPECT_EQ(MustReadV(check, 1), 100 + commits.load());
}

TEST_F(StorageEngineTest, ReadRowsOutliveLaterCommitsAndVacuum) {
  // Reads hand out stored versions, not copies: rows a reader holds from
  // Read, Scan and LookupByIndex must keep its snapshot's values through
  // later commits to the same keys and through Vacuum, which may free a
  // version only once no active snapshot can see it.
  ASSERT_TRUE(engine_.CreateIndex("t", "v").ok());
  auto reader = engine_.Begin();
  auto point = engine_.Read(reader, "t", K(1));
  ASSERT_TRUE(point.ok());
  ASSERT_NE(point.value(), nullptr);
  std::vector<const sql::Row*> scanned;
  ASSERT_TRUE(engine_
                  .Scan(reader, "t",
                        [&](const sql::Key&, const sql::Row& row) {
                          scanned.push_back(&row);
                        })
                  .ok());
  std::vector<const sql::Row*> looked_up;
  ASSERT_TRUE(engine_
                  .LookupByIndex(reader, "t", "v", Value::Int(300),
                                 [&](const sql::Key&, const sql::Row& row) {
                                   looked_up.push_back(&row);
                                 })
                  .ok());
  ASSERT_EQ(scanned.size(), 5u);
  ASSERT_EQ(looked_up.size(), 1u);

  auto expect_snapshot_values = [&] {
    EXPECT_EQ(point.value()->at(1).AsInt(), 100);
    for (size_t i = 0; i < scanned.size(); ++i) {
      EXPECT_EQ(scanned[i]->at(1).AsInt(), 100 * static_cast<int64_t>(i + 1));
    }
    EXPECT_EQ(looked_up[0]->at(0).AsInt(), 3);
    EXPECT_EQ(looked_up[0]->at(1).AsInt(), 300);
  };
  // Three rounds of two commits that rewrite every row, each round
  // followed by a Vacuum that must keep everything the reader can see.
  for (int round = 0; round < 3; ++round) {
    for (int commit = 0; commit < 2; ++commit) {
      auto writer = engine_.Begin();
      for (int64_t k = 1; k <= 5; ++k) {
        ASSERT_TRUE(
            engine_.Update(writer, "t", R(k, 1000 * (2 * round + commit + 1) + k))
                .ok());
      }
      ASSERT_TRUE(engine_.Commit(writer).ok());
    }
    EXPECT_EQ(engine_.Vacuum(), 0u) << "round " << round;
    expect_snapshot_values();
  }
  // Once the reader ends, every key keeps only its newest version: the
  // seed and the five older rewrites of each of the 5 keys go.
  ASSERT_TRUE(engine_.Commit(reader).ok());
  EXPECT_EQ(engine_.Vacuum(), 30u);
  auto check = engine_.Begin();
  EXPECT_EQ(MustReadV(check, 3), 6003);
}

TEST_F(StorageEngineTest, ScannedRowsStayConsistentUnderConcurrentCommits) {
  // Writers move one unit at a time between random rows while readers sum
  // the rows a Scan handed them, after Scan returned and so without the
  // table latch: every sum is the snapshot's, and no row changes under a
  // reader.
  sql::Schema schema(
      {{"k", sql::ValueType::kInt}, {"v", sql::ValueType::kInt}}, {0});
  ASSERT_TRUE(engine_.CreateTable("u", schema).ok());
  constexpr int64_t kRows = 64;
  constexpr int64_t kTotal = 100 * kRows;
  {
    auto seed = engine_.Begin();
    for (int64_t k = 0; k < kRows; ++k) {
      ASSERT_TRUE(engine_.Insert(seed, "u", R(k, 100)).ok());
    }
    ASSERT_TRUE(engine_.Commit(seed).ok());
  }
  constexpr int kWriterAttempts = 3000;
  constexpr int kReaderScans = 1500;
  std::atomic<int> commits{0};
  std::atomic<int> bad_sums{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 prng(1234 + w);
      for (int i = 0; i < kWriterAttempts; ++i) {
        const int64_t from = static_cast<int64_t>(prng() % kRows);
        const int64_t to = (from + 1 + static_cast<int64_t>(
                                           prng() % (kRows - 1))) % kRows;
        auto txn = engine_.Begin();
        auto a = engine_.Read(txn, "u", K(from));
        auto b = engine_.Read(txn, "u", K(to));
        if (!a.ok() || !b.ok() || a.value() == nullptr ||
            b.value() == nullptr) {
          engine_.Abort(txn);
          continue;
        }
        // Both values are taken before the first write.
        const int64_t va = a.value()->at(1).AsInt();
        const int64_t vb = b.value()->at(1).AsInt();
        if (engine_.Update(txn, "u", R(from, va - 1)).ok() &&
            engine_.Update(txn, "u", R(to, vb + 1)).ok() &&
            engine_.Commit(txn).ok()) {
          commits.fetch_add(1);
        } else {
          engine_.Abort(txn);
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::vector<const sql::Row*> rows;
      for (int i = 0; i < kReaderScans; ++i) {
        rows.clear();
        auto txn = engine_.Begin();
        Status st = engine_.Scan(txn, "u",
                                 [&](const sql::Key&, const sql::Row& row) {
                                   rows.push_back(&row);
                                 });
        int64_t sum = 0;
        for (const sql::Row* row : rows) sum += row->at(1).AsInt();
        if (!st.ok() || rows.size() != kRows || sum != kTotal) {
          bad_sums.fetch_add(1);
        }
        engine_.Commit(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_sums.load(), 0);
  EXPECT_GT(commits.load(), 0);
  auto check = engine_.Begin();
  int64_t sum = 0;
  ASSERT_TRUE(engine_
                  .Scan(check, "u",
                        [&](const sql::Key&, const sql::Row& row) {
                          sum += row[1].AsInt();
                        })
                  .ok());
  EXPECT_EQ(sum, kTotal);
}

}  // namespace
}  // namespace sirep::storage
