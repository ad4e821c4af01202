// Unit tests for the multi-version table: version chains, snapshot
// visibility, tombstones, and scans.

#include "storage/mvcc_table.h"

#include <gtest/gtest.h>

#include "storage/write_set.h"

namespace sirep::storage {
namespace {

using sql::Value;

sql::Schema KvSchema() {
  return sql::Schema({{"k", sql::ValueType::kInt},
                      {"v", sql::ValueType::kString}},
                     {0});
}

sql::Key K(int64_t k) { return sql::Key{{Value::Int(k)}}; }
sql::Row R(int64_t k, const std::string& v) {
  return {Value::Int(k), Value::String(v)};
}

TEST(MvccTableTest, ReadMissingKey) {
  MvccTable t("t", KvSchema());
  EXPECT_EQ(t.ReadVisible(K(1), 100), nullptr);
  EXPECT_EQ(t.ReadNewest(K(1)), nullptr);
}

TEST(MvccTableTest, SnapshotSelectsVersion) {
  MvccTable t("t", KvSchema());
  t.Install(K(1), 10, false, R(1, "v10"));
  t.Install(K(1), 20, false, R(1, "v20"));
  t.Install(K(1), 30, false, R(1, "v30"));

  EXPECT_EQ(t.ReadVisible(K(1), 5), nullptr);  // before first commit
  auto v10 = t.ReadVisible(K(1), 10);
  ASSERT_NE(v10, nullptr);
  EXPECT_EQ(v10->data[1].AsString(), "v10");
  auto v25 = t.ReadVisible(K(1), 25);
  ASSERT_NE(v25, nullptr);
  EXPECT_EQ(v25->data[1].AsString(), "v20");
  auto v99 = t.ReadVisible(K(1), 99);
  ASSERT_NE(v99, nullptr);
  EXPECT_EQ(v99->data[1].AsString(), "v30");
}

TEST(MvccTableTest, NewestIgnoresSnapshot) {
  MvccTable t("t", KvSchema());
  t.Install(K(1), 10, false, R(1, "a"));
  t.Install(K(1), 50, false, R(1, "b"));
  auto newest = t.ReadNewest(K(1));
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->commit_ts, 50u);
}

TEST(MvccTableTest, TombstoneVisibility) {
  MvccTable t("t", KvSchema());
  t.Install(K(1), 10, false, R(1, "x"));
  t.Install(K(1), 20, true, {});  // delete at ts 20

  auto before = t.ReadVisible(K(1), 15);
  ASSERT_NE(before, nullptr);
  EXPECT_FALSE(before->deleted);
  auto after = t.ReadVisible(K(1), 25);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->deleted);
}

TEST(MvccTableTest, ReinsertAfterDelete) {
  MvccTable t("t", KvSchema());
  t.Install(K(1), 10, false, R(1, "old"));
  t.Install(K(1), 20, true, {});
  t.Install(K(1), 30, false, R(1, "new"));
  auto v = t.ReadVisible(K(1), 35);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->deleted);
  EXPECT_EQ(v->data[1].AsString(), "new");
}

TEST(MvccTableTest, ScanVisibleSkipsTombstonesAndFutures) {
  MvccTable t("t", KvSchema());
  t.Install(K(1), 10, false, R(1, "a"));
  t.Install(K(2), 10, false, R(2, "b"));
  t.Install(K(2), 20, true, {});           // deleted later
  t.Install(K(3), 30, false, R(3, "c"));   // committed later

  std::vector<int64_t> keys;
  t.ScanVisible(15, [&](const sql::Key& k, const sql::Row&) {
    keys.push_back(k.parts[0].AsInt());
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));

  keys.clear();
  t.ScanVisible(25, [&](const sql::Key& k, const sql::Row&) {
    keys.push_back(k.parts[0].AsInt());
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1}));

  keys.clear();
  t.ScanVisible(35, [&](const sql::Key& k, const sql::Row&) {
    keys.push_back(k.parts[0].AsInt());
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3}));
}

TEST(MvccTableTest, ScanDeliversKeyOrder) {
  MvccTable t("t", KvSchema());
  t.Install(K(5), 10, false, R(5, "e"));
  t.Install(K(1), 10, false, R(1, "a"));
  t.Install(K(3), 10, false, R(3, "c"));
  std::vector<int64_t> keys;
  t.ScanVisible(99, [&](const sql::Key& k, const sql::Row&) {
    keys.push_back(k.parts[0].AsInt());
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3, 5}));
}

TEST(MvccTableTest, OldVersionsSurviveNewInstalls) {
  MvccTable t("t", KvSchema());
  t.Install(K(1), 10, false, R(1, "a"));
  auto old = t.ReadVisible(K(1), 10);
  t.Install(K(1), 20, false, R(1, "b"));
  // The shared_ptr we hold still points at the old version.
  EXPECT_EQ(old->data[1].AsString(), "a");
  EXPECT_EQ(t.ReadVisible(K(1), 10)->data[1].AsString(), "a");
}

/// Versions in `key`'s chain, counted by walking it.
size_t WalkChain(const MvccTable& t, const sql::Key& key) {
  size_t len = 0;
  for (auto v = t.ReadNewest(key); v != nullptr; v = v->prev) ++len;
  return len;
}

TEST(MvccTableTest, InstallReturnsChainLengthAcrossVacuum) {
  MvccTable t("t", KvSchema());
  for (Timestamp ts = 1; ts <= 40; ++ts) {
    const size_t len = t.Install(K(1), ts, false, R(1, "v"));
    ASSERT_EQ(len, WalkChain(t, K(1)));
  }
  EXPECT_EQ(WalkChain(t, K(1)), 40u);

  // The horizon keeps versions 25..40: 16 survive, their lengths restart.
  EXPECT_EQ(t.Vacuum(25), 24u);
  EXPECT_EQ(WalkChain(t, K(1)), 16u);
  EXPECT_EQ(t.ReadVisible(K(1), 25)->chain_len, 1u);
  EXPECT_EQ(t.Install(K(1), 41, false, R(1, "v")), 17u);
  EXPECT_EQ(WalkChain(t, K(1)), 17u);

  // A vacuum that cuts nothing leaves the counts alone.
  EXPECT_EQ(t.Vacuum(10), 0u);
  const size_t len = t.Install(K(1), 42, false, R(1, "v"));
  EXPECT_EQ(len, 18u);
  EXPECT_EQ(len, WalkChain(t, K(1)));

  // Cut down to the head alone, then a tombstone on top of it.
  t.Vacuum(42);
  EXPECT_EQ(WalkChain(t, K(1)), 1u);
  EXPECT_EQ(t.Install(K(1), 43, true, {}), 2u);
  EXPECT_EQ(t.Install(K(2), 43, false, R(2, "w")), 1u);
}

TEST(WriteSetTest, RecordAndCoalesce) {
  WriteSet ws;
  TupleId t1{"t", K(1)};
  ws.Record(t1, WriteOp::kInsert, R(1, "a"));
  ws.Record(t1, WriteOp::kUpdate, R(1, "b"));
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws.entries()[0].op, WriteOp::kInsert);  // stays an insert
  EXPECT_EQ(ws.entries()[0].after[1].AsString(), "b");

  ws.Record(t1, WriteOp::kDelete, {});
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws.entries()[0].op, WriteOp::kDelete);
  EXPECT_TRUE(ws.entries()[0].after.empty());
}

TEST(WriteSetTest, DeleteThenInsertBecomesUpdate) {
  WriteSet ws;
  TupleId t1{"t", K(1)};
  ws.Record(t1, WriteOp::kDelete, {});
  ws.Record(t1, WriteOp::kInsert, R(1, "new"));
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws.entries()[0].op, WriteOp::kUpdate);
}

TEST(WriteSetTest, IntersectionDetection) {
  WriteSet a, b, c;
  a.Record({"t", K(1)}, WriteOp::kUpdate, R(1, "x"));
  a.Record({"t", K(2)}, WriteOp::kUpdate, R(2, "x"));
  b.Record({"t", K(2)}, WriteOp::kUpdate, R(2, "y"));
  c.Record({"t", K(3)}, WriteOp::kUpdate, R(3, "z"));
  c.Record({"u", K(1)}, WriteOp::kUpdate, R(1, "z"));

  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));  // "u".1 != "t".1
  EXPECT_FALSE(c.Intersects(b));
}

TEST(WriteSetTest, OrderPreservedAcrossTuples) {
  WriteSet ws;
  ws.Record({"t", K(3)}, WriteOp::kUpdate, R(3, "a"));
  ws.Record({"t", K(1)}, WriteOp::kUpdate, R(1, "b"));
  ws.Record({"t", K(2)}, WriteOp::kUpdate, R(2, "c"));
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws.entries()[0].tuple.key.parts[0].AsInt(), 3);
  EXPECT_EQ(ws.entries()[1].tuple.key.parts[0].AsInt(), 1);
  EXPECT_EQ(ws.entries()[2].tuple.key.parts[0].AsInt(), 2);
}

TEST(WriteSetTest, TablesListsDistinctTables) {
  WriteSet ws;
  ws.Record({"b", K(1)}, WriteOp::kUpdate, {});
  ws.Record({"a", K(1)}, WriteOp::kUpdate, {});
  ws.Record({"b", K(2)}, WriteOp::kUpdate, {});
  auto tables = ws.Tables();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0], "b");  // first-touch order
  EXPECT_EQ(tables[1], "a");
}

}  // namespace
}  // namespace sirep::storage
