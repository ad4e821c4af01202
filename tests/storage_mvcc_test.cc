// Unit tests for the multi-version table: version chains, snapshot
// visibility, tombstones, scans, and the hash point index against the
// ordered map (also under concurrent readers: run under TSan in CI).

#include "storage/mvcc_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <thread>
#include <vector>

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

/// One version of the reference model: a key's versions oldest first.
struct RefVersion {
  Timestamp ts = 0;
  bool deleted = false;
  std::string value;
};
using RefTable = std::map<int64_t, std::vector<RefVersion>>;

/// What ReadVisible(key, snapshot) must return: the newest version at or
/// below the snapshot, or nullptr.
const RefVersion* RefVisible(const RefTable& ref, int64_t key,
                             Timestamp snapshot) {
  auto it = ref.find(key);
  if (it == ref.end()) return nullptr;
  for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
    if (v->ts <= snapshot) return &*v;
  }
  return nullptr;
}

/// MvccTable::Vacuum's contract on the reference: per key, drop what is
/// older than the newest version at or below the horizon; drop the key if
/// that version is its newest and a tombstone. Returns the versions freed.
size_t RefVacuum(RefTable& ref, Timestamp horizon) {
  size_t freed = 0;
  for (auto it = ref.begin(); it != ref.end();) {
    auto& versions = it->second;
    size_t keep = versions.size();
    while (keep > 0 && versions[keep - 1].ts > horizon) --keep;
    if (keep == 0) {  // nothing at or below the horizon
      ++it;
      continue;
    }
    freed += keep - 1;
    versions.erase(versions.begin(), versions.begin() + (keep - 1));
    if (versions.size() == 1 && versions[0].deleted) {
      it = ref.erase(it);
      ++freed;
    } else {
      ++it;
    }
  }
  return freed;
}

/// `got` is the version `want` describes (both null, or equal).
void ExpectSameVersion(const std::shared_ptr<const Version>& got,
                       const RefVersion* want, int64_t key,
                       Timestamp snapshot) {
  SCOPED_TRACE("key " + std::to_string(key) + " at snapshot " +
               std::to_string(snapshot));
  if (want == nullptr) {
    EXPECT_EQ(got, nullptr);
    return;
  }
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->commit_ts, want->ts);
  EXPECT_EQ(got->deleted, want->deleted);
  if (!want->deleted) {
    EXPECT_EQ(got->data[1].AsString(), want->value);
  }
}

TEST(MvccTableTest, PointIndexMatchesMapUnderRandomOps) {
  // Inserts, updates, tombstones and re-inserts of keys that Vacuum erased,
  // checked after every step against a plain map of version lists. Keys
  // 40..44 are never installed.
  constexpr int64_t kKeys = 40;
  MvccTable t("t", KvSchema());
  RefTable ref;
  std::mt19937_64 rng(2801);
  Timestamp ts = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng() % 10 == 0) {
      const Timestamp horizon = rng() % (ts + 1);
      ASSERT_EQ(t.Vacuum(horizon), RefVacuum(ref, horizon)) << "step " << step;
    } else {
      const int64_t key = static_cast<int64_t>(rng() % kKeys);
      const bool deleted = rng() % 4 == 0;
      const std::string value = "v" + std::to_string(++ts);
      t.Install(K(key), ts, deleted, deleted ? sql::Row{} : R(key, value));
      ref[key].push_back({ts, deleted, deleted ? "" : value});
    }
    ASSERT_EQ(t.KeyCount(), ref.size()) << "step " << step;
    for (int64_t key = 0; key < kKeys + 5; ++key) {
      const auto it = ref.find(key);
      ExpectSameVersion(t.ReadNewest(K(key)),
                        it == ref.end() ? nullptr : &it->second.back(), key,
                        ts);
      for (const Timestamp snapshot : {Timestamp{0}, rng() % (ts + 2), ts}) {
        ExpectSameVersion(t.ReadVisible(K(key), snapshot),
                          RefVisible(ref, key, snapshot), key, snapshot);
      }
    }
    if (HasFailure()) FAIL() << "step " << step;
  }
}

TEST(MvccTableTest, PointReadsFindIntKeysByDoublePins) {
  // A DOUBLE that equals an INT key finds it, as it would in the ordered
  // map; a DOUBLE that only rounds to it does not.
  constexpr int64_t kBig = 1'000'000'000'000'000'000;
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  MvccTable t("t", KvSchema());
  t.Install(K(7), 10, false, R(7, "seven"));
  t.Install(K(kBig), 10, false, R(kBig, "big"));
  t.Install(K(kTwo53 + 1), 10, false, R(kTwo53 + 1, "odd"));

  const auto seven = t.ReadNewest(sql::Key{{Value::Double(7.0)}});
  ASSERT_NE(seven, nullptr);
  EXPECT_EQ(seven->data[1].AsString(), "seven");
  const auto big = t.ReadVisible(sql::Key{{Value::Double(1e18)}}, 10);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->data[1].AsString(), "big");
  EXPECT_EQ(t.ReadNewest(
                sql::Key{{Value::Double(static_cast<double>(kTwo53))}}),
            nullptr);
  EXPECT_EQ(t.ReadNewest(sql::Key{{Value::Double(7.5)}}), nullptr);
}

TEST(MvccTableTest, PointReadsDuringRehashAndVacuum) {
  // Readers probe keys installed before they started while one writer
  // grows the index through many rehashes, and Vacuum erases tombstoned
  // keys from it. Every read must find its key with its value.
  constexpr int64_t kOldKeys = 1000;
  constexpr int64_t kNewKeys = 20000;
  constexpr int64_t kPassEvery = 100;  // new keys per reader pass
  MvccTable t("t", KvSchema());
  Timestamp ts = 0;
  for (int64_t k = 0; k < kOldKeys; ++k) {
    t.Install(K(k), ++ts, false, R(k, "v" + std::to_string(k)));
  }
  std::atomic<int64_t> installed{0};
  std::atomic<int64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      // One pass per kPassEvery new keys, so the passes span the writer's
      // run (and leave it the latch in between); a fixed number in all.
      for (int64_t next = 0; next <= kNewKeys; next += kPassEvery) {
        while (installed.load() < next) std::this_thread::yield();
        for (int64_t k = r; k < kOldKeys; k += 4) {
          const std::string want = "v" + std::to_string(k);
          const auto visible = t.ReadVisible(K(k), kOldKeys);
          const auto newest = t.ReadNewest(K(k));
          if (visible == nullptr || visible->data[1].AsString() != want ||
              newest == nullptr || newest->data[1].AsString() != want) {
            bad_reads.fetch_add(1);
          }
        }
      }
    });
  }
  for (int64_t k = kOldKeys; k < kOldKeys + kNewKeys; ++k) {
    t.Install(K(k), ++ts, false, R(k, "n"));
    if (k % 3 == 0) t.Install(K(k), ++ts, true, {});
    if (k % 2000 == 0) t.Vacuum(ts);
    installed.fetch_add(1);
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(bad_reads.load(), 0);

  t.Vacuum(ts);
  EXPECT_EQ(t.KeyCount(),
            static_cast<size_t>(kOldKeys + kNewKeys - kNewKeys / 3));
  EXPECT_EQ(t.ReadNewest(K(kOldKeys + 2)), nullptr);  // 1002 % 3 == 0
  ASSERT_NE(t.ReadNewest(K(kOldKeys + 1)), nullptr);
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
