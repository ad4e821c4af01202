#ifndef SIREP_STORAGE_MVCC_TABLE_H_
#define SIREP_STORAGE_MVCC_TABLE_H_

#include <functional>
#include <map>
#include <set>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "sql/schema.h"
#include "sql/value.h"
#include "storage/types.h"

namespace sirep::storage {

/// One committed version of a tuple. Versions form a chain, newest first.
/// A deleted tuple is represented by a tombstone version.
struct Version {
  Timestamp commit_ts = 0;
  bool deleted = false;
  /// Versions from this one to the end of its chain, itself included
  /// (`prev->chain_len + 1`). Written only under the table's exclusive
  /// latch: at install, and by Vacuum when it cuts the chain.
  size_t chain_len = 1;
  sql::Row data;
  std::shared_ptr<const Version> prev;
};

/// Multi-version table: primary key -> chain of committed versions.
/// Uncommitted writes never appear here; they live in the writing
/// transaction's buffer until commit installs them.
///
/// Two structures reach the chains, under one latch:
///  * `rows_`, an ordered map from key to chain head, owns the chains.
///    Scans, index backfill, vacuum and `KeyCount` walk it, so scans
///    deliver key order.
///  * `point_`, a hash set of pointers to `rows_` entries (map nodes never
///    move). Point accesses (`ReadVisible`, `ReadNewest`, `Install`) find
///    a key's entry through it in O(1) instead of walking the tree.
/// Readers hold the latch shared; `Install` and `Vacuum` hold it
/// exclusively and keep both structures in step. Version chains are
/// immutable once published (installs swap the head pointer).
class MvccTable {
 public:
  MvccTable(std::string name, sql::Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const sql::Schema& schema() const { return schema_; }

  /// Newest committed version of `key` visible at `snapshot`, or nullptr
  /// if none (never existed, or created after the snapshot). The returned
  /// version may be a tombstone (deleted == true).
  std::shared_ptr<const Version> ReadVisible(const sql::Key& key,
                                             Timestamp snapshot) const;

  /// Newest committed version regardless of snapshot (for the
  /// first-updater-wins version check), or nullptr.
  std::shared_ptr<const Version> ReadNewest(const sql::Key& key) const;

  /// Installs a new committed version (called at commit time, while the
  /// writer still holds the tuple lock, so no other install races on the
  /// same key). Returns the key's version-chain length after the install
  /// (kept in the version, so O(1)), which the engine feeds into its
  /// chain-length histogram to watch vacuum debt.
  size_t Install(const sql::Key& key, Timestamp commit_ts, bool deleted,
                 sql::Row data);

  /// Invokes `fn` for every key's newest version visible at `snapshot`
  /// that is not a tombstone, under the shared latch. The key and row are
  /// the stored ones; how long they stay valid after the callback is the
  /// read contract in storage_engine.h ("reads").
  void ScanVisible(
      Timestamp snapshot,
      const std::function<void(const sql::Key&, const sql::Row&)>& fn) const;

  /// Number of distinct keys ever inserted (incl. tombstoned). Test use.
  size_t KeyCount() const;

  // ---- secondary indexes ----

  /// Creates a single-column, non-unique secondary index and backfills it
  /// from the existing version chains. Index entries are conservative:
  /// they reference every value any version ever had (like a PostgreSQL
  /// index containing entries for dead tuples); readers re-check
  /// visibility and the predicate against the heap. Entries are pruned by
  /// Vacuum.
  Status CreateIndex(const std::string& column);

  /// True if `column` has a secondary index.
  bool HasIndex(const std::string& column) const;

  /// Primary keys whose tuple may currently (or historically) hold
  /// `value` in `column`. Callers must re-check against a visible read.
  std::vector<sql::Key> IndexLookup(const std::string& column,
                                    const sql::Value& value) const;

  /// Indexed column names (introspection).
  std::vector<std::string> IndexedColumns() const;

  /// Drops versions that can no longer be seen by any snapshot at or
  /// after `horizon` (i.e. keeps, per key, the newest version with
  /// commit_ts <= horizon plus everything newer), removes fully-dead
  /// keys' tombstones older than the horizon, and prunes index entries
  /// that no surviving version justifies. Returns the number of versions
  /// freed.
  size_t Vacuum(Timestamp horizon);

 private:
  using Chains = std::map<sql::Key, std::shared_ptr<const Version>>;
  using Entry = Chains::value_type;

  /// Hashes and compares `point_`'s entries by their key, and probes them
  /// by a bare key (heterogeneous lookup), so a probe copies no key. Not
  /// noexcept on purpose: libstdc++ then caches each entry's hash in its
  /// node, so a rehash or a probe dereferences no other key. Key equality
  /// agrees with the map's ordering (sql::Value::Compare is exact).
  struct EntryHash {
    using is_transparent = void;
    size_t operator()(const Entry* entry) const { return entry->first.Hash(); }
    size_t operator()(const sql::Key& key) const { return key.Hash(); }
  };
  struct EntryEq {
    using is_transparent = void;
    bool operator()(const Entry* a, const Entry* b) const {
      return a->first == b->first;
    }
    bool operator()(const sql::Key& key, const Entry* entry) const {
      return key == entry->first;
    }
    bool operator()(const Entry* entry, const sql::Key& key) const {
      return entry->first == key;
    }
  };

  /// `key`'s entry in `rows_`, or nullptr. Caller holds latch_.
  Entry* FindLocked(const sql::Key& key) const {
    auto it = point_.find(key);
    return it == point_.end() ? nullptr : *it;
  }

  /// Caller holds latch_ exclusively.
  void IndexInsertLocked(const sql::Key& key, const sql::Row& data);

  std::string name_;
  sql::Schema schema_;
  mutable std::shared_mutex latch_;
  Chains rows_;
  std::unordered_set<Entry*, EntryHash, EntryEq> point_;
  // column -> value -> keys (conservative, multi-version).
  std::map<std::string, std::map<sql::Value, std::set<sql::Key>>> indexes_;
};

}  // namespace sirep::storage

#endif  // SIREP_STORAGE_MVCC_TABLE_H_
