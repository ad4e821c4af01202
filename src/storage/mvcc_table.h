#ifndef SIREP_STORAGE_MVCC_TABLE_H_
#define SIREP_STORAGE_MVCC_TABLE_H_

#include <functional>
#include <map>
#include <set>
#include <memory>
#include <shared_mutex>
#include <string>
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
/// Readers are latch-light: a shared lock protects the key map during
/// scans; version chains are immutable once published (installs swap the
/// head pointer under the exclusive latch).
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
  /// that is not a tombstone. Row data is handed out as shared_ptr-backed
  /// const refs valid for the callback's duration.
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
  /// Caller holds latch_ exclusively.
  void IndexInsertLocked(const sql::Key& key, const sql::Row& data);

  std::string name_;
  sql::Schema schema_;
  mutable std::shared_mutex latch_;
  std::map<sql::Key, std::shared_ptr<const Version>> rows_;
  // column -> value -> keys (conservative, multi-version).
  std::map<std::string, std::map<sql::Value, std::set<sql::Key>>> indexes_;
};

}  // namespace sirep::storage

#endif  // SIREP_STORAGE_MVCC_TABLE_H_
