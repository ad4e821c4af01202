#ifndef SIREP_STORAGE_STORAGE_ENGINE_H_
#define SIREP_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <functional>
#include <set>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sql/schema.h"
#include "sql/value.h"
#include "storage/lock_manager.h"
#include "storage/mvcc_table.h"
#include "storage/types.h"
#include "storage/wal.h"
#include "storage/write_set.h"

namespace sirep::storage {

enum class TxnState { kActive, kCommitted, kAborted };

/// A storage-level transaction handle. Created by StorageEngine::Begin();
/// used by a single thread at a time. Pending writes are buffered in
/// `writes` (which doubles as the extractable writeset) and installed into
/// the version chains only at commit.
class Transaction {
 public:
  TxnId id() const { return id_; }
  Timestamp snapshot() const { return snapshot_; }
  TxnState state() const { return state_.load(std::memory_order_acquire); }
  const WriteSet& writes() const { return writes_; }

 private:
  friend class StorageEngine;
  TxnId id_ = kInvalidTxnId;
  Timestamp snapshot_ = 0;
  std::atomic<TxnState> state_{TxnState::kActive};
  WriteSet writes_;
};

using TransactionPtr = std::shared_ptr<Transaction>;

/// A single database replica's storage engine: multi-version tables with
/// **snapshot isolation** implemented the way PostgreSQL implements it
/// (paper §4): writers take tuple locks during execution and run a version
/// check — if the newest committed version of the tuple was created by a
/// transaction concurrent with ours, we abort (first-updater-wins). Blocked
/// writers re-run the check when the lock is granted, so a waiter whose
/// blocker commits aborts, and a waiter whose blocker aborts may proceed.
///
/// The engine additionally provides the two primitives the SI-Rep
/// middleware needs from its replicas (paper §3, §5.5):
///  * pre-commit **writeset extraction** (ExtractWriteSet), and
///  * **writeset application** (ApplyWriteSet) that installs after-images
///    directly, without re-executing SQL.
///
/// All methods are thread-safe; each Transaction must be driven by one
/// thread at a time.
class StorageEngine {
 public:
  StorageEngine();
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // ---- DDL ----

  Status CreateTable(const std::string& name, sql::Schema schema);
  MvccTable* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // ---- transaction lifecycle ----

  /// Starts a transaction. The snapshot is the latest committed timestamp;
  /// taking it is atomic with respect to commits, which is what lets the
  /// middleware reason about "the last committed transaction before Ti
  /// started" (paper Fig. 1, I.1.b-c).
  TransactionPtr Begin();

  /// Commits: installs buffered writes as new versions with a fresh commit
  /// timestamp, releases locks. Cannot fail for an active transaction —
  /// conflicts were already detected at write time (locks are held from
  /// write to commit, so no newer committed version can have appeared).
  /// With group-commit WAL enabled this form also waits for the record's
  /// group flush before returning.
  Status Commit(const TransactionPtr& txn);

  /// Two-phase form for callers that hold a lock across Commit (the
  /// middleware commits inside the tocommit queue's mutex): completes the
  /// in-memory commit and hands back a durability ticket instead of
  /// waiting. The caller must pass it to WaitWalDurable() *after*
  /// releasing its lock — before acknowledging the commit — so
  /// concurrent committers can share one group flush. The ticket is 0
  /// (WaitWalDurable is a no-op) without group-commit WAL.
  Status Commit(const TransactionPtr& txn, uint64_t* durability_ticket);

  /// Blocks until the ticket's WAL record is flushed (see above).
  Status WaitWalDurable(uint64_t ticket);

  /// Aborts: drops buffered writes, releases locks. Idempotent.
  void Abort(const TransactionPtr& txn);

  // ---- reads (never block, never lock) ----

  /// Point read by primary key; sees the transaction's own writes.
  /// nullopt => no visible live tuple.
  Result<std::optional<sql::Row>> Read(const TransactionPtr& txn,
                                       const std::string& table,
                                       const sql::Key& key) const;

  /// Snapshot scan including the transaction's own writes. Rows are
  /// delivered in key order.
  Status Scan(const TransactionPtr& txn, const std::string& table,
              const std::function<void(const sql::Key&, const sql::Row&)>&
                  fn) const;

  // ---- writes (lock + version check + buffer) ----

  /// Inserts a full row. Fails kAlreadyExists if a live tuple with the
  /// same key is visible, kConflict if a concurrent committed transaction
  /// touched the key. On any failure the transaction is aborted.
  Status Insert(const TransactionPtr& txn, const std::string& table,
                sql::Row row);

  /// Replaces the row identified by its key fields. Returns kNotFound
  /// (without aborting) if no live tuple is visible.
  Status Update(const TransactionPtr& txn, const std::string& table,
                sql::Row new_row);

  /// Deletes by key. Returns kNotFound (without aborting) if no live
  /// tuple is visible.
  Status Delete(const TransactionPtr& txn, const std::string& table,
                const sql::Key& key);

  // ---- middleware primitives ----

  /// Pre-commit writeset extraction: a snapshot copy of the transaction's
  /// buffered writes (paper: "we provide a pre-commit extraction").
  std::shared_ptr<const WriteSet> ExtractWriteSet(
      const TransactionPtr& txn) const;

  /// Applies a remote writeset inside `txn`: locks each tuple, performs
  /// the same first-updater-wins check, and buffers the after-images.
  /// The caller then Commit()s. Returns kConflict/kDeadlock (transaction
  /// aborted) if application must be retried, per paper §4.2.
  Status ApplyWriteSet(const TransactionPtr& txn, const WriteSet& ws);

  // ---- introspection ----

  Timestamp last_committed() const;
  LockManager& lock_manager() { return locks_; }

  /// This engine's metrics registry: "storage.*" counters plus the WAL
  /// append, lock wait, and version-chain-length histograms.
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// Simulates a database process restart after a crash: committed state
  /// (the version chains) survives, every lock is dropped, stale
  /// snapshots stop pinning the vacuum horizon, and any transaction of
  /// the dead incarnation that is still blocked wakes up aborted. Called
  /// by the cluster harness before online recovery.
  void SimulateRestart();

  // ---- secondary indexes & maintenance ----

  /// Creates a single-column secondary index (see MvccTable::CreateIndex).
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Index-assisted point-in: invokes `fn` for every live tuple visible
  /// to `txn` whose `column` equals `value`, including the transaction's
  /// own uncommitted writes (which are never in the index). Returns
  /// kNotFound if the column has no index.
  Status LookupByIndex(
      const TransactionPtr& txn, const std::string& table,
      const std::string& column, const sql::Value& value,
      const std::function<void(const sql::Key&, const sql::Row&)>& fn) const;

  /// Garbage-collects versions no active snapshot can see (PostgreSQL's
  /// VACUUM): the horizon is the oldest active snapshot (or the latest
  /// commit when idle). Returns the number of versions freed.
  size_t Vacuum();

  /// Oldest snapshot still active (== last_committed when none). Test
  /// and introspection helper.
  Timestamp OldestActiveSnapshot() const;

  // ---- durability (write-ahead log) ----

  /// Turns on WAL durability: every commit appends its writeset to the
  /// log at `path` before returning. Enable before traffic starts.
  ///
  /// With `group_commit`, commits buffer their record inside the commit
  /// critical section and wait for a leader-elected group flush outside
  /// it, so concurrent committers — e.g. the middleware's parallel
  /// remote appliers — amortize flushes ("storage.wal_group_size"
  /// histograms the records per flush). A commit still never returns
  /// before its record is flushed; only the flush granularity changes.
  /// If the group flush fails (log wedged), the commit's versions are
  /// already visible — the commit completes in memory and the error
  /// reports the lost durability.
  Status EnableWal(const std::string& path, bool group_commit = false);

  /// Rebuilds the committed state from the WAL at `path` (tables must
  /// already exist — schema is DDL, not logged). Installs versions with
  /// their original commit timestamps and advances the engine clock.
  /// Call on a fresh engine before traffic; typically followed by
  /// EnableWal on the same path to continue appending.
  Status RecoverFromWal(const std::string& path);

 private:
  /// Lock + first-updater-wins version check; buffers nothing.
  Status LockAndCheck(const TransactionPtr& txn, const TupleId& tuple);

  /// Fails any further use of an aborted/committed handle.
  Status CheckActive(const TransactionPtr& txn) const;

  /// Aborts and forwards `status` (the standard failure path for writes).
  Status AbortWith(const TransactionPtr& txn, Status status);

  /// Removes a finished transaction's snapshot from the vacuum horizon.
  void ReleaseSnapshot(Timestamp snapshot);

  mutable std::mutex tables_mu_;
  std::unordered_map<std::string, std::unique_ptr<MvccTable>> tables_;

  LockManager locks_;

  // Guards commit-timestamp assignment + version installs + snapshot
  // acquisition, making "begin" atomic w.r.t. "commit".
  mutable std::mutex commit_mu_;
  Timestamp clock_ = 0;
  std::unique_ptr<Wal> wal_;  // null unless EnableWal was called
  bool wal_group_commit_ = false;

  std::atomic<TxnId> next_txn_id_{1};

  // Active snapshots, for the vacuum horizon. Guarded by commit_mu_ (the
  // same mutex that makes Begin atomic with commits).
  std::multiset<Timestamp> active_snapshots_;

  // Observability handles (resolved once in the constructor; recording
  // through them is lock-free).
  obs::MetricsRegistry registry_;
  obs::Counter* c_commits_ = nullptr;
  obs::Counter* c_aborts_ = nullptr;
  obs::Counter* c_ww_conflicts_ = nullptr;
  obs::Counter* c_deadlocks_ = nullptr;
  obs::Histogram* h_wal_append_us_ = nullptr;
  obs::Histogram* h_wal_group_size_ = nullptr;
  obs::Histogram* h_version_chain_len_ = nullptr;
};

}  // namespace sirep::storage

#endif  // SIREP_STORAGE_STORAGE_ENGINE_H_
