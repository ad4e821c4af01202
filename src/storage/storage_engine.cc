#include "storage/storage_engine.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace sirep::storage {

StorageEngine::StorageEngine() {
  c_commits_ = registry_.GetCounter("storage.commits");
  c_aborts_ = registry_.GetCounter("storage.aborts");
  c_ww_conflicts_ = registry_.GetCounter("storage.ww_conflicts");
  c_deadlocks_ = registry_.GetCounter("storage.deadlocks");
  h_wal_append_us_ = registry_.GetLatencyHistogram("storage.wal_append_us");
  h_wal_group_size_ = registry_.GetHistogram("storage.wal_group_size",
                                             obs::LengthBuckets());
  h_version_chain_len_ = registry_.GetHistogram("storage.version_chain_len",
                                                obs::LengthBuckets());
  locks_.SetWaitHistogram(
      registry_.GetLatencyHistogram("storage.lock_wait_us"));
}

Status StorageEngine::CreateTable(const std::string& name,
                                  sql::Schema schema) {
  if (schema.key_indexes().empty()) {
    return Status::InvalidArgument("table '" + name +
                                   "' must have a primary key");
  }
  std::lock_guard<std::mutex> lock(tables_mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_[name] = std::make_unique<MvccTable>(name, std::move(schema));
  return Status::OK();
}

MvccTable* StorageEngine::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> StorageEngine::TableNames() const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

TransactionPtr StorageEngine::Begin() {
  auto txn = std::make_shared<Transaction>();
  txn->id_ = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    txn->snapshot_ = clock_;
    active_snapshots_.insert(txn->snapshot_);
  }
  return txn;
}

void StorageEngine::ReleaseSnapshot(Timestamp snapshot) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  auto it = active_snapshots_.find(snapshot);
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
}

Status StorageEngine::CheckActive(const TransactionPtr& txn) const {
  if (txn == nullptr) return Status::InvalidArgument("null transaction");
  switch (txn->state()) {
    case TxnState::kActive:
      return Status::OK();
    case TxnState::kCommitted:
      return Status::InvalidArgument("transaction already committed");
    case TxnState::kAborted:
      return Status::Aborted("transaction is aborted");
  }
  return Status::Internal("bad transaction state");
}

Status StorageEngine::AbortWith(const TransactionPtr& txn, Status status) {
  Abort(txn);
  return status;
}

Status StorageEngine::Commit(const TransactionPtr& txn) {
  uint64_t ticket = 0;
  SIREP_RETURN_IF_ERROR(Commit(txn, &ticket));
  return WaitWalDurable(ticket);
}

Status StorageEngine::Commit(const TransactionPtr& txn,
                             uint64_t* durability_ticket) {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  if (txn->writes_.empty()) {
    txn->state_.store(TxnState::kCommitted, std::memory_order_release);
    locks_.ReleaseAll(txn->id());  // releases nothing, clears poison flag
    ReleaseSnapshot(txn->snapshot());
    c_commits_->Increment();
    return Status::OK();
  }
  uint64_t wal_ticket = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    const Timestamp commit_ts = ++clock_;
    // Write-ahead: the log record lands (group mode: is buffered, in
    // commit-timestamp order) before the in-memory install becomes
    // visible (both under commit_mu_, so readers never see a commit the
    // log does not have a record for).
    if (wal_ != nullptr) {
      obs::ScopedLatency wal_timer(h_wal_append_us_);
      if (wal_group_commit_) {
        auto ticket = wal_->AppendCommitBuffered(commit_ts, txn->writes_);
        SIREP_RETURN_IF_ERROR(ticket.status());
        wal_ticket = ticket.value();
      } else {
        SIREP_RETURN_IF_ERROR(wal_->AppendCommit(commit_ts, txn->writes_));
      }
    }
    for (const auto& entry : txn->writes_.entries()) {
      MvccTable* table = GetTable(entry.tuple.table);
      if (table == nullptr) {
        // Cannot happen through the public API; fail loudly if it does.
        return Status::Internal("commit references missing table " +
                                entry.tuple.table);
      }
      const size_t chain_len =
          table->Install(entry.tuple.key, commit_ts,
                         entry.op == WriteOp::kDelete, entry.after);
      h_version_chain_len_->Observe(static_cast<double>(chain_len));
    }
  }
  txn->state_.store(TxnState::kCommitted, std::memory_order_release);
  locks_.ReleaseAll(txn->id());
  ReleaseSnapshot(txn->snapshot());
  c_commits_->Increment();
  // Group commit: the caller waits via WaitWalDurable(*durability_ticket)
  // — crucially *outside* whatever lock wrapped this commit (the
  // middleware calls Commit inside ToCommitQueue::Commit's mutex,
  // which must not be held across a flush wait or concurrent committers
  // could never pile into one group). The versions above are already
  // visible; on a flush failure the in-memory commit stands and the
  // error reports the durability loss.
  *durability_ticket = wal_ticket;
  return Status::OK();
}

Status StorageEngine::WaitWalDurable(uint64_t ticket) {
  if (ticket == 0 || wal_ == nullptr) return Status::OK();
  return wal_->WaitDurable(ticket);
}

void StorageEngine::Abort(const TransactionPtr& txn) {
  if (txn == nullptr) return;
  TxnState expected = TxnState::kActive;
  if (!txn->state_.compare_exchange_strong(expected, TxnState::kAborted,
                                           std::memory_order_acq_rel)) {
    return;  // already terminated
  }
  txn->writes_.Clear();
  // If the transaction's thread is blocked waiting for a tuple lock (an
  // external abort, e.g. the client giving up on a transaction stuck in
  // a hidden deadlock), wake it with kAborted.
  locks_.Poison(txn->id());
  locks_.ReleaseAll(txn->id());
  ReleaseSnapshot(txn->snapshot());
  c_aborts_->Increment();
}

Result<const sql::Row*> StorageEngine::Read(const TransactionPtr& txn,
                                            const std::string& table,
                                            const sql::Key& key) const {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  MvccTable* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  // Read-your-own-writes.
  const WriteSetEntry* own = txn->writes().Find(TupleId{table, key});
  if (own != nullptr) {
    return own->op == WriteOp::kDelete ? nullptr : &own->after;
  }
  // The version outlives this handle: its chain keeps it (see the header).
  auto version = t->ReadVisible(key, txn->snapshot());
  if (version == nullptr || version->deleted) return nullptr;
  return &version->data;
}

Status StorageEngine::Scan(
    const TransactionPtr& txn, const std::string& table,
    const std::function<void(const sql::Key&, const sql::Row&)>& fn) const {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  MvccTable* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");

  // Overlay the transaction's own buffered writes on the snapshot view.
  std::map<sql::Key, const WriteSetEntry*> own;
  for (const auto& entry : txn->writes().entries()) {
    if (entry.tuple.table == table) own[entry.tuple.key] = &entry;
  }
  if (own.empty()) {
    t->ScanVisible(txn->snapshot(), fn);
    return Status::OK();
  }
  // Merge: collect the snapshot view, then apply the overlay in key order.
  std::map<sql::Key, const sql::Row*> merged;
  t->ScanVisible(txn->snapshot(),
                 [&](const sql::Key& key, const sql::Row& row) {
                   merged.emplace(key, &row);
                 });
  for (const auto& [key, entry] : own) {
    if (entry->op == WriteOp::kDelete) {
      merged.erase(key);
    } else {
      merged[key] = &entry->after;
    }
  }
  for (const auto& [key, row] : merged) fn(key, *row);
  return Status::OK();
}

Status StorageEngine::LockAndCheck(const TransactionPtr& txn,
                                   const TupleId& tuple) {
  Status lock_status = locks_.Acquire(txn->id(), tuple);
  if (!lock_status.ok()) {
    if (lock_status.code() == StatusCode::kDeadlock) {
      c_deadlocks_->Increment();
    }
    return lock_status;
  }
  // First-updater-wins version check (paper §4): if the newest committed
  // version postdates our snapshot, a concurrent transaction committed a
  // write to this tuple — abort.
  MvccTable* t = GetTable(tuple.table);
  auto newest = t->ReadNewest(tuple.key);
  if (newest != nullptr && newest->commit_ts > txn->snapshot()) {
    c_ww_conflicts_->Increment();
    return Status::Conflict("concurrent committed write to " +
                            tuple.ToString());
  }
  return Status::OK();
}

Status StorageEngine::Insert(const TransactionPtr& txn,
                             const std::string& table, sql::Row row) {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  MvccTable* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  SIREP_RETURN_IF_ERROR(t->schema().ValidateRow(row));
  const sql::Key key = t->schema().KeyOf(row);
  const TupleId tuple{table, key};

  Status st = LockAndCheck(txn, tuple);
  if (!st.ok()) return AbortWith(txn, std::move(st));

  // Uniqueness: a live tuple visible at our snapshot (or buffered by us).
  const WriteSetEntry* own = txn->writes().Find(tuple);
  if (own != nullptr && own->op != WriteOp::kDelete) {
    return AbortWith(txn, Status::AlreadyExists("duplicate key " +
                                                key.ToString() + " in '" +
                                                table + "'"));
  }
  if (own == nullptr) {
    auto visible = t->ReadVisible(key, txn->snapshot());
    if (visible != nullptr && !visible->deleted) {
      return AbortWith(txn, Status::AlreadyExists("duplicate key " +
                                                  key.ToString() + " in '" +
                                                  table + "'"));
    }
  }
  txn->writes_.Record(tuple, WriteOp::kInsert, std::move(row));
  return Status::OK();
}

Status StorageEngine::Update(const TransactionPtr& txn,
                             const std::string& table, sql::Row new_row) {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  MvccTable* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  SIREP_RETURN_IF_ERROR(t->schema().ValidateRow(new_row));
  const sql::Key key = t->schema().KeyOf(new_row);
  const TupleId tuple{table, key};

  // Visibility first (cheap, no lock): updating an invisible tuple is "0
  // rows" — not an abort.
  const WriteSetEntry* own = txn->writes().Find(tuple);
  if (own != nullptr) {
    if (own->op == WriteOp::kDelete) {
      return Status::NotFound("tuple " + key.ToString() + " not visible");
    }
  } else {
    auto visible = t->ReadVisible(key, txn->snapshot());
    if (visible == nullptr || visible->deleted) {
      return Status::NotFound("tuple " + key.ToString() + " not visible");
    }
  }

  Status st = LockAndCheck(txn, tuple);
  if (!st.ok()) return AbortWith(txn, std::move(st));

  txn->writes_.Record(tuple, WriteOp::kUpdate, std::move(new_row));
  return Status::OK();
}

Status StorageEngine::Delete(const TransactionPtr& txn,
                             const std::string& table, const sql::Key& key) {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  MvccTable* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  const TupleId tuple{table, key};

  const WriteSetEntry* own = txn->writes().Find(tuple);
  if (own != nullptr) {
    if (own->op == WriteOp::kDelete) {
      return Status::NotFound("tuple " + key.ToString() + " not visible");
    }
  } else {
    auto visible = t->ReadVisible(key, txn->snapshot());
    if (visible == nullptr || visible->deleted) {
      return Status::NotFound("tuple " + key.ToString() + " not visible");
    }
  }

  Status st = LockAndCheck(txn, tuple);
  if (!st.ok()) return AbortWith(txn, std::move(st));

  txn->writes_.Record(tuple, WriteOp::kDelete, {});
  return Status::OK();
}

std::shared_ptr<const WriteSet> StorageEngine::ExtractWriteSet(
    const TransactionPtr& txn) const {
  return std::make_shared<const WriteSet>(txn->writes());
}

Status StorageEngine::ApplyWriteSet(const TransactionPtr& txn,
                                    const WriteSet& ws) {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  for (const auto& entry : ws.entries()) {
    MvccTable* t = GetTable(entry.tuple.table);
    if (t == nullptr) {
      return AbortWith(txn, Status::NotFound("no table '" +
                                             entry.tuple.table + "'"));
    }
    Status st = LockAndCheck(txn, entry.tuple);
    if (!st.ok()) return AbortWith(txn, std::move(st));
    txn->writes_.Record(entry.tuple, entry.op, entry.after);
  }
  return Status::OK();
}

Timestamp StorageEngine::last_committed() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return clock_;
}

Status StorageEngine::CreateIndex(const std::string& table,
                                  const std::string& column) {
  MvccTable* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  return t->CreateIndex(column);
}

Status StorageEngine::LookupByIndex(
    const TransactionPtr& txn, const std::string& table,
    const std::string& column, const sql::Value& value,
    const std::function<void(const sql::Key&, const sql::Row&)>& fn) const {
  SIREP_RETURN_IF_ERROR(CheckActive(txn));
  MvccTable* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  if (!t->HasIndex(column)) {
    return Status::NotFound("no index on '" + table + "." + column + "'");
  }
  const int col = t->schema().FindColumn(column);
  // Candidates from the index, re-checked through a visible point read
  // (which also sees the transaction's own writes).
  std::map<sql::Key, const sql::Row*> matched;
  for (const auto& key : t->IndexLookup(column, value)) {
    auto row = Read(txn, table, key);
    if (!row.ok()) return row.status();
    if (row.value() == nullptr) continue;
    if ((*row.value())[static_cast<size_t>(col)].Compare(value) != 0) {
      continue;  // stale index entry for an older version
    }
    matched.emplace(key, row.value());
  }
  // The transaction's own buffered writes are not indexed: merge them.
  for (const auto& entry : txn->writes().entries()) {
    if (entry.tuple.table != table) continue;
    if (entry.op == WriteOp::kDelete) {
      matched.erase(entry.tuple.key);
    } else if (entry.after[static_cast<size_t>(col)].Compare(value) == 0) {
      matched[entry.tuple.key] = &entry.after;
    } else {
      matched.erase(entry.tuple.key);  // own write moved it off this value
    }
  }
  for (const auto& [key, row] : matched) fn(key, *row);
  return Status::OK();
}

size_t StorageEngine::Vacuum() {
  const Timestamp horizon = OldestActiveSnapshot();
  size_t freed = 0;
  std::vector<std::string> names = TableNames();
  for (const auto& name : names) {
    MvccTable* t = GetTable(name);
    if (t != nullptr) freed += t->Vacuum(horizon);
  }
  return freed;
}

Status StorageEngine::EnableWal(const std::string& path, bool group_commit) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (wal_ != nullptr) return Status::AlreadyExists("WAL already enabled");
  auto wal = std::make_unique<Wal>(path);
  SIREP_RETURN_IF_ERROR(wal->Open());
  wal->SetGroupSizeHistogram(h_wal_group_size_);
  wal_ = std::move(wal);
  wal_group_commit_ = group_commit;
  return Status::OK();
}

Status StorageEngine::RecoverFromWal(const std::string& path) {
  Wal wal(path);
  Timestamp max_ts = 0;
  Status st = wal.Replay([&](Timestamp commit_ts,
                             const WriteSet& ws) -> Status {
    for (const auto& entry : ws.entries()) {
      MvccTable* table = GetTable(entry.tuple.table);
      if (table == nullptr) {
        return Status::NotFound("WAL references missing table '" +
                                entry.tuple.table +
                                "' (create the schema before recovery)");
      }
      const size_t chain_len =
          table->Install(entry.tuple.key, commit_ts,
                         entry.op == WriteOp::kDelete, entry.after);
      h_version_chain_len_->Observe(static_cast<double>(chain_len));
    }
    if (commit_ts > max_ts) max_ts = commit_ts;
    return Status::OK();
  });
  SIREP_RETURN_IF_ERROR(st);
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (max_ts > clock_) clock_ = max_ts;
  return Status::OK();
}

void StorageEngine::SimulateRestart() {
  locks_.Reset();
  std::lock_guard<std::mutex> lock(commit_mu_);
  active_snapshots_.clear();
}

Timestamp StorageEngine::OldestActiveSnapshot() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (active_snapshots_.empty()) return clock_;
  return *active_snapshots_.begin();
}

}  // namespace sirep::storage
