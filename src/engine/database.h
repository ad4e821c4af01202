#ifndef SIREP_ENGINE_DATABASE_H_
#define SIREP_ENGINE_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/query_result.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"
#include "storage/write_set.h"

namespace sirep::engine {

/// One database replica: SQL execution over the MVCC storage engine. This
/// is the component the SI-Rep middleware runs *on top of* — it plays the
/// role PostgreSQL plays in the paper, including the two extension hooks
/// the paper adds to PostgreSQL (pre-commit writeset extraction and
/// writeset application).
///
/// Thread-safe; one transaction handle must be driven by one thread at a
/// time. Statement texts are parsed once and cached (prepared statements).
class Database {
 public:
  /// Most statement texts the prepared-statement cache holds. A full
  /// cache is emptied before the next text goes in: it only saves
  /// parses, and a workload's few dozen parameterised texts never fill
  /// it, while texts with inlined literals could otherwise grow it
  /// without bound.
  static constexpr size_t kMaxPreparedStatements = 1024;

  explicit Database(std::string name = "db") : name_(std::move(name)) {
    h_stmt_us_ = engine_.metrics().GetLatencyHistogram("engine.stmt_us");
  }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }
  storage::StorageEngine& engine() { return engine_; }
  const storage::StorageEngine& engine() const { return engine_; }

  // ---- transactions ----

  storage::TransactionPtr Begin() { return engine_.Begin(); }
  Status Commit(const storage::TransactionPtr& txn) {
    return engine_.Commit(txn);
  }
  /// Lock-holding callers: commit now, wait for WAL durability later
  /// (see StorageEngine::Commit's two-phase form).
  Status Commit(const storage::TransactionPtr& txn,
                uint64_t* durability_ticket) {
    return engine_.Commit(txn, durability_ticket);
  }
  Status WaitWalDurable(uint64_t ticket) {
    return engine_.WaitWalDurable(ticket);
  }
  void Abort(const storage::TransactionPtr& txn) { engine_.Abort(txn); }

  // ---- statement execution ----

  /// Parses (with cache) and executes one statement within `txn`.
  /// Transaction-control statements (BEGIN/COMMIT/ROLLBACK) are rejected
  /// here; they are session-level concerns.
  Result<QueryResult> Execute(const storage::TransactionPtr& txn,
                              const std::string& sql,
                              const std::vector<sql::Value>& params = {});

  /// Executes a pre-parsed statement.
  Result<QueryResult> Execute(const storage::TransactionPtr& txn,
                              const sql::Statement& stmt,
                              const std::vector<sql::Value>& params = {});

  /// Runs a DDL or DML statement in its own transaction (autocommit).
  /// Convenience for schema setup and data loading.
  Result<QueryResult> ExecuteAutoCommit(
      const std::string& sql, const std::vector<sql::Value>& params = {});

  /// Parses with cache. The returned statement is immutable and shared.
  Result<std::shared_ptr<const sql::Statement>> Prepare(
      const std::string& sql);

  /// Statement texts currently in the prepared-statement cache.
  size_t PreparedCount() {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    return prepared_.size();
  }

  // ---- middleware primitives (paper §5.5) ----

  std::shared_ptr<const storage::WriteSet> ExtractWriteSet(
      const storage::TransactionPtr& txn) const {
    return engine_.ExtractWriteSet(txn);
  }

  Status ApplyWriteSet(const storage::TransactionPtr& txn,
                       const storage::WriteSet& ws) {
    if (apply_cost_hook_) apply_cost_hook_(ws);
    return engine_.ApplyWriteSet(txn, ws);
  }

  // ---- durability ----

  /// See StorageEngine::EnableWal / RecoverFromWal.
  Status EnableWal(const std::string& path, bool group_commit = false) {
    return engine_.EnableWal(path, group_commit);
  }
  Status RecoverFromWal(const std::string& path) {
    return engine_.RecoverFromWal(path);
  }

  // ---- resource-cost emulation (cluster harness) ----

  /// `statement_hook` runs before each statement executes; the benchmark
  /// harness uses it to charge the replica's worker capacity for an
  /// emulated service time. `apply_hook` likewise runs before a writeset
  /// is applied (the paper measures apply at ~20 % of full execution).
  /// Hooks must be set before concurrent use and be thread-safe.
  using StatementCostHook = std::function<void(const sql::Statement&)>;
  using ApplyCostHook = std::function<void(const storage::WriteSet&)>;
  void SetCostHooks(StatementCostHook statement_hook,
                    ApplyCostHook apply_hook) {
    statement_cost_hook_ = std::move(statement_hook);
    apply_cost_hook_ = std::move(apply_hook);
  }

 private:
  Result<QueryResult> ExecCreateTable(const sql::CreateTableStmt& stmt);
  Result<QueryResult> ExecCreateIndex(const sql::CreateIndexStmt& stmt);
  Result<QueryResult> ExecInsert(const storage::TransactionPtr& txn,
                                 const sql::InsertStmt& stmt,
                                 const std::vector<sql::Value>& params);
  Result<QueryResult> ExecSelect(const storage::TransactionPtr& txn,
                                 const sql::SelectStmt& stmt,
                                 const std::vector<sql::Value>& params);
  Result<QueryResult> ExecUpdate(const storage::TransactionPtr& txn,
                                 const sql::UpdateStmt& stmt,
                                 const std::vector<sql::Value>& params);
  Result<QueryResult> ExecDelete(const storage::TransactionPtr& txn,
                                 const sql::DeleteStmt& stmt,
                                 const std::vector<sql::Value>& params);

  std::string name_;
  storage::StorageEngine engine_;

  std::mutex prepared_mu_;
  std::unordered_map<std::string, std::shared_ptr<const sql::Statement>>
      prepared_;

  StatementCostHook statement_cost_hook_;
  ApplyCostHook apply_cost_hook_;

  /// Per-statement execution latency ("engine.stmt_us"), kept in the
  /// storage engine's registry so one snapshot covers the whole replica.
  obs::Histogram* h_stmt_us_ = nullptr;
};

}  // namespace sirep::engine

#endif  // SIREP_ENGINE_DATABASE_H_
