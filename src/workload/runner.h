#ifndef SIREP_WORKLOAD_RUNNER_H_
#define SIREP_WORKLOAD_RUNNER_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "client/driver.h"
#include "common/stats.h"
#include "engine/session.h"
#include "middleware/table_lock_baseline.h"
#include "workload/workload.h"

namespace sirep::workload {

/// Drives one TxnInstance to completion on some system under test.
/// Run() returns OK on commit; a transaction-failure status (conflict,
/// deadlock, validation abort) counts as an abort.
class TxnExecutor {
 public:
  virtual ~TxnExecutor() = default;
  virtual Status Run(const TxnInstance& txn) = 0;
};

/// Executes through the replicated JDBC-like connection (SI-Rep).
class ConnectionExecutor : public TxnExecutor {
 public:
  explicit ConnectionExecutor(std::unique_ptr<client::Connection> conn)
      : conn_(std::move(conn)) {
    conn_->SetAutoCommit(false);
  }
  Status Run(const TxnInstance& txn) override;

  client::Connection* connection() { return conn_.get(); }

 private:
  std::unique_ptr<client::Connection> conn_;
};

/// Executes against a single non-replicated database (the paper's
/// "centralized" baseline: the middleware merely forwards statements).
class SessionExecutor : public TxnExecutor {
 public:
  explicit SessionExecutor(engine::Database* db) : session_(db) {
    session_.SetAutoCommit(false);
  }
  Status Run(const TxnInstance& txn) override;

 private:
  engine::Session session_;
};

/// Wraps instances into pre-declared programs for the [20] baseline.
class BaselineExecutor : public TxnExecutor {
 public:
  explicit BaselineExecutor(middleware::TableLockReplica* replica)
      : replica_(replica) {}
  Status Run(const TxnInstance& txn) override;

 private:
  middleware::TableLockReplica* replica_;
};

struct LoadOptions {
  double offered_tps = 50;
  size_t clients = 20;
  std::chrono::milliseconds warmup{500};
  std::chrono::milliseconds duration{5000};
  uint64_t seed = 7;
  /// If a client falls further behind its open-loop schedule than this,
  /// the backlog is dropped (bounds queue growth past saturation).
  std::chrono::milliseconds max_schedule_lag{2000};
};

struct LoadMetrics {
  SampleStats update_ms;    ///< response times of committed update txns
  SampleStats readonly_ms;  ///< response times of committed read-only txns
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;  ///< conflict/deadlock/validation aborts
  uint64_t lost = 0;     ///< kTransactionLost / kUnavailable
  double achieved_tps = 0;
  double abort_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(aborted) /
                                static_cast<double>(attempted);
  }
};

/// Open-loop load generator in the paper's style (§6): `clients` threads,
/// each submitting statements back-to-back within a transaction and
/// sleeping between transactions so the offered system-wide load matches
/// `offered_tps` (exponential interarrivals). Response times are recorded
/// only after the warmup.
LoadMetrics RunLoad(WorkloadGenerator& generator,
                    const std::function<std::unique_ptr<TxnExecutor>(
                        size_t client_index)>& make_executor,
                    const LoadOptions& options);

}  // namespace sirep::workload

#endif  // SIREP_WORKLOAD_RUNNER_H_
