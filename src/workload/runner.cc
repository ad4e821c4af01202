#include "workload/runner.h"

#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_name.h"

namespace sirep::workload {

Status ConnectionExecutor::Run(const TxnInstance& txn) {
  for (const auto& [sql, params] : txn.statements) {
    auto result = conn_->Execute(sql, params);
    if (!result.ok()) {
      conn_->Rollback();
      return result.status();
    }
  }
  return conn_->Commit();
}

Status SessionExecutor::Run(const TxnInstance& txn) {
  for (const auto& [sql, params] : txn.statements) {
    auto result = session_.Execute(sql, params);
    if (!result.ok()) {
      session_.Rollback();
      return result.status();
    }
  }
  return session_.Commit();
}

Status BaselineExecutor::Run(const TxnInstance& txn) {
  auto declared = std::make_shared<middleware::DeclaredTxn>();
  declared->tables = txn.tables;
  declared->read_only = txn.read_only;
  // The program re-executes the statement list inside the middleware —
  // [20] requires transactions to run in the middleware's context.
  const TxnInstance* instance = &txn;
  declared->program = [instance](engine::Database* db,
                                 const storage::TransactionPtr& db_txn)
      -> Status {
    for (const auto& [sql, params] : instance->statements) {
      auto result = db->Execute(db_txn, sql, params);
      if (!result.ok()) return result.status();
    }
    return Status::OK();
  };
  return replica_->Submit(std::move(declared));
}

LoadMetrics RunLoad(WorkloadGenerator& generator,
                    const std::function<std::unique_ptr<TxnExecutor>(
                        size_t client_index)>& make_executor,
                    const LoadOptions& options) {
  using Clock = std::chrono::steady_clock;
  LoadMetrics total;
  std::mutex merge_mu;

  const auto start = Clock::now();
  const auto measure_from = start + options.warmup;
  const auto deadline = start + options.warmup + options.duration;
  // Per-client mean interarrival so that the sum of client rates is the
  // offered system-wide load.
  const double interarrival_s =
      static_cast<double>(options.clients) / options.offered_tps;

  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  for (size_t c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      Prng prng(options.seed * 1000003 + c);
      auto executor = make_executor(c);
      if (executor == nullptr) return;
      LoadMetrics local;

      auto next_arrival =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          prng.Exponential(interarrival_s)));
      while (Clock::now() < deadline) {
        std::this_thread::sleep_until(next_arrival);
        auto now = Clock::now();
        if (now - next_arrival > options.max_schedule_lag) {
          // Too far behind schedule (system saturated): drop the backlog
          // so queues stay bounded.
          next_arrival = now;
        }
        next_arrival += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                prng.Exponential(interarrival_s)));
        if (now >= deadline) break;

        TxnInstance txn = generator.Next(prng);
        const auto t0 = Clock::now();
        Status st = executor->Run(txn);
        const auto t1 = Clock::now();
        if (t0 < measure_from) continue;  // warmup

        ++local.attempted;
        if (st.ok()) {
          ++local.committed;
          const double ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
          if (txn.read_only) {
            local.readonly_ms.Add(ms);
          } else {
            local.update_ms.Add(ms);
          }
        } else if (st.code() == StatusCode::kUnavailable ||
                   st.code() == StatusCode::kTransactionLost) {
          ++local.lost;
        } else {
          ++local.aborted;
        }
      }

      std::lock_guard<std::mutex> lock(merge_mu);
      total.update_ms.Merge(local.update_ms);
      total.readonly_ms.Merge(local.readonly_ms);
      total.attempted += local.attempted;
      total.committed += local.committed;
      total.aborted += local.aborted;
      total.lost += local.lost;
    });
    NameThread(threads.back(), "client/" + std::to_string(c));
  }
  for (auto& t : threads) t.join();

  const double measured_s =
      std::chrono::duration<double>(options.duration).count();
  total.achieved_tps =
      measured_s > 0 ? static_cast<double>(total.committed) / measured_s : 0;
  return total;
}

}  // namespace sirep::workload
