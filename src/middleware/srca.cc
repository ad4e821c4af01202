#include "middleware/srca.h"

#include <atomic>

#include "common/logging.h"
#include "common/thread_name.h"

namespace sirep::middleware {

SrcaMiddleware::SrcaMiddleware(std::vector<engine::Database*> replicas)
    : ws_list_(1 << 20) {
  replicas_.reserve(replicas.size());
  for (engine::Database* db : replicas) {
    auto replica = std::make_unique<Replica>();
    replica->db = db;
    replicas_.push_back(std::move(replica));
  }
  for (size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->committer = std::thread([this, i] { CommitterLoop(i); });
    NameThread(replicas_[i]->committer, "srca-commit/" + std::to_string(i));
  }
}

SrcaMiddleware::~SrcaMiddleware() { Shutdown(); }

void SrcaMiddleware::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  for (auto& replica : replicas_) {
    {
      std::lock_guard<std::mutex> lock(replica->queue_mu);
    }
    replica->queue_cv.notify_all();
  }
  for (auto& replica : replicas_) {
    if (replica->committer.joinable()) replica->committer.join();
  }
}

Result<SrcaMiddleware::TxnHandle> SrcaMiddleware::Begin(size_t replica) {
  if (replicas_.empty()) return Status::Unavailable("no replicas");
  if (replica == kAnyReplica) {
    replica = next_replica_.fetch_add(1, std::memory_order_relaxed) %
              replicas_.size();
  }
  if (replica >= replicas_.size()) {
    return Status::InvalidArgument("no replica " + std::to_string(replica));
  }
  Replica& r = *replicas_[replica];
  TxnHandle handle;
  handle.client_txn = next_client_txn_.fetch_add(1) + 1;
  handle.replica = replica;
  {
    // Fig. 1, I.1.b-e: the begin is atomic with commits at this replica,
    // so `cert` exactly captures which transactions are concurrent.
    std::lock_guard<std::mutex> dblock(r.dbmutex);
    handle.cert = r.lastcommitted_tid;
    handle.db_txn = r.db->Begin();
  }
  return handle;
}

Result<engine::QueryResult> SrcaMiddleware::Execute(
    const TxnHandle& txn, const std::string& sql,
    const std::vector<sql::Value>& params) {
  if (txn.db_txn == nullptr) {
    return Status::InvalidArgument("invalid transaction");
  }
  return replicas_[txn.replica]->db->Execute(txn.db_txn, sql, params);
}

Status SrcaMiddleware::Rollback(const TxnHandle& txn) {
  if (txn.db_txn == nullptr) {
    return Status::InvalidArgument("invalid transaction");
  }
  replicas_[txn.replica]->db->Abort(txn.db_txn);
  return Status::OK();
}

Status SrcaMiddleware::Commit(TxnHandle& txn) {
  if (txn.db_txn == nullptr) {
    return Status::InvalidArgument("invalid transaction");
  }
  Replica& local = *replicas_[txn.replica];

  // I.3.a: pre-commit writeset retrieval.
  auto ws = local.db->ExtractWriteSet(txn.db_txn);

  // I.3.b: nothing written — commit locally, nobody else needs to know.
  if (ws->empty()) {
    Status st = local.db->Commit(txn.db_txn);
    if (st.ok()) {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.committed;
      ++stats_.empty_ws_commits;
    }
    return st;
  }

  QueueEntry entry;
  {
    // I.3.c-e: atomic validation phase.
    std::lock_guard<std::mutex> wslock(wsmutex_);
    if (ws_list_.ConflictsAfter(txn.cert, *ws)) {
      local.db->Abort(txn.db_txn);
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.validation_aborts;
      return Status::Conflict("validation failed");
    }
    entry.tid = ++next_tid_;
    entry.local_replica = txn.replica;
    entry.local_txn = txn.db_txn;
    entry.ws = ws;
    entry.signal =
        std::make_shared<std::pair<std::mutex, std::condition_variable>>();
    entry.outcome = std::make_shared<Status>();
    entry.done = std::make_shared<bool>(false);
    ws_list_.Append(entry.tid, ws);
    for (auto& replica : replicas_) {
      {
        std::lock_guard<std::mutex> qlock(replica->queue_mu);
        replica->tocommit_queue.push_back(entry);
      }
      replica->queue_cv.notify_all();
    }
  }

  // Step II runs on the committer threads; wait for the local one.
  {
    std::unique_lock<std::mutex> lock(entry.signal->first);
    entry.signal->second.wait(lock, [&] { return *entry.done; });
  }
  if (entry.outcome->ok()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.committed;
  }
  return *entry.outcome;
}

void SrcaMiddleware::CommitterLoop(size_t replica_index) {
  Replica& r = *replicas_[replica_index];
  while (true) {
    QueueEntry entry;
    {
      std::unique_lock<std::mutex> lock(r.queue_mu);
      r.queue_cv.wait(lock, [&] {
        return shutdown_.load() || !r.tocommit_queue.empty();
      });
      if (shutdown_.load()) return;
      entry = r.tocommit_queue.front();
    }

    const bool is_local = entry.local_replica == replica_index;
    Status st;
    if (is_local) {
      // II.2-5: commit under dbmutex so concurrent begins order cleanly.
      std::lock_guard<std::mutex> dblock(r.dbmutex);
      st = r.db->Commit(entry.local_txn);
      r.lastcommitted_tid = entry.tid;
    } else {
      // II.1: apply the writeset in a fresh transaction, retrying on
      // deadlock with local transactions (paper §4.2).
      while (true) {
        auto apply_txn = r.db->Begin();
        st = r.db->ApplyWriteSet(apply_txn, *entry.ws);
        if (st.ok()) {
          std::lock_guard<std::mutex> dblock(r.dbmutex);
          st = r.db->Commit(apply_txn);
          if (st.ok()) r.lastcommitted_tid = entry.tid;
          break;
        }
        r.db->Abort(apply_txn);
        if (st.code() == StatusCode::kDeadlock ||
            st.code() == StatusCode::kConflict) {
          if (shutdown_.load()) return;
          std::this_thread::yield();
          continue;
        }
        break;  // unretryable
      }
    }
    if (!st.ok()) {
      SIREP_ELOG << "SRCA committer " << replica_index
                 << " failed to commit tid " << entry.tid << ": "
                 << st.ToString();
    }

    {
      std::lock_guard<std::mutex> lock(r.queue_mu);
      r.tocommit_queue.pop_front();
    }
    r.queue_cv.notify_all();

    if (is_local) {
      // II.6: return to client.
      std::lock_guard<std::mutex> lock(entry.signal->first);
      *entry.outcome = st;
      *entry.done = true;
      entry.signal->second.notify_all();
    }
  }
}

SrcaMiddleware::Stats SrcaMiddleware::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace sirep::middleware
