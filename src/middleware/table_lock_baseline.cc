#include "middleware/table_lock_baseline.h"

#include <vector>

#include "common/logging.h"
#include "common/thread_name.h"

namespace sirep::middleware {

namespace {
constexpr char kRequestType[] = "tl_request";
constexpr char kWriteSetType[] = "tl_writeset";
}  // namespace

TableLockReplica::TableLockReplica(engine::Database* db, gcs::Group* group)
    : db_(db), group_(group) {
  applier_ = std::thread([this] { ApplierLoop(); });
  NameThread(applier_, "tl-apply");
}

TableLockReplica::~TableLockReplica() { Shutdown(); }

Status TableLockReplica::Start() {
  member_id_ = group_->Join(this);
  if (member_id_ == gcs::kInvalidMember) {
    return Status::Unavailable("group is shut down");
  }
  return Status::OK();
}

Status TableLockReplica::Submit(std::shared_ptr<const DeclaredTxn> txn) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::Unavailable("replica shut down");
  }
  if (txn->read_only) {
    // Read-only: local shared table locks, local execution, no messages.
    auto ticket = locks_.Request(txn->tables, TableLockMode::kShared);
    locks_.Wait(ticket);
    auto db_txn = db_->Begin();
    Status st = txn->program(db_, db_txn);
    if (st.ok()) {
      st = db_->Commit(db_txn);
    } else {
      db_->Abort(db_txn);
    }
    locks_.Release(ticket);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++work_epoch_;
      cv_.notify_all();
    }
    if (st.ok()) {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.read_only;
      ++stats_.committed;
    }
    return st;
  }

  const uint64_t req_id =
      (static_cast<uint64_t>(member_id_) << 40) |
      (next_req_.fetch_add(1, std::memory_order_relaxed) + 1);
  auto entry = std::make_shared<PendingRequest>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[req_id] = entry;
  }
  auto payload = std::make_shared<const RequestMsg>(
      RequestMsg{req_id, member_id_, txn});
  Status mc = group_->Multicast(member_id_, kRequestType, payload);
  if (!mc.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(req_id);
    return mc;
  }
  // Wait for our own request to be delivered (it carries the lock
  // ticket), then run the transaction on this thread.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return entry->delivered || shutdown_.load(std::memory_order_acquire);
    });
    if (!entry->delivered) {
      pending_.erase(req_id);
      return Status::Unavailable("replica shut down");
    }
  }
  Status st = RunOrigin(req_id, entry);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(req_id);
  }
  return st;
}

Status TableLockReplica::RunOrigin(
    uint64_t req_id, const std::shared_ptr<PendingRequest>& entry) {
  locks_.Wait(entry->ticket);

  auto db_txn = db_->Begin();
  Status st = entry->request.txn->program(db_, db_txn);
  std::shared_ptr<const storage::WriteSet> ws;
  if (st.ok()) {
    ws = db_->ExtractWriteSet(db_txn);
    st = db_->Commit(db_txn);
  } else {
    db_->Abort(db_txn);
  }
  // Second message: the writeset (FIFO suffices; total order is
  // stronger). On failure a null writeset tells remotes to release.
  auto payload = std::make_shared<const WriteSetMsg>(
      WriteSetMsg{req_id, st.ok() ? ws : nullptr});
  group_->Multicast(member_id_, kWriteSetType, payload);

  locks_.Release(entry->ticket);
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->done = true;
    entry->outcome = st;
    ++work_epoch_;
    cv_.notify_all();
  }
  if (st.ok()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.committed;
  }
  return st;
}

void TableLockReplica::OnDeliver(const gcs::Message& message) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  if (message.type == kRequestType) {
    const auto* msg = message.As<RequestMsg>();
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = pending_[msg->req_id];
    if (slot == nullptr) slot = std::make_shared<PendingRequest>();
    slot->request = *msg;
    // Enqueue the table locks *in the delivery callback*, not on the
    // submitting thread: every replica enqueues in the same (total)
    // order, which is what makes the table-lock schedule identical
    // everywhere and deadlock-free.
    slot->ticket =
        locks_.Request(msg->txn->tables, TableLockMode::kExclusive);
    slot->delivered = true;
    ++work_epoch_;
    cv_.notify_all();
  } else if (message.type == kWriteSetType) {
    const auto* msg = message.As<WriteSetMsg>();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(msg->req_id);
    if (it == pending_.end()) return;  // we are the origin; already done
    it->second->have_ws = true;
    it->second->ws = msg->ws;
    ++work_epoch_;
    cv_.notify_all();
  }
}

bool TableLockReplica::ApplyReadyRemotes() {
  // Snapshot the ready entries, then apply without holding mu_.
  std::vector<std::pair<uint64_t, std::shared_ptr<PendingRequest>>> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [req_id, entry] : pending_) {
      if (!entry->delivered || entry->done) continue;
      if (entry->request.origin == member_id_) continue;  // origin side
      if (!entry->have_ws) continue;
      if (!locks_.IsGranted(entry->ticket)) continue;
      ready.emplace_back(req_id, entry);
    }
  }
  for (auto& [req_id, entry] : ready) {
    if (entry->ws != nullptr && !entry->ws->empty()) {
      // With exclusive table locks held the apply cannot conflict; the
      // loop is defensive.
      while (!shutdown_.load(std::memory_order_acquire)) {
        auto db_txn = db_->Begin();
        Status st = db_->ApplyWriteSet(db_txn, *entry->ws);
        if (st.ok()) st = db_->Commit(db_txn);
        if (st.ok()) {
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.committed;
          ++stats_.remote_applied;
          break;
        }
        db_->Abort(db_txn);
        if (st.code() != StatusCode::kDeadlock &&
            st.code() != StatusCode::kConflict) {
          SIREP_ELOG << "table-lock baseline apply failed: " << st.ToString();
          break;
        }
        std::this_thread::yield();
      }
    }
    locks_.Release(entry->ticket);
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(req_id);
    ++work_epoch_;
    cv_.notify_all();
  }
  return !ready.empty();
}

void TableLockReplica::ApplierLoop() {
  uint64_t seen_epoch = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return work_epoch_ != seen_epoch ||
               shutdown_.load(std::memory_order_acquire);
      });
      seen_epoch = work_epoch_;
    }
    while (ApplyReadyRemotes()) {
    }
  }
}

void TableLockReplica::OnViewChange(const gcs::View& view) { (void)view; }

void TableLockReplica::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++work_epoch_;
    cv_.notify_all();
  }
  if (applier_.joinable()) applier_.join();
}

TableLockReplica::Stats TableLockReplica::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  Stats out = stats_;
  out.contended_lock_requests = locks_.contended_requests();
  return out;
}

}  // namespace sirep::middleware
