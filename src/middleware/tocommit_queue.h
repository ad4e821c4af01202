#ifndef SIREP_MIDDLEWARE_TOCOMMIT_QUEUE_H_
#define SIREP_MIDDLEWARE_TOCOMMIT_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "middleware/global_txn_id.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "storage/write_set.h"

namespace sirep::middleware {

/// One entry of a replica's `tocommit_queue`: a validated transaction
/// waiting to be applied (if remote) and committed at this replica.
struct ToCommitEntry {
  uint64_t tid = 0;  ///< global validation id
  GlobalTxnId gid;
  bool local = false;  ///< local at this replica?
  std::shared_ptr<const storage::WriteSet> ws;
  /// What the delivery measured, for the applier's trace of a remote
  /// entry (MonotonicNanos readings and durations):
  uint64_t origin_ns = 0;     ///< the origin's multicast stamp
  uint64_t delivered_ns = 0;  ///< delivery at this replica
  uint64_t skew_ns = 0;       ///< kDeliverySkew
  uint64_t validate_ns = 0;   ///< kGlobalValidate
};

/// The per-replica `tocommit_queue` of the paper (Fig. 1 II / Fig. 4 III)
/// and the one owner of the replica's commit order: which validated tids
/// have not committed here yet. Every rule the algorithm variants state
/// on that order runs under its one mutex:
///
///  * Adjustment 1 validates a finishing local transaction against the
///    *remote* entries still queued (ConflictsWithRemote);
///  * Adjustment 2 releases a remote entry for apply once no conflicting
///    entry is queued before it (TakeDispatchable, and Commit for the
///    successors a commit unblocks);
///  * Adjustment 3 (§4.3.3) lets a local transaction start only when the
///    commit order has no *hole*, i.e. no queued tid below the highest
///    tid committed here (RunStart); while starts wait, a remote entry
///    whose commit would open a new hole (an earlier tid is still
///    queued) is held back at dispatch. Local commits are never gated.
///
/// The gate sits at dispatch, before the apply takes any lock: that is
/// the paper's own hidden-deadlock argument ("there are only remote
/// transactions delayed in tocommit_queue which have not yet started and
/// acquired locks"). Gating at commit time instead can deadlock through
/// a running local transaction. With `gate_enabled == false` the queue
/// implements SRCA-Opt: it counts holes but never blocks a start or
/// gates a dispatch, giving up 1-copy-SI as §4.3.2 describes.
///
/// A tid leaves the queue only when Commit() ran its database commit
/// successfully, so StablePrefix() never covers a writeset this replica
/// has not committed.
///
/// Internally the queue is indexed by tuple so every operation is
/// O(writeset size), not O(queue length): each touched tuple keeps a
/// FIFO of the entries writing it, an entry is dispatchable exactly when
/// it is at the front of *all* its tuples' FIFOs, and a per-entry
/// blocker count tracks how many FIFOs it is not yet front of. The
/// naive formulation (scan all earlier entries per candidate, re-run on
/// every delivery) was O(n^2) per delivery and livelocked recovery:
/// under a hot-key write workload the backlog on the recovering
/// replica's peers grew faster than the quadratic scans could drain it.
///
/// Its instruments live in `registry`: the counters "mw.holes.starts",
/// ".delayed_starts" (starts that found holes), ".commits" and
/// ".delayed_commits" (remote dispatches the gate deferred), the
/// "mw.begin.hole_wait_us" histogram of blocked starts, the
/// "mw.tocommit.queue_depth" gauge, and the "mw.lock.tocommit"
/// contention family of the queue mutex.
///
/// Thread-safe.
class ToCommitQueue {
 public:
  ToCommitQueue(bool gate_enabled, obs::MetricsRegistry* registry)
      : gate_enabled_(gate_enabled),
        c_starts_(registry->GetCounter("mw.holes.starts")),
        c_delayed_starts_(registry->GetCounter("mw.holes.delayed_starts")),
        c_commits_(registry->GetCounter("mw.holes.commits")),
        c_delayed_commits_(registry->GetCounter("mw.holes.delayed_commits")),
        wait_hist_(registry->GetLatencyHistogram("mw.begin.hole_wait_us")),
        g_depth_(registry->GetGauge("mw.tocommit.queue_depth")),
        lock_stats_(
            obs::LockStats::FromRegistry(registry, "mw.lock.tocommit")) {}

  ToCommitQueue(const ToCommitQueue&) = delete;
  ToCommitQueue& operator=(const ToCommitQueue&) = delete;

  /// Queues a transaction that passed global validation here; tids
  /// arrive in validation order. Returns the queue depth after it.
  size_t Append(ToCommitEntry entry) {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    const uint64_t tid = entry.tid;
    Node& node = entries_.emplace(tid, Node{.entry = std::move(entry)})
                     .first->second;
    if (node.entry.ws != nullptr) {
      for (const auto& we : node.entry.ws->entries()) {
        auto& fifo = tuple_queues_[we.tuple];
        fifo.push_back(tid);
        if (fifo.size() > 1) ++node.blockers;
        if (!node.entry.local) ++remote_pending_[we.tuple];
      }
    }
    if (Dispatchable(node)) ready_.push_back(tid);
    g_depth_->Set(static_cast<int64_t>(entries_.size()));
    return entries_.size();
  }

  /// Local validation (Adjustment 1 / Fig. 4 I.2.d): does `ws` intersect
  /// the writeset of any *remote* transaction still queued?
  bool ConflictsWithRemote(const storage::WriteSet& ws) const {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    for (const auto& we : ws.entries()) {
      if (remote_pending_.count(we.tuple) > 0) return true;
    }
    return false;
  }

  /// Runs `begin_fn` (the database begin) once the commit order has no
  /// holes, atomically with that check (Adjustment 3). Returns true when
  /// the start waited: leaving the wait set may open dispatch gates, so
  /// the caller then calls TakeDispatchable().
  template <typename Fn>
  bool RunStart(Fn&& begin_fn) {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    c_starts_->Increment();
    bool waited = false;
    if (HasHolesLocked() && !cancelled_) {
      c_delayed_starts_->Increment();
      if (gate_enabled_) {
        ++waiting_starts_;
        const uint64_t wait_start = obs::MonotonicNanos();
        start_cv_.wait(lock, [&] { return cancelled_ || !HasHolesLocked(); });
        wait_hist_->Observe(
            obs::NanosToUs(obs::MonotonicNanos() - wait_start));
        --waiting_starts_;
        waited = true;
      }
    }
    begin_fn();
    return waited;
  }

  /// Marks and returns the queued remote entries that may be applied
  /// now: no conflicting entry is queued before them (Adjustment 2) and
  /// their hole gate is open (Adjustment 3). Local entries are committed
  /// by their client thread and are never returned.
  std::vector<ToCommitEntry> TakeDispatchable() {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    std::vector<ToCommitEntry> taken;
    TakeDispatchableLocked(&taken);
    return taken;
  }

  /// Step III's commit of queued `tid`: runs `commit_fn` (the database
  /// commit, returning Status) under the queue mutex, so visibility and
  /// the hole bookkeeping change together. On success the tid leaves the
  /// queue, waiting starts and drain waiters wake, and the remote entries
  /// that became dispatchable are appended to `dispatchable`. On failure
  /// (or for a tid not queued, when `commit_fn` does not run) nothing
  /// changes. No gate applies here: it was applied at dispatch.
  template <typename Fn>
  Status Commit(uint64_t tid, Fn&& commit_fn,
                std::vector<ToCommitEntry>* dispatchable) {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    auto it = entries_.find(tid);
    if (it == entries_.end()) {
      return Status::NotFound("tid " + std::to_string(tid) +
                              " is not in the tocommit queue");
    }
    SIREP_RETURN_IF_ERROR(commit_fn());
    c_commits_->Increment();
    EraseLocked(it);
    if (tid > max_committed_) max_committed_ = tid;
    if (waiting_starts_ > 0) start_cv_.notify_all();
    if (entries_.empty()) empty_cv_.notify_all();
    g_depth_->Set(static_cast<int64_t>(entries_.size()));
    TakeDispatchableLocked(dispatchable);
    return Status::OK();
  }

  /// Records `tid` as committed here without queueing it: a replicated
  /// DDL statement (executed at its validation position), or the prefix
  /// a bootstrap seed or a recovered replica adopts (recovery completes
  /// with nothing queued). Never moves the mark backwards. Raising the
  /// mark can open a hole but never closes one, so no waiter wakes.
  void NoteCommitted(uint64_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    if (tid > max_committed_) max_committed_ = tid;
  }

  /// Largest tid T such that every validated tid <= T has committed at
  /// this replica: the durable prefix a restarted replica can recover
  /// from (re-applying anything after it is idempotent).
  uint64_t StablePrefix() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.empty() ? max_committed_ : entries_.begin()->first - 1;
  }

  /// Blocks until the queue is empty or Cancel() was called (the replica
  /// crashed or shut down, so the queue will never drain).
  void WaitUntilEmpty() {
    std::unique_lock<std::mutex> lock(mu_);
    empty_cv_.wait(lock, [&] { return entries_.empty() || cancelled_; });
  }

  /// Permanently releases waiting starts and WaitUntilEmpty() callers and
  /// opens every gate: the replica crashed or is shutting down, so no
  /// start may block on commits that will never happen. Queued tids stay
  /// queued. Irreversible.
  void Cancel() {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    start_cv_.notify_all();
    empty_cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Node {
    ToCommitEntry entry;
    /// Number of this entry's tuples whose FIFO it is not yet front of.
    size_t blockers = 0;
    bool dispatched = false;     ///< handed out for apply
    bool gate_deferred = false;  ///< hole gate deferral already counted
  };

  static bool Dispatchable(const Node& node) {
    return node.blockers == 0 && !node.entry.local && !node.dispatched;
  }

  /// A hole: a queued tid below the highest tid committed here.
  bool HasHolesLocked() const {
    return !entries_.empty() && entries_.begin()->first < max_committed_;
  }

  /// Adjustment 3's dispatch gate for queued remote `tid`: closed while a
  /// start waits and an earlier-validated tid is still queued, since
  /// committing `tid` would then open a new hole.
  bool GateOpenLocked(uint64_t tid) const {
    return !gate_enabled_ || cancelled_ || waiting_starts_ == 0 ||
           entries_.begin()->first == tid;
  }

  void TakeDispatchableLocked(std::vector<ToCommitEntry>* taken) {
    std::sort(ready_.begin(), ready_.end());
    size_t kept = 0;
    for (const uint64_t tid : ready_) {
      auto it = entries_.find(tid);
      if (it == entries_.end()) continue;  // committed without being taken
      Node& node = it->second;
      if (!GateOpenLocked(tid)) {
        if (!node.gate_deferred) {
          node.gate_deferred = true;
          c_delayed_commits_->Increment();
        }
        ready_[kept++] = tid;
        continue;
      }
      node.dispatched = true;
      taken->push_back(node.entry);
    }
    ready_.resize(kept);
  }

  /// Drops a committed entry. Successors that reach the front of all
  /// their tuple FIFOs become dispatchable.
  void EraseLocked(std::map<uint64_t, Node>::iterator it) {
    const uint64_t tid = it->first;
    const Node node = std::move(it->second);
    entries_.erase(it);
    if (node.entry.ws == nullptr) return;
    for (const auto& we : node.entry.ws->entries()) {
      auto qit = tuple_queues_.find(we.tuple);
      auto& fifo = qit->second;
      if (fifo.front() == tid) {
        fifo.pop_front();
        // The new front (if any) loses one blocker; removal from the
        // middle leaves everyone's frontness unchanged.
        if (!fifo.empty()) {
          Node& successor = entries_.at(fifo.front());
          if (--successor.blockers == 0 && Dispatchable(successor)) {
            ready_.push_back(fifo.front());
          }
        }
      } else {
        fifo.erase(std::find(fifo.begin(), fifo.end(), tid));
      }
      if (fifo.empty()) tuple_queues_.erase(qit);
      if (!node.entry.local) {
        auto rit = remote_pending_.find(we.tuple);
        if (--rit->second == 0) remote_pending_.erase(rit);
      }
    }
  }

  const bool gate_enabled_;
  obs::Counter* const c_starts_;
  obs::Counter* const c_delayed_starts_;
  obs::Counter* const c_commits_;
  obs::Counter* const c_delayed_commits_;
  obs::Histogram* const wait_hist_;
  obs::Gauge* const g_depth_;
  const obs::LockStats lock_stats_;

  mutable std::mutex mu_;
  /// Starts waiting for the holes to close.
  std::condition_variable start_cv_;
  /// WaitUntilEmpty() callers.
  std::condition_variable empty_cv_;
  /// Validated, not yet committed here; keyed (and ordered) by tid.
  std::map<uint64_t, Node> entries_;
  /// Per-tuple FIFO of the tids of queued entries writing that tuple.
  std::unordered_map<storage::TupleId, std::deque<uint64_t>,
                     storage::TupleIdHash>
      tuple_queues_;
  /// Per-tuple count of queued *remote* entries writing it.
  std::unordered_map<storage::TupleId, size_t, storage::TupleIdHash>
      remote_pending_;
  /// Tids of entries with blockers == 0, remote, not yet dispatched
  /// (those the gate holds back stay here).
  std::vector<uint64_t> ready_;
  /// Highest tid committed here.
  uint64_t max_committed_ = 0;
  /// Starts blocked in RunStart().
  int waiting_starts_ = 0;
  bool cancelled_ = false;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_TOCOMMIT_QUEUE_H_
