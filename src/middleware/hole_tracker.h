#ifndef SIREP_MIDDLEWARE_HOLE_TRACKER_H_
#define SIREP_MIDDLEWARE_HOLE_TRACKER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace sirep::middleware {

/// Implements Adjustment 3 of the paper (§4.3.3): synchronizing the start
/// of local transactions with the (possibly out-of-validation-order)
/// commit order, so that indirectly induced conflicts always follow the
/// validation order and 1-copy-SI is preserved.
///
/// A **hole** exists at a replica when some transaction validated at
/// position t committed while a transaction validated earlier (t' < t)
/// has not yet committed here. The rules:
///
///  * a local transaction may only *start* when there are no holes
///    (RunStart blocks);
///  * while local transactions are waiting to start, a *remote*
///    transaction whose commit would create a new hole (an
///    earlier-validated transaction is still outstanding) is not
///    dispatched (GateOpen); local commits always proceed.
///
/// Crucially — and this is the paper's own hidden-deadlock argument —
/// the remote gate is applied *before* the writeset application starts,
/// while the remote transaction holds no locks yet: "This does not lead
/// to hidden deadlocks since there are only remote transactions delayed
/// in tocommit_queue which have not yet started and acquired locks."
/// Gating at commit time instead (after locks are acquired) can deadlock
/// through a running local transaction.
///
/// With `enabled == false` the tracker implements SRCA-Opt: it keeps the
/// statistics (so the holes-frequency experiment can run on both modes)
/// but never blocks or gates, giving up 1-copy-SI as §4.3.2 describes.
///
/// Its instruments live in `registry`: the counters "mw.holes.starts",
/// ".delayed_starts" (starts that found holes), ".commits" and
/// ".delayed_commits" (remote dispatches the gate deferred), the
/// "mw.begin.hole_wait_us" histogram of blocked starts, and the
/// "mw.lock.holes" contention family of the tracker mutex.
class HoleTracker {
 public:
  HoleTracker(bool enabled, obs::MetricsRegistry* registry)
      : enabled_(enabled),
        c_starts_(registry->GetCounter("mw.holes.starts")),
        c_delayed_starts_(registry->GetCounter("mw.holes.delayed_starts")),
        c_commits_(registry->GetCounter("mw.holes.commits")),
        c_delayed_commits_(registry->GetCounter("mw.holes.delayed_commits")),
        wait_hist_(registry->GetLatencyHistogram("mw.begin.hole_wait_us")),
        lock_stats_(obs::LockStats::FromRegistry(registry, "mw.lock.holes")) {}

  /// Registers a transaction that passed global validation at this
  /// replica (it *will* commit here, creating a potential hole boundary).
  void NoteValidated(uint64_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_.insert(tid);
  }

  /// Runs `begin_fn` (the database begin) once there are no holes. The
  /// callable runs under the tracker mutex, making the no-holes condition
  /// atomic with the snapshot acquisition.
  template <typename Fn>
  auto RunStart(Fn&& begin_fn) {
    bool waited = false;
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    c_starts_->Increment();
    if (HasHolesLocked() && !cancelled_) {
      c_delayed_starts_->Increment();
      if (enabled_) {
        ++waiting_starts_;
        const uint64_t wait_start = obs::MonotonicNanos();
        cv_.wait(lock, [&] { return cancelled_ || !HasHolesLocked(); });
        wait_hist_->Observe(
            obs::NanosToUs(obs::MonotonicNanos() - wait_start));
        --waiting_starts_;
        waited = true;
      }
    }
    auto result = begin_fn();
    lock.unlock();
    // A start leaving the wait set may open remote dispatch gates.
    if (waited) NotifyChange();
    return result;
  }

  /// Dispatch gate for validated transactions: true when committing
  /// `tid` is currently acceptable. Local transactions always pass
  /// (hidden-deadlock freedom); remote ones are held back while a local
  /// start is waiting and an earlier-validated transaction is still
  /// outstanding. The caller re-checks on every change notification.
  bool GateOpen(uint64_t tid, bool is_local) const {
    if (!enabled_) return true;
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    return cancelled_ || waiting_starts_ == 0 || is_local ||
           !WouldCreateNewHoleLocked(tid);
  }

  /// Statistics: `n` remote dispatches were deferred by the gate (count
  /// each transaction once per deferral).
  void CountDeferredCommits(size_t n) { c_delayed_commits_->Add(n); }

  /// Runs `commit_fn` (the database commit) and marks `tid` committed,
  /// atomically with the hole bookkeeping. No gating happens here — the
  /// gate was applied at dispatch time.
  template <typename Fn>
  auto RecordCommit(uint64_t tid, Fn&& commit_fn) {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    c_commits_->Increment();
    auto result = commit_fn();
    outstanding_.erase(tid);
    if (tid > max_committed_) max_committed_ = tid;
    cv_.notify_all();
    lock.unlock();
    NotifyChange();
    return result;
  }

  /// Registers a callback invoked (outside the internal mutex) whenever
  /// gates may have opened: a commit, a discard, or a waiting start
  /// finishing. The replica re-runs its dispatch scan on it.
  void SetChangeListener(std::function<void()> listener) {
    std::lock_guard<std::mutex> lock(mu_);
    change_listener_ = std::move(listener);
  }

  /// Permanently releases all waiters and opens all gates: the replica
  /// crashed or is shutting down, so no start may block on commits that
  /// will never happen. Irreversible.
  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
      cv_.notify_all();
    }
    NotifyChange();
  }

  /// Adopts a committed prefix from a recovery state transfer: every
  /// validated tid <= `tid` is committed at this replica (the recoverer
  /// replayed the donor's log suffix outside RecordCommit), so
  /// StablePrefix() must reflect it — a crash right after recovery then
  /// restarts incrementally instead of forcing a full copy. Never moves
  /// the prefix backwards; the outstanding set is untouched (recovery
  /// completes with nothing validated-but-uncommitted).
  void AdoptCommittedPrefix(uint64_t tid) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tid > max_committed_) max_committed_ = tid;
      cv_.notify_all();
    }
    NotifyChange();
  }

  /// Drops a validated transaction that will never commit here (replica
  /// shutting down / crashed mid-pipeline) so waiters are not stranded.
  void Discard(uint64_t tid) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      outstanding_.erase(tid);
      cv_.notify_all();
    }
    NotifyChange();
  }

  bool HasHoles() const {
    std::lock_guard<std::mutex> lock(mu_);
    return HasHolesLocked();
  }

  /// Validated-but-uncommitted transactions currently tracked (the
  /// potential-hole set); sampled as a gauge on every delivery.
  size_t OutstandingCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return outstanding_.size();
  }

  /// Largest tid T such that every validated tid <= T has committed at
  /// this replica — the durable prefix a restarted replica can recover
  /// from (re-applying anything after it is idempotent).
  uint64_t StablePrefix() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_.empty()) return max_committed_;
    return *outstanding_.begin() - 1;
  }

  bool enabled() const { return enabled_; }

 private:
  bool HasHolesLocked() const {
    return !outstanding_.empty() && *outstanding_.begin() < max_committed_;
  }

  /// Committing `tid` creates a new hole iff an earlier-validated
  /// transaction is still outstanding.
  bool WouldCreateNewHoleLocked(uint64_t tid) const {
    auto it = outstanding_.begin();
    if (it == outstanding_.end()) return false;
    return *it < tid;
  }

  void NotifyChange() {
    std::function<void()> listener;
    {
      std::lock_guard<std::mutex> lock(mu_);
      listener = change_listener_;
    }
    if (listener) listener();
  }

  const bool enabled_;
  obs::Counter* const c_starts_;
  obs::Counter* const c_delayed_starts_;
  obs::Counter* const c_commits_;
  obs::Counter* const c_delayed_commits_;
  obs::Histogram* const wait_hist_;
  /// Contention accounting for the tracker mutex on its hottest entry
  /// points (RunStart / GateOpen / RecordCommit).
  const obs::LockStats lock_stats_;
  std::function<void()> change_listener_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::set<uint64_t> outstanding_;
  uint64_t max_committed_ = 0;
  int waiting_starts_ = 0;
  bool cancelled_ = false;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_HOLE_TRACKER_H_
