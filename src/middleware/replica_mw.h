#ifndef SIREP_MIDDLEWARE_REPLICA_MW_H_
#define SIREP_MIDDLEWARE_REPLICA_MW_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "engine/query_result.h"
#include "gcs/group.h"
#include "middleware/apply_pipeline.h"
#include "middleware/global_txn_id.h"
#include "middleware/messages.h"
#include "middleware/replica_options.h"
#include "middleware/state_transfer.h"
#include "middleware/tocommit_queue.h"
#include "middleware/ws_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sirep::middleware {

/// Validation/commit outcome of a transaction as known at this replica
/// (SrcaRepReplica::InquireOutcome).
enum class TxnOutcome {
  /// This replica cannot tell: it never installed a view containing the
  /// origin while live, or it crashed or shut down while waiting.
  kUnknown,
  kCommitted,
  kAborted,
  /// The origin crashed before its writeset entered the total order.
  kLost,
};

/// One SI-Rep middleware replica M^k (paper Fig. 3c / Fig. 4): runs in
/// front of exactly one database replica, executes local transactions
/// against it, multicasts writesets in total order, validates all
/// writesets in delivery order, and applies/commits them subject to the
/// conflict-ordering and hole rules.
///
/// Clients do not use this class directly; client::Connection (the
/// JDBC-like driver) talks to it and handles fail-over. Online recovery
/// lives in StateTransfer, which reaches the replica only through the
/// StateTransferHost seam.
class SrcaRepReplica final : public gcs::GroupListener,
                             private StateTransferHost {
 public:
  /// A client transaction local to this replica.
  struct TxnHandle {
    GlobalTxnId gid;
    storage::TransactionPtr db_txn;
    /// Commit-path stage trace, carried from BeginTxn through commit.
    obs::TxnTrace trace;
    bool valid() const { return gid.valid() && db_txn != nullptr; }
  };

  SrcaRepReplica(engine::Database* db, gcs::Group* group,
                 ReplicaOptions options = {});
  /// Leaves the group (gcs::Group::Crash) and waits for any callback
  /// still running on it; the group must outlive the replica.
  ~SrcaRepReplica() override;

  SrcaRepReplica(const SrcaRepReplica&) = delete;
  SrcaRepReplica& operator=(const SrcaRepReplica&) = delete;

  /// Joins the group. Must be called before any transaction.
  Status Start();

  gcs::MemberId member_id() const override {
    return member_id_.load(std::memory_order_acquire);
  }
  /// The group this replica joins: under partial replication its holder
  /// group's, shared only with the replicas holding the same partitions.
  const gcs::Group* group() const { return group_; }
  engine::Database* db() const override { return db_; }
  /// The options this replica runs with: the constructor's, with the
  /// size knobs floored at 1.
  const ReplicaOptions& options() const { return options_; }

  // ---- session API ----

  /// Starts a local transaction. Under SRCA-Rep this waits until the
  /// commit order has no holes (Adjustment 3; the paper issues a dummy
  /// statement to force an early, synchronized begin — we have an explicit
  /// begin instead).
  Result<TxnHandle> BeginTxn();

  /// Executes a statement of the transaction at the local DB replica,
  /// parsed once through the database's prepared-statement cache.
  /// A transaction-failure status means the transaction was aborted
  /// inside the database (conflict/deadlock) — restart it. Any other
  /// error (parse error, unknown table) leaves the transaction open.
  Result<engine::QueryResult> Execute(TxnHandle& txn, const std::string& sql,
                                      const std::vector<sql::Value>& params =
                                          {});

  /// Runs the commit protocol: writeset extraction, local validation,
  /// total-order multicast, global validation, local commit. Blocks until
  /// the outcome is decided. kConflict => validation failed (transaction
  /// aborted); kUnavailable => this replica crashed mid-protocol (the
  /// driver runs in-doubt resolution elsewhere). `had_writes`, if
  /// non-null, reports whether a writeset was disseminated (false for the
  /// read-only fast path — such transactions exist only here and cannot
  /// be inquired about at other replicas).
  Status CommitTxn(TxnHandle& txn, bool* had_writes = nullptr);

  /// Aborts a transaction that has not entered the commit protocol.
  Status RollbackTxn(const TxnHandle& txn);

  // ---- fail-over support (paper §5.4) ----

  /// Looks up the outcome of `gid`. If the outcome is not yet known, waits
  /// until either the writeset message arrives or the current view no
  /// longer contains `crashed_origin` — by uniform reliable delivery, one
  /// of the two must happen. The latter means kLost, or kUnknown if this
  /// incarnation never installed a view containing `crashed_origin`
  /// while live (before that, recovery covered the deliveries).
  /// When the outcome is kCommitted, additionally waits until the
  /// writeset is committed at *this* replica so the inquiring client
  /// will read its own writes here.
  TxnOutcome InquireOutcome(const GlobalTxnId& gid,
                            gcs::MemberId crashed_origin);

  // ---- fault injection ----

  /// Simulates the crash of this middleware/DB pair: leaves the group,
  /// fails all in-flight commits with kUnavailable, rejects future calls.
  void Crash() override;

  bool IsAlive() const { return !crashed_.load(std::memory_order_acquire); }

  /// Graceful stop (test teardown). Not a crash: no view change blame.
  void Shutdown();

  // ---- online recovery (extension; paper §5.4 / conclusion) ----

  /// True when live (not crashed, not still recovering): the discovery
  /// service only hands clients replicas for which this holds.
  bool IsAcceptingClients() const {
    return IsRunning() && state_transfer_.live();
  }

  /// One attempt to catch this replica up online while the rest of the
  /// cluster keeps committing (StateTransfer::Recover: marker in total
  /// order, a copy of one donor's marker state made on the calling
  /// thread, drain of the messages buffered past the marker). A donor fault or a buffer spill fails
  /// the attempt with a retryable status (kUnavailable / kTimedOut) —
  /// never a hang — and callers back off and re-enter; every attempt
  /// starts over from `from_tid`: the stable commit prefix of a
  /// restarting replica (StableCommitPrefix() of its previous
  /// incarnation), or 0 for a brand-new node whose schema has been
  /// created. Requires the replica to have been constructed with
  /// `start_recovering = true`. Donors are the other live members of
  /// this replica's group.
  Status Recover(uint64_t from_tid) {
    return state_transfer_.Recover(from_tid);
  }

  /// Durable prefix a restarted incarnation can recover from: every
  /// validated tid <= this value has committed at this replica, and
  /// re-applying later writesets is idempotent.
  uint64_t StableCommitPrefix() const {
    return tocommit_queue_.StablePrefix();
  }

  /// Liveness/role summary for the /healthz endpoint.
  struct Health {
    std::string role;  ///< "live" | "recovering" | "shutdown" | "crashed"
    std::string mode;  ///< "srca-rep" | "srca-opt"
    gcs::MemberId member_id = gcs::kInvalidMember;
    uint64_t view_id = 0;
    size_t view_members = 0;
    uint64_t stable_prefix = 0;
    size_t tocommit_depth = 0;
    /// Remote-apply pipeline width (ReplicaOptions::applier_threads).
    size_t applier_threads = 0;
    /// Partitions this replica holds; -1 under full replication (all).
    int64_t held_partitions = -1;
  };
  Health GetHealth() const;

  /// GetHealth() as a JSON object — the /healthz response body.
  std::string HealthJson() const;

  /// This replica's metrics registry: "mw.*" counters and the
  /// commit-path stage histograms ("mw.commit.stage.<stage>_us").
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// This replica's black box: view changes, validation aborts (with
  /// the first conflicting key), tocommit high-water marks, crashes.
  /// Registered with obs::FlightRecorder::DumpAllText() for its
  /// lifetime.
  obs::FlightRecorder& flight_recorder() { return flight_; }
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  /// Validated transactions not yet committed at this replica (test and
  /// quiescence helper).
  size_t PendingQueueSize() const { return tocommit_queue_.size(); }

  /// Blocks until the tocommit queue drains (every validated writeset
  /// committed here), returning immediately if this replica crashed or
  /// shut down — its queue will never drain (Crash() and Shutdown()
  /// cancel it). Condition-variable based; see
  /// cluster::Cluster::Quiesce().
  void WaitForQueueDrain() { tocommit_queue_.WaitUntilEmpty(); }

  // ---- GroupListener (delivery thread, or a committing client thread
  // delivering its own writeset; see gcs::GroupListener) ----
  void OnDeliver(const gcs::Message& message) override;
  void OnViewChange(const gcs::View& view) override;

 private:
  /// Result of global validation for a pending local commit, with the
  /// delivering thread's measurements for the committing client's trace
  /// (zero when the replica crashed first).
  struct ValidationResult {
    enum class Kind { kValidated, kFailed, kCrashed } kind = Kind::kFailed;
    uint64_t tid = 0;
    uint64_t delivered_ns = 0;  ///< arrival here: ends kMulticast
    uint64_t validate_ns = 0;   ///< kGlobalValidate
    uint64_t sequencer_ns = 0;  ///< kSequencerQueue
  };

  /// A local commit's or DDL statement's wait for the delivery of its
  /// own multicast, or for this replica's crash (result kCrashed).
  struct PendingLocal {
    storage::TransactionPtr db_txn;  ///< null for DDL
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ValidationResult result;
    Status ddl_outcome;  ///< DDL only: the statement's result here
  };

  /// Removes and returns the waiter of our own multicast `gid`; null once
  /// a crash released it.
  std::shared_ptr<PendingLocal> TakePending(const GlobalTxnId& gid);

  void RecordOutcome(const GlobalTxnId& gid, bool committed);
  void MarkLocallyCommitted(const GlobalTxnId& gid);

  /// Steps II/III trigger for one delivered writeset or DDL message —
  /// OnDeliver's body in live mode, and how recovery hands back the
  /// messages it buffered past its marker.
  void ProcessDelivery(const gcs::Message& message) override;

  /// Fig. 4 steps II/III for one delivered writeset message.
  void ProcessWriteSet(const gcs::Message& message);

  /// Executes a replicated DDL statement at its total-order position.
  void ProcessDdl(const gcs::Message& message);

  /// Client-side DDL protocol: multicast + wait for local execution.
  Status ReplicateDdl(const std::string& sql);

  // ---- StateTransferHost ----
  bool IsRunning() const override {
    return IsAlive() && !shutdown_.load(std::memory_order_acquire);
  }
  void ReadValidationState(
      const std::function<void(const ValidationView&)>& read) override;
  void AdoptValidationState(uint64_t lastvalidated,
                            std::deque<WsLogEntry> log) override;

  /// Hands remote entries the tocommit queue released to the apply
  /// pipeline; drops them once this replica crashed or shut down (their
  /// tids stay queued). Called after a delivery, a commit, and a start
  /// that waited: the three points where an entry can become eligible.
  void DispatchRemotes(std::vector<ToCommitEntry> entries);

  /// Applies + commits one remote writeset, retrying on deadlock.
  void ApplyRemote(ToCommitEntry entry);

  engine::Database* const db_;
  gcs::Group* const group_;
  const ReplicaOptions options_;
  // Atomic: written once by Start() after Join() returns, but read by
  // the delivery callbacks (OnDeliver/OnViewChange) from the moment
  // Join() spawns the delivery thread.
  std::atomic<gcs::MemberId> member_id_{gcs::kInvalidMember};

  std::atomic<bool> crashed_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> next_local_seq_{0};

  // Observability: counters and stage histograms live in registry_
  // (declared before everything that registers instruments in it); the
  // pointers below are resolved once in the constructor and are the
  // only handles the hot path touches (lock-free recording).
  obs::MetricsRegistry registry_;
  obs::StageHistograms stage_hists_;
  obs::Counter* c_committed_ = nullptr;
  obs::Counter* c_empty_ws_commits_ = nullptr;
  obs::Counter* c_local_val_aborts_ = nullptr;
  obs::Counter* c_global_val_aborts_ = nullptr;
  obs::Counter* c_remote_discards_ = nullptr;
  obs::Counter* c_apply_retries_ = nullptr;
  obs::Gauge* g_ws_list_size_ = nullptr;
  obs::Gauge* g_clock_offset_ns_ = nullptr;
  // Partial replication ("mw.partial.*"): commit attempts refused
  // because this replica does not hold every partition the writeset
  // touches, and the number of partitions this replica holds.
  obs::Counter* c_partial_misroutes_ = nullptr;
  obs::Gauge* g_partial_held_ = nullptr;

  // Fig. 4 state. wsmutex_ protects ws_log_ (ws_list and
  // lastvalidated_tid), and serializes validation (steps I.2.c-f and II).
  std::mutex wsmutex_;
  WsLog ws_log_;

  /// This replica's commit order (step III and Adjustments 1-3).
  ToCommitQueue tocommit_queue_;
  /// Remote-apply worker pool; entries handed to it are pairwise
  /// non-conflicting by the ToCommitQueue's dispatch rule, so the
  /// queue's hole rules are the only visibility constraint.
  std::unique_ptr<ApplyPipeline> pipeline_;
  /// Remote applies currently inside ApplyRemote, sampled into the
  /// kApplyParallelism stage histogram at each apply start.
  std::atomic<int64_t> applies_inflight_{0};

  std::mutex pending_mu_;
  std::unordered_map<GlobalTxnId, std::shared_ptr<PendingLocal>,
                     GlobalTxnIdHash>
      pending_;

  struct OutcomeEntry {
    bool committed = false;
    bool locally_committed = false;
  };
  mutable std::mutex outcomes_mu_;
  std::condition_variable outcomes_cv_;
  std::unordered_map<GlobalTxnId, OutcomeEntry, GlobalTxnIdHash> outcomes_;
  gcs::View view_;
  /// Every member of every view this incarnation installed while live
  /// (guarded by outcomes_mu_): InquireOutcome may call a writeset lost
  /// only if its origin is among them.
  std::unordered_set<gcs::MemberId> viewed_members_;

  /// Per-replica black box (see flight_recorder()).
  obs::FlightRecorder flight_{1024};
  /// High-water mark of the tocommit queue depth; crossings are recorded
  /// as kQueueHighWater flight events (doubling steps only, so a deep
  /// backlog does not flood the ring).
  std::atomic<uint64_t> queue_high_water_{0};
  /// Minimum observed (local arrival - origin send) over all remote
  /// writesets: the NTP-style lower bound used as this replica's
  /// clock-offset estimate for kDeliverySkew. INT64_MAX until the first
  /// remote delivery.
  std::atomic<int64_t> clock_offset_ns_{
      std::numeric_limits<int64_t>::max()};

  /// Online recovery: the delivery buffer and fence, the donor's answer
  /// to a marker, and the "mw.recovery.*" instruments.
  StateTransfer state_transfer_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_REPLICA_MW_H_
