#ifndef SIREP_MIDDLEWARE_REPLICA_MW_H_
#define SIREP_MIDDLEWARE_REPLICA_MW_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/partition_map.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/query_result.h"
#include "gcs/group.h"
#include "middleware/apply_pipeline.h"
#include "middleware/global_txn_id.h"
#include "middleware/hole_tracker.h"
#include "middleware/messages.h"
#include "middleware/sharded_ws_index.h"
#include "middleware/tocommit_queue.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sirep::middleware {

/// Which replica-control variant to run (paper §4.3.3 / §6.3).
enum class ReplicaMode {
  /// Full SRCA-Rep: adjustments 1-3, provides 1-copy-SI.
  kSrcaRep,
  /// SRCA-Opt: adjustments 1-2 only. Starts/commits never synchronize, so
  /// commit orders may diverge across replicas under indirect conflicts —
  /// faster under update-intensive load, but only per-replica SI.
  kSrcaOpt,
};

struct ReplicaOptions {
  ReplicaMode mode = ReplicaMode::kSrcaRep;
  /// Validated writesets retained for online recovery donation (paper
  /// §5.4: "the middleware probably has to log writesets"). 0 disables
  /// the log; such a replica cannot act as a recovery donor.
  size_t ws_log_capacity = 1 << 20;
  /// Join in recovery mode: buffer deliveries and reject clients until
  /// Recover() completes. Used when restarting a crashed replica or
  /// adding a new one while the cluster keeps processing transactions.
  bool start_recovering = false;
  /// Cold-start seed after a full-cluster outage: join live immediately
  /// and adopt this tid as the already-validated prefix (the database
  /// under this replica holds every commit up to it). Online recovery
  /// needs a live donor, so when every replica is down the one holding
  /// the longest stable prefix — which, by in-order apply, contains
  /// every acknowledged commit — restarts with this set; everyone else
  /// then recovers from it normally (its empty writeset log forces a
  /// fresh full copy). 0 disables. Mutually exclusive with
  /// `start_recovering`.
  uint64_t bootstrap_prefix = 0;
  /// Worker threads of the remote-apply pipeline (see ApplyPipeline),
  /// which applies non-conflicting writesets in parallel; 1 (or 0) is a
  /// single applier in dispatch order. Should be > 1 or blocked applies
  /// (waiting on local transactions' locks) serialize unrelated applies;
  /// local commits are never run here (the committing client's thread
  /// performs them), so the hidden-deadlock freedom of Adjustment 2 does
  /// not depend on this width.
  size_t applier_threads = 8;
  /// Base deadline for a whole Recover() run. The effective deadline
  /// grows with the bytes actually received so a large full-copy
  /// transfer does not spuriously time out (see Recover()).
  std::chrono::milliseconds recovery_timeout{30000};
  /// Rows (or log entries) per recovery chunk — the streaming unit of
  /// state transfer and the resume granularity within a table (0 is
  /// treated as 1).
  size_t recovery_chunk_rows = 512;
  /// Recovery attempts (initial + retries across donors / re-anchors)
  /// before Recover() gives up with a retryable error.
  size_t recovery_max_attempts = 8;
  /// Buffered post-marker deliveries above this high-water mark trigger
  /// backpressure: the buffer is dropped and the transfer re-anchored at
  /// a fresh marker instead of growing without bound (0 is treated as
  /// 1).
  size_t recovery_buffer_high_water = 4096;
  /// Partial replication (null = full replication everywhere). All
  /// replicas of a cluster share one map (it models the cluster's
  /// partition-assignment config); `partition_slot` is this replica's
  /// stable slot in it, which determines the partitions it holds. A
  /// replica holding a partition applies its writesets; non-holders
  /// certify against writeset digests alone and keep only bookkeeping.
  std::shared_ptr<cluster::PartitionMap> partition_map;
  size_t partition_slot = 0;
};

/// Validation/commit outcome of a transaction as known at this replica.
enum class TxnOutcome { kUnknown, kCommitted, kAborted };

/// One SI-Rep middleware replica M^k (paper Fig. 3c / Fig. 4): runs in
/// front of exactly one database replica, executes local transactions
/// against it, multicasts writesets in total order, validates all
/// writesets in delivery order, and applies/commits them subject to the
/// conflict-ordering and hole rules.
///
/// Clients do not use this class directly; client::Connection (the
/// JDBC-like driver) talks to it and handles fail-over.
class SrcaRepReplica : public gcs::GroupListener {
 public:
  /// A client transaction local to this replica.
  struct TxnHandle {
    GlobalTxnId gid;
    storage::TransactionPtr db_txn;
    /// Commit-path stage trace, carried from BeginTxn through commit.
    std::shared_ptr<obs::TxnTrace> trace;
    bool valid() const { return gid.valid() && db_txn != nullptr; }
  };

  /// Legacy aggregate view of the replica's counters; the values now
  /// live in metrics() under the "mw." prefix and this struct is
  /// populated from them (kept so existing tests and benches compile).
  struct Stats {
    uint64_t committed = 0;
    uint64_t empty_ws_commits = 0;   ///< read-only fast path
    uint64_t local_val_aborts = 0;   ///< failed Fig.4 I.2.d
    uint64_t global_val_aborts = 0;  ///< failed Fig.4 II.2 (local txns)
    uint64_t remote_discards = 0;    ///< failed II.2 (remote txns)
    uint64_t apply_retries = 0;      ///< deadlock/conflict retries in III
    HoleTracker::Stats holes;
  };

  SrcaRepReplica(engine::Database* db, gcs::Group* group,
                 ReplicaOptions options = {});
  ~SrcaRepReplica() override;

  SrcaRepReplica(const SrcaRepReplica&) = delete;
  SrcaRepReplica& operator=(const SrcaRepReplica&) = delete;

  /// Joins the group. Must be called before any transaction.
  Status Start();

  gcs::MemberId member_id() const {
    return member_id_.load(std::memory_order_acquire);
  }
  engine::Database* db() const { return db_; }
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
  Result<engine::QueryResult> Execute(const TxnHandle& txn,
                                      const std::string& sql,
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
  Status CommitTxn(const TxnHandle& txn, bool* had_writes = nullptr);

  /// Aborts a transaction that has not entered the commit protocol.
  Status RollbackTxn(const TxnHandle& txn);

  // ---- fail-over support (paper §5.4) ----

  /// Looks up the outcome of `gid`. If the outcome is not yet known, waits
  /// until either the writeset message arrives or the current view no
  /// longer contains `crashed_origin` — by uniform reliable delivery, one
  /// of the two must happen. When the outcome is kCommitted, additionally
  /// waits until the writeset is committed at *this* replica so the
  /// inquiring client will read its own writes here.
  TxnOutcome InquireOutcome(const GlobalTxnId& gid,
                            gcs::MemberId crashed_origin);

  // ---- fault injection ----

  /// Simulates the crash of this middleware/DB pair: leaves the group,
  /// fails all in-flight commits with kUnavailable, rejects future calls.
  void Crash();

  bool IsAlive() const { return !crashed_.load(std::memory_order_acquire); }

  /// Graceful stop (test teardown). Not a crash: no view change blame.
  void Shutdown();

  // ---- online recovery (extension; paper §5.4 / conclusion) ----

  /// True when live (not crashed, not still recovering): the discovery
  /// service only hands clients replicas for which this holds.
  bool IsAcceptingClients() const {
    return IsAlive() && !shutdown_.load(std::memory_order_acquire) &&
           accepting_.load(std::memory_order_acquire);
  }

  /// Catches this replica up while the rest of the cluster keeps
  /// committing ("online recovery"):
  ///  1. multicasts a recovery marker in total order;
  ///  2. the chosen donor snapshots its validation state exactly at the
  ///     marker and *streams* the payload (full-copy table dumps and/or
  ///     the writeset-log suffix after `from_tid`) in bounded chunks;
  ///  3. this replica applies chunks as they arrive, adopts the
  ///     validation state at the final chunk, drains the messages
  ///     buffered past the marker, and goes live.
  /// The transfer is resumable: if the donor crashes or stalls
  /// mid-stream, the request is re-multicast carrying a cursor (applied
  /// log prefix, finished tables) and any surviving replica takes over
  /// as donor without restarting from scratch. A `timeout` <= 0 selects
  /// options().recovery_timeout; either way the effective deadline
  /// scales up with the bytes received so large transfers are not cut
  /// short. Failure returns a retryable status (kUnavailable /
  /// kTimedOut) — never a hang — so callers can back off and re-enter.
  /// `from_tid` is the stable commit prefix of a restarting replica
  /// (StableCommitPrefix() of its previous incarnation), or 0 for a
  /// brand-new node whose schema has been created. Requires the replica
  /// to have been constructed with `start_recovering = true`.
  /// `allow_partial` (partial replication, whole-group outage): accept a
  /// donor that holds none/some of this replica's partitions — it serves
  /// bookkeeping (validation state + log) while this replica keeps its
  /// own rows for the unserved partitions. Only safe when this replica
  /// holds the longest stable prefix of its partition group, which the
  /// caller (cluster::Cluster::RestartReplica) establishes.
  Status Recover(uint64_t from_tid,
                 std::chrono::milliseconds timeout =
                     std::chrono::milliseconds(0),
                 bool allow_partial = false);

  /// Durable prefix a restarted incarnation can recover from: every
  /// validated tid <= this value has committed at this replica, and
  /// re-applying later writesets is idempotent.
  uint64_t StableCommitPrefix() const { return holes_.StablePrefix(); }

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

  Stats stats() const;

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
  /// shut down — its queue will never drain. Condition-variable based;
  /// see cluster::Cluster::Quiesce().
  void WaitForQueueDrain() {
    tocommit_queue_.WaitUntilEmpty([this] {
      return shutdown_.load(std::memory_order_acquire) || !IsAlive();
    });
  }

  /// Load metric for load-balanced discovery (paper conclusion:
  /// "load-balancing issues"): active local transactions plus the
  /// backlog of validated-but-uncommitted writesets.
  size_t CurrentLoad() const {
    std::lock_guard<std::mutex> lock(active_mu_);
    return active_txns_.size() + tocommit_queue_.size();
  }

  // ---- GroupListener (GCS delivery thread) ----
  void OnDeliver(const gcs::Message& message) override;
  void OnViewChange(const gcs::View& view) override;

 private:
  /// Result of global validation for a pending local commit.
  struct ValidationResult {
    enum class Kind { kValidated, kFailed, kCrashed } kind = Kind::kFailed;
    uint64_t tid = 0;
  };

  struct PendingLocal {
    storage::TransactionPtr db_txn;
    /// Shared with the committing client's TxnHandle so the delivery
    /// thread can close the multicast span and record validation time.
    std::shared_ptr<obs::TxnTrace> trace;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ValidationResult result;
  };

  struct LogEntry {
    uint64_t tid = 0;
    GlobalTxnId gid;
    /// Null for DDL entries *and* for header-only entries a partial
    /// replica validated without holding the payload's partitions.
    std::shared_ptr<const storage::WriteSet> ws;
    std::string ddl;  ///< set for DDL entries
    /// Per-tuple certification digests and the partition mask (partial
    /// replication). Populated for every writeset entry so a donated log
    /// reproduces identical validation state at the recoverer even when
    /// ws is null.
    std::vector<uint64_t> digests;
    uint64_t partition_mask = 0;
  };

  /// One table's committed contents in a full-state transfer. The schema
  /// rides along so a recoverer that never saw the replicated CREATE
  /// TABLE can create it.
  struct TableDump {
    std::string table;
    sql::Schema schema;
    std::vector<sql::Row> rows;
  };

  /// Resume point of a chunked state transfer, multicast back to the
  /// group when the recoverer re-requests after a donor fault so the
  /// next donor continues instead of restarting. Covers both transfer
  /// phases: `applied_tid` for log replay, `tables_done` +
  /// `full_copy_base` for an in-progress full copy. Resume granularity
  /// for the copy is a whole table — row positions within a table are
  /// donor-snapshot-specific and not comparable across donors, finished
  /// tables are (idempotent full-row writesets reconcile the rest).
  struct RecoveryCursor {
    uint64_t applied_tid = 0;  ///< every log tid <= this is applied here
    bool full_copy_started = false;
    uint64_t full_copy_base = 0;  ///< stable prefix of the copy's donor
    std::vector<std::string> tables_done;  ///< fully received + swept
  };

  /// One bounded unit of the recovery stream, tagged with the transfer
  /// id so a chunk from an abandoned attempt is discarded instead of
  /// corrupting the next one. At most one section (meta / table rows /
  /// log entries) is populated per chunk.
  struct RecoveryChunk {
    Status status;  ///< non-OK chunk aborts this donation
    uint64_t transfer_id = 0;
    uint32_t index = 0;        ///< donor-side sequence within the transfer
    bool final_chunk = false;  ///< transfer complete after this chunk

    // Meta section (first chunk of every donation): the validation state
    // snapshotted at the marker, and the shape of what follows.
    bool has_meta = false;
    uint64_t lastvalidated = 0;
    std::vector<WsWindowEntry> ws_window;
    /// Partitions whose rows this donation actually carries (~0 when the
    /// donor covers everything the requester asked for). Rows outside it
    /// come from log bookkeeping only; the requester must not delete-sweep
    /// them.
    uint64_t served_mask = ~0ull;
    bool full_copy = false;  ///< table dumps follow before the log
    /// The cursor's partial copy is unusable (this donor's log does not
    /// reach its base): recoverer must drop tables_done and start over.
    bool full_copy_restart = false;
    uint64_t full_copy_base = 0;

    // Table-rows section (full copy only).
    std::string table;
    sql::Schema schema;
    bool table_begin = false;     ///< first chunk of this table
    bool table_complete = false;  ///< last chunk: run the delete-sweep
    std::vector<sql::Row> rows;

    // Log-suffix section.
    std::vector<LogEntry> log;

    size_t approx_bytes = 0;  ///< payload estimate (metrics + deadline)
  };

  /// Bounded chunk queue between the donor's streamer thread and the
  /// recoverer. Like the request it rides the in-process stash, so it
  /// works on every transport (all replicas share the process).
  struct RecoveryChannel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<RecoveryChunk> chunks;
    size_t capacity = 4;     ///< producer backpressure bound
    bool closed = false;     ///< donor finished, refused, or died
    bool abandoned = false;  ///< recoverer moved on; streamer must quit
  };
  struct RecoveryRequest {
    gcs::MemberId requester = gcs::kInvalidMember;
    gcs::MemberId donor = gcs::kInvalidMember;
    uint64_t from_tid = 0;
    uint64_t transfer_id = 0;
    /// Partitions the requester needs rows for (its held mask; 0 = all).
    /// A donor that holds none of them refuses; one that holds a subset
    /// serves it only when `allow_partial` (whole-group-outage
    /// bookkeeping recovery — the requester keeps its own rows).
    uint64_t needed_mask = 0;
    bool allow_partial = false;
    RecoveryCursor cursor;
    std::shared_ptr<RecoveryChannel> channel;
  };

  /// Donor-side donation plan, snapshotted under wsmutex_ at the marker
  /// point; a streamer thread materializes it into chunks off the
  /// delivery thread (the dump transaction pins the marker-consistent
  /// MVCC snapshot, so lazy table scans still observe marker state).
  struct DonorPlan {
    uint64_t transfer_id = 0;
    uint64_t lastvalidated = 0;
    std::vector<WsWindowEntry> ws_window;
    uint64_t served_mask = ~0ull;  ///< row filter for the table dumps
    std::vector<LogEntry> log_suffix;
    bool full_copy = false;
    bool full_copy_restart = false;
    uint64_t full_copy_base = 0;
    std::vector<std::string> tables;  ///< tables still to dump
    storage::TransactionPtr dump_txn;
    std::shared_ptr<RecoveryChannel> channel;
  };

  /// Recoverer-side transfer state surviving donor switches.
  struct RecoveryProgress {
    RecoveryCursor cursor;
    bool have_meta = false;
    uint64_t lastvalidated = 0;
    std::vector<WsWindowEntry> ws_window;
    uint64_t served_mask = ~0ull;  ///< from the current donor's meta
    /// Log entries received so far, keyed by tid (identical across
    /// donors by the total order, so accumulating over switches is
    /// safe); becomes the adopted ws_log_.
    std::map<uint64_t, LogEntry> adopted_log;
    // Import state of the table currently streaming in.
    bool table_active = false;
    std::string table;
    std::set<sql::Key> leftover_keys;  ///< local keys the dump lacks so far
  };

  void RecordOutcome(const GlobalTxnId& gid, bool committed);
  void MarkLocallyCommitted(const GlobalTxnId& gid);

  /// Steps II/III trigger for one delivered writeset message (the body of
  /// OnDeliver in live mode; also used when draining the recovery
  /// buffer).
  void ProcessWriteSet(const gcs::Message& message);

  /// Executes a replicated DDL statement at its total-order position.
  void ProcessDdl(const gcs::Message& message);

  /// Client-side DDL protocol: multicast + wait for local execution.
  Status ReplicateDdl(const std::string& sql);

  /// Donor/requester handling of a recovery marker.
  void HandleRecoveryRequest(const gcs::Message& message);

  /// Donor streamer-thread body: materializes `plan` into bounded
  /// chunks on the channel, honoring backpressure, abandonment, and the
  /// mw.recovery.* failpoints.
  void StreamRecoveryChunks(std::shared_ptr<DonorPlan> plan);

  /// Recoverer side: applies one received chunk (meta adoption, table
  /// rows as idempotent upserts + delete-sweep, log-suffix replay) and
  /// advances the cursor.
  Status ApplyRecoveryChunk(const RecoveryChunk& chunk,
                            RecoveryProgress* progress);

  /// Replays one donated log entry (writeset or DDL) into the local
  /// database; idempotent against what any previous incarnation or
  /// donor already applied.
  Status ApplyRecoveryLogEntry(const LogEntry& entry);

  /// Joins finished and in-flight donor streamer threads.
  void JoinStreamers();

  /// Dispatches every queue entry that became eligible (Adjustment 2).
  void ScheduleAppliers();

  /// Applies + commits one remote writeset, retrying on deadlock.
  void ApplyRemote(ToCommitEntry entry);

  engine::Database* const db_;
  gcs::Group* const group_;
  const ReplicaOptions options_;
  // Atomic: written once by Start() after Join() returns, but read by
  // the delivery thread (OnFrame/OnViewChange) from the moment Join()
  // spawns it.
  std::atomic<gcs::MemberId> member_id_{gcs::kInvalidMember};

  std::atomic<bool> crashed_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> accepting_{true};
  std::atomic<uint64_t> next_local_seq_{0};

  // Recovery buffering: while kBuffering, delivered writesets after the
  // marker are queued here and replayed by Recover()'s thread; the flip
  // to kLive happens under buffer_mu_ once the buffer drains. The fence
  // only arms for the marker of the *current* transfer attempt
  // (current_transfer_id_) — a marker from an abandoned attempt
  // delivered late must not re-arm it, or pre-marker messages of the
  // live attempt would be double-validated after adoption. When the
  // buffer crosses recovery_buffer_high_water while spills are enabled,
  // it is dropped wholesale (fence cleared, buffer_spilled_ set) and
  // the recoverer re-anchors the transfer at a fresh marker.
  enum class DeliveryMode { kLive, kBuffering };
  std::mutex buffer_mu_;
  std::condition_variable buffer_cv_;
  DeliveryMode delivery_mode_ = DeliveryMode::kLive;
  bool fence_seen_ = false;
  uint64_t current_transfer_id_ = 0;
  bool buffer_spilled_ = false;
  bool spill_enabled_ = true;
  /// Effective high-water mark of buffered_. Seeded from
  /// options().recovery_buffer_high_water at each Recover() entry and
  /// doubled on every spill, so re-anchoring converges even when live
  /// deliveries outpace the transfer (escalating backpressure).
  size_t buffer_hwm_ = 1;
  std::vector<gcs::Message> buffered_;

  /// Transfer-id generator (recoverer side; unique per member via the
  /// member-id high bits).
  std::atomic<uint64_t> transfer_seq_{0};

  /// Donor streamer threads, joined on Shutdown()/destruction.
  std::mutex streamers_mu_;
  std::vector<std::thread> streamers_;

  // Fig. 4 state. wsmutex_ protects lastvalidated_tid_ and ws_index_,
  // and serializes validation (steps I.2.c-f and II). ws_index_'s own
  // per-shard locks additionally allow lock-free-of-wsmutex_ readers
  // (gauges) and shard-parallel probes.
  std::mutex wsmutex_;
  uint64_t lastvalidated_tid_ = 0;
  ShardedWsIndex ws_index_;
  std::deque<LogEntry> ws_log_;  // guarded by wsmutex_

  ToCommitQueue tocommit_queue_;
  HoleTracker holes_;
  /// Remote-apply worker pool; entries handed to it are pairwise
  /// non-conflicting by the ToCommitQueue's dispatch rule, so
  /// hole_tracker ordering is the only visibility constraint.
  std::unique_ptr<ApplyPipeline> pipeline_;
  /// Remote applies currently inside ApplyRemote, sampled into the
  /// kApplyParallelism stage histogram at each apply start.
  std::atomic<int64_t> applies_inflight_{0};

  std::mutex pending_mu_;
  std::unordered_map<GlobalTxnId, std::shared_ptr<PendingLocal>,
                     GlobalTxnIdHash>
      pending_;

  struct PendingDdl {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status outcome;
  };
  std::mutex pending_ddl_mu_;
  std::unordered_map<GlobalTxnId, std::shared_ptr<PendingDdl>,
                     GlobalTxnIdHash>
      pending_ddl_;

  mutable std::mutex active_mu_;
  std::unordered_set<GlobalTxnId, GlobalTxnIdHash> active_txns_;

  struct OutcomeEntry {
    bool committed = false;
    bool locally_committed = false;
  };
  mutable std::mutex outcomes_mu_;
  std::condition_variable outcomes_cv_;
  std::unordered_map<GlobalTxnId, OutcomeEntry, GlobalTxnIdHash> outcomes_;
  gcs::View view_;

  // Observability: counters and stage histograms live in registry_;
  // the pointers below are resolved once in the constructor and are the
  // only handles the hot path touches (lock-free recording).
  obs::MetricsRegistry registry_;
  obs::StageHistograms stage_hists_;
  obs::Counter* c_committed_ = nullptr;
  obs::Counter* c_empty_ws_commits_ = nullptr;
  obs::Counter* c_local_val_aborts_ = nullptr;
  obs::Counter* c_global_val_aborts_ = nullptr;
  obs::Counter* c_remote_discards_ = nullptr;
  obs::Counter* c_apply_retries_ = nullptr;
  obs::Gauge* g_tocommit_depth_ = nullptr;
  obs::Gauge* g_ws_list_size_ = nullptr;
  obs::Gauge* g_holes_outstanding_ = nullptr;
  obs::Gauge* g_clock_offset_ns_ = nullptr;
  // Recovery-stage instrumentation ("mw.recovery.*"): donor side
  // (chunks/bytes sent), recoverer side (chunks/bytes received, retries,
  // donor switches, buffer spills, live buffered-message depth).
  obs::Counter* c_rec_chunks_sent_ = nullptr;
  obs::Counter* c_rec_bytes_sent_ = nullptr;
  obs::Counter* c_rec_chunks_received_ = nullptr;
  obs::Counter* c_rec_bytes_received_ = nullptr;
  obs::Counter* c_rec_retries_ = nullptr;
  obs::Counter* c_rec_donor_switches_ = nullptr;
  obs::Counter* c_rec_buffer_spills_ = nullptr;
  obs::Gauge* g_rec_buffered_msgs_ = nullptr;
  // Partial replication ("mw.partial.*"): header-only certifications
  // committed without a payload, sub-writeset applies at partially-held
  // replicas, commit attempts rejected because this replica holds none
  // of the writeset's partitions, payloads the GCS stripped on our
  // behalf, and the number of partitions this replica holds.
  obs::Counter* c_partial_header_commits_ = nullptr;
  obs::Counter* c_partial_filtered_applies_ = nullptr;
  obs::Counter* c_partial_misroutes_ = nullptr;
  obs::Counter* c_partial_stripped_sends_ = nullptr;
  obs::Gauge* g_partial_held_ = nullptr;

  /// Per-replica black box (see flight_recorder()).
  obs::FlightRecorder flight_{1024};
  /// High-water mark of the tocommit queue depth; crossings are recorded
  /// as kQueueHighWater flight events (doubling steps only, so a deep
  /// backlog does not flood the ring).
  std::atomic<uint64_t> queue_high_water_{0};
  /// Minimum observed (local arrival - origin send) over all traced
  /// remote writesets: the NTP-style lower bound used as this replica's
  /// clock-offset estimate for kDeliverySkew. INT64_MAX until the first
  /// traced delivery.
  std::atomic<int64_t> clock_offset_ns_{
      std::numeric_limits<int64_t>::max()};
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_REPLICA_MW_H_
