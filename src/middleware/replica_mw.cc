#include "middleware/replica_mw.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/json.h"

namespace sirep::middleware {

namespace {

/// Floors the size knobs at 1, so options() reports what actually runs:
/// a zero-width pipeline has no worker, a zero high-water mark spills on
/// every delivery, and a log keeps at least the latest writeset.
ReplicaOptions WithFloors(ReplicaOptions options) {
  options.ws_log_capacity = std::max<size_t>(options.ws_log_capacity, 1);
  options.applier_threads = std::max<size_t>(options.applier_threads, 1);
  options.recovery_buffer_high_water =
      std::max<size_t>(options.recovery_buffer_high_water, 1);
  return options;
}

/// A remote writeset's trace, opened with the two spans its delivery
/// measured.
obs::TxnTrace RemoteTrace(const GlobalTxnId& gid, uint64_t skew_ns,
                          uint64_t validate_ns) {
  obs::TxnTrace trace;
  if (SIREP_LOG_ENABLED(LogLevel::kDebug)) trace.SetId(gid.ToString());
  trace.Add(obs::Stage::kDeliverySkew, skew_ns);
  trace.Add(obs::Stage::kGlobalValidate, validate_ns);
  return trace;
}

}  // namespace

SrcaRepReplica::SrcaRepReplica(engine::Database* db, gcs::Group* group,
                               ReplicaOptions options)
    : db_(db),
      group_(group),
      options_(WithFloors(options)),
      ws_log_(options_.ws_log_capacity),
      tocommit_queue_(options.mode == ReplicaMode::kSrcaRep, &registry_),
      state_transfer_(this, group, options_, &registry_, &flight_) {
  stage_hists_ = obs::StageHistograms::FromRegistry(&registry_);
  // The pipeline's workers only run entries handed to Dispatch(), and
  // nothing dispatches before Start() joins the group — constructing it
  // here (before the gauges below resolve) is safe.
  pipeline_ = std::make_unique<ApplyPipeline>(
      options_.applier_threads,
      [this](ToCommitEntry entry) { ApplyRemote(std::move(entry)); },
      &registry_);
  c_committed_ = registry_.GetCounter("mw.committed");
  c_empty_ws_commits_ = registry_.GetCounter("mw.empty_ws_commits");
  c_local_val_aborts_ = registry_.GetCounter("mw.local_val_aborts");
  c_global_val_aborts_ = registry_.GetCounter("mw.global_val_aborts");
  c_remote_discards_ = registry_.GetCounter("mw.remote_discards");
  c_apply_retries_ = registry_.GetCounter("mw.apply_retries");
  g_ws_list_size_ = registry_.GetGauge("mw.wslist.size");
  g_clock_offset_ns_ = registry_.GetGauge("mw.clock.offset_estimate_ns");
  c_partial_misroutes_ = registry_.GetCounter("mw.partial.misroutes");
  g_partial_held_ = registry_.GetGauge("mw.partial.held_partitions");
  if (options_.partition_map != nullptr) {
    g_partial_held_->Set(std::popcount(
        options_.partition_map->HeldMask(options_.partition_slot)));
  }
}

SrcaRepReplica::~SrcaRepReplica() {
  // Leave the group before the members die, and wait out any callback
  // still running: one may have crashed this replica (a self-expulsion)
  // and still be unwinding on the delivery thread.
  if (member_id() != gcs::kInvalidMember) group_->Crash(member_id());
  Shutdown();
}

Status SrcaRepReplica::Start() {
  // Byte-shipping transports (TCP sequencer) need these to serialize our
  // payloads; on the in-process transport they are simply never invoked.
  RegisterMessageCodecs(group_);
  if (options_.bootstrap_prefix > 0) {
    if (options_.start_recovering) {
      return Status::InvalidArgument(
          "bootstrap_prefix and start_recovering are mutually exclusive");
    }
    // Cold start over a surviving database: the data is already here, so
    // validation bookkeeping resumes at the adopted prefix. The writeset
    // log stays empty — as a donor we can only offer full copies until
    // new deliveries refill it, which the donor floor logic handles.
    std::lock_guard<std::mutex> lock(wsmutex_);
    ws_log_.Adopt(options_.bootstrap_prefix, {});
    tocommit_queue_.NoteCommitted(options_.bootstrap_prefix);
  }
  const gcs::MemberId id = group_->Join(this);
  if (id == gcs::kInvalidMember) {
    return Status::Unavailable("group is shut down");
  }
  // Atomic store: the delivery thread is already running and reads the
  // member id on every frame/view. Until this store lands it sees
  // kInvalidMember, which is benign — nothing in the stream can carry
  // our id before we have multicast anything.
  member_id_.store(id, std::memory_order_release);
  return Status::OK();
}

Result<SrcaRepReplica::TxnHandle> SrcaRepReplica::BeginTxn() {
  if (!IsAlive()) return Status::Unavailable("replica crashed");
  if (!IsAcceptingClients()) {
    return Status::Unavailable("replica is recovering");
  }
  TxnHandle handle;
  handle.gid.replica = member_id();
  handle.gid.seq = next_local_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (SIREP_LOG_ENABLED(LogLevel::kDebug)) {
    handle.trace.SetId(handle.gid.ToString());
  }
  // Adjustment 3: a local transaction only starts when the commit order
  // has no holes; the begin is atomic with that check.
  if (tocommit_queue_.RunStart([&] { handle.db_txn = db_->Begin(); })) {
    // This start left the wait set, which may open dispatch gates.
    DispatchRemotes(tocommit_queue_.TakeDispatchable());
  }
  return handle;
}

Result<engine::QueryResult> SrcaRepReplica::Execute(
    TxnHandle& txn, const std::string& sql,
    const std::vector<sql::Value>& params) {
  if (!IsAlive()) return Status::Unavailable("replica crashed");
  if (!txn.valid()) return Status::InvalidArgument("invalid transaction");
  // DDL replicates through the total order so every replica's schema
  // changes at the same logical position (it is not transactional: like
  // the paper's PostgreSQL setup, schema changes take effect immediately
  // and are not rolled back with the surrounding transaction).
  auto parsed = db_->Prepare(sql);
  if (!parsed.ok()) return parsed.status();
  const auto kind = parsed.value()->kind;
  if (kind == sql::StatementKind::kCreateTable ||
      kind == sql::StatementKind::kCreateIndex) {
    // Under partial replication the total order is per holder group, so
    // a schema change would reach one group only: like a cross-group
    // transaction, it is refused (load the schema at every replica
    // instead, e.g. Cluster::ExecuteEverywhere).
    if (options_.partition_map != nullptr &&
        options_.partition_map->partial()) {
      return Status::InvalidArgument(
          "runtime DDL spans every holder group; load the schema at every "
          "replica instead");
    }
    SIREP_RETURN_IF_ERROR(ReplicateDdl(sql));
    return engine::QueryResult{};
  }
  txn.trace.Begin(obs::Stage::kExecute);
  auto result = db_->Execute(txn.db_txn, *parsed.value(), params);
  txn.trace.End(obs::Stage::kExecute);
  return result;
}

Status SrcaRepReplica::ReplicateDdl(const std::string& sql) {
  GlobalTxnId gid;
  gid.replica = member_id();
  gid.seq = next_local_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto pending = std::make_shared<PendingLocal>();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_[gid] = pending;
  }
  auto payload =
      std::make_shared<const DdlMessage>(DdlMessage{gid, sql});
  Status mc = group_->Multicast(member_id(), kDdlMessageType, payload);
  if (!mc.ok()) {
    TakePending(gid);
    return mc;
  }
  std::unique_lock<std::mutex> lock(pending->mu);
  pending->cv.wait(lock, [&] { return pending->done; });
  return pending->result.kind == ValidationResult::Kind::kCrashed
             ? Status::Unavailable("replica crashed during DDL")
             : pending->ddl_outcome;
}

void SrcaRepReplica::ProcessDdl(const gcs::Message& message) {
  const auto* msg = message.As<DdlMessage>();
  Status outcome;
  {
    // Serialized with validation under wsmutex: the DDL takes effect at a
    // single, identical position in every replica's schedule, and gets a
    // tid slot so recovery replay preserves the interleaving.
    std::lock_guard<std::mutex> lock(wsmutex_);
    auto r = db_->ExecuteAutoCommit(msg->sql);
    outcome = r.ok() ? Status::OK() : r.status();
    tocommit_queue_.NoteCommitted(
        ws_log_.AppendDdl(msg->gid, msg->sql, outcome.ok()));
  }
  if (msg->gid.replica != member_id()) return;
  if (auto pending = TakePending(msg->gid)) {
    std::lock_guard<std::mutex> lock(pending->mu);
    pending->done = true;
    pending->ddl_outcome = outcome;
    pending->cv.notify_all();
  }
}

Status SrcaRepReplica::RollbackTxn(const TxnHandle& txn) {
  if (!txn.valid()) return Status::InvalidArgument("invalid transaction");
  db_->Abort(txn.db_txn);
  return Status::OK();
}

Status SrcaRepReplica::CommitTxn(TxnHandle& txn, bool* had_writes) {
  obs::Profiler::Section section("mw.commit_txn");
  if (!IsAlive()) return Status::Unavailable("replica crashed");
  if (!txn.valid()) return Status::InvalidArgument("invalid transaction");

  // Deterministic crash injection at every commit sub-stage (the
  // "mw.commit.crash.*" failpoints, paper §5.4 case 3): the replica
  // performs its crash action and the client sees kUnavailable, which
  // drives the driver's in-doubt resolution against a survivor.
  if (SIREP_FAILPOINT_HIT("mw.commit.crash.before_extract").fired) {
    Crash();
    return Status::Unavailable("injected crash before writeset extraction");
  }

  obs::TxnTrace& trace = txn.trace;

  // Fig. 4, I.2.a: retrieve the writeset before committing.
  trace.Begin(obs::Stage::kExtract);
  auto ws = db_->ExtractWriteSet(txn.db_txn);
  trace.End(obs::Stage::kExtract);
  if (had_writes != nullptr) *had_writes = !ws->empty();

  // I.2.c: read-only (or write-free) transactions commit right away —
  // under SI they never conflict and other replicas need not hear of them.
  // The client gets a definite answer, and in-doubt inquiries only ask
  // about writesets that entered the total order, so no outcome is kept
  // (likewise for the aborts below).
  if (ws->empty()) {
    trace.Begin(obs::Stage::kCommit);
    Status st = db_->Commit(txn.db_txn);
    trace.End(obs::Stage::kCommit);
    if (st.ok()) {
      c_committed_->Increment();
      c_empty_ws_commits_->Increment();
      trace.Flush(stage_hists_);
    }
    return st;
  }

  // Partial replication: a transaction that wrote a partition this
  // replica does not hold was misrouted by the client (or spans holder
  // groups) — abort it *before* dissemination. The abort is always safe
  // (nothing was multicast, nothing applied); committing would be
  // unsound, since this replica's rows for those partitions are stale
  // and its holder group's total order is not theirs.
  const cluster::PartitionMap* const pmap = options_.partition_map.get();
  if (pmap != nullptr && pmap->partial()) {
    if (!pmap->HoldsAll(options_.partition_slot, pmap->MaskOf(*ws))) {
      db_->Abort(txn.db_txn);
      c_partial_misroutes_->Increment();
      flight_.Record(obs::FlightEventType::kValidation, member_id(),
                     txn.gid.seq, txn.gid.replica, "misroute: not a holder");
      return Status::InvalidArgument(
          "transaction " + txn.gid.ToString() +
          " writes partitions this replica does not hold; route it to a "
          "holder of its partition group");
    }
  }

  auto pending = std::make_shared<PendingLocal>();
  pending->db_txn = txn.db_txn;
  uint64_t cert = 0;
  trace.Begin(obs::Stage::kLocalValidate);
  {
    // I.2.d: local validation — against *remote* transactions still in
    // this replica's tocommit queue (Adjustment 1: conflicts with
    // anything else were already caught inside the database).
    std::lock_guard<std::mutex> lock(wsmutex_);
    if (tocommit_queue_.ConflictsWithRemote(*ws)) {
      db_->Abort(txn.db_txn);
      c_local_val_aborts_->Increment();
      flight_.Record(obs::FlightEventType::kValidation, member_id(),
                     txn.gid.seq, txn.gid.replica, "local: remote in queue");
      return Status::Conflict("local validation failed for " +
                              txn.gid.ToString());
    }
    // I.2.e: remember how far validation had progressed; the receivers
    // only need to check writesets validated after this point.
    cert = ws_log_.lastvalidated();
    std::lock_guard<std::mutex> plock(pending_mu_);
    pending_[txn.gid] = pending;
  }
  trace.End(obs::Stage::kLocalValidate);

  // §5.4 case 3a: crash after local validation, before the writeset
  // reaches the group. No survivor ever sees it, so in-doubt resolution
  // must report the transaction lost. Crash() marks our own pending
  // entry kCrashed and removes it from pending_.
  if (SIREP_FAILPOINT_HIT("mw.commit.crash.before_multicast").fired) {
    Crash();
    return Status::Unavailable("injected crash before multicast of " +
                               txn.gid.ToString());
  }

  // I.2.g: disseminate in total order. The multicast span ends at the
  // message's arrival here, a time the delivering thread reports in the
  // validation result (it is this very thread when the in-process GCS
  // lets it deliver its own writeset inside Multicast(), which it does
  // when this replica is alone in its group). Multicast() stamps the
  // message with this replica's clock; every replica measures the
  // cross-replica stages against that stamp.
  trace.Begin(obs::Stage::kMulticast);
  auto payload = std::make_shared<const WriteSetMessage>(
      WriteSetMessage{txn.gid, cert, ws});
  Status mc = group_->Multicast(member_id(), kWriteSetMessageType, payload);
  if (!mc.ok()) {
    TakePending(txn.gid);
    db_->Abort(txn.db_txn);
    return mc;
  }

  // §5.4 case 3b: crash after the multicast was accepted into the total
  // order. Uniform reliable delivery guarantees every survivor delivers
  // (and commits) the writeset, so in-doubt resolution on a survivor
  // reports kCommitted even though this replica dies before hearing the
  // verdict. The normal wait below then observes the kCrashed result.
  if (SIREP_FAILPOINT_HIT("mw.commit.crash.after_multicast").fired) {
    Crash();
  }

  // Wait for global validation (step II, run by whichever thread
  // delivered our writeset; already decided when this thread did).
  ValidationResult result;
  {
    std::unique_lock<std::mutex> lock(pending->mu);
    pending->cv.wait(lock, [&] { return pending->done; });
    result = pending->result;
  }

  switch (result.kind) {
    case ValidationResult::Kind::kFailed:
      // ProcessWriteSet already aborted the DB transaction.
      return Status::Conflict("global validation failed for " +
                              txn.gid.ToString());
    case ValidationResult::Kind::kCrashed:
      return Status::Unavailable("replica crashed during commit of " +
                                 txn.gid.ToString());
    case ValidationResult::Kind::kValidated:
      break;
  }
  trace.EndAt(obs::Stage::kMulticast, result.delivered_ns);
  trace.Add(obs::Stage::kGlobalValidate, result.validate_ns);
  if (result.sequencer_ns != 0) {
    trace.Add(obs::Stage::kSequencerQueue, result.sequencer_ns);
  }

  // §5.4 case 3b, latest possible instant: globally validated everywhere
  // but crashed before the local database commit. Survivors committed it;
  // the client's resolver must still find kCommitted.
  if (SIREP_FAILPOINT_HIT("mw.commit.crash.before_local_commit").fired) {
    Crash();
    return Status::Unavailable("injected crash before local commit of " +
                               txn.gid.ToString());
  }
  // A crashed replica never commits or acknowledges, even when
  // validation finished before the crash (a crash after the multicast, a
  // self-expulsion, a kill while we ran): the client resolves the
  // outcome at a survivor instead. The transaction left open is rolled
  // back by the database's restart.
  if (!IsAlive()) {
    return Status::Unavailable("replica crashed before local commit of " +
                               txn.gid.ToString());
  }

  // Step III for a local transaction: validation guarantees no
  // conflicting transaction sits before us in the queue, so we commit
  // immediately (Adjustment 2); the hole gate never applies to local
  // transactions, but the commit is recorded atomically with the hole
  // bookkeeping.
  trace.Begin(obs::Stage::kCommit);
  uint64_t wal_ticket = 0;
  std::vector<ToCommitEntry> released;
  Status st = tocommit_queue_.Commit(
      result.tid, [&] { return db_->Commit(txn.db_txn, &wal_ticket); },
      &released);
  if (!st.ok()) {
    // Fail-stop: skipping a validated writeset would diverge this replica
    // from the others. Its tid stays queued, so the stable prefix stays
    // below it and the restarted incarnation recovers it from a donor.
    SIREP_ELOG << "local commit of validated " << txn.gid.ToString()
               << " failed: " << st.ToString() << "; crashing replica";
    Crash();
    return Status::Unavailable("replica crashed at local commit of " +
                               txn.gid.ToString());
  }
  DispatchRemotes(std::move(released));
  // Group-commit durability wait, outside the queue mutex so concurrent
  // committers share one flush; the client is only acked after this.
  st = db_->WaitWalDurable(wal_ticket);
  trace.End(obs::Stage::kCommit);
  MarkLocallyCommitted(txn.gid);
  if (st.ok()) {
    c_committed_->Increment();
    trace.Flush(stage_hists_);
  }
  return st;
}

void SrcaRepReplica::OnDeliver(const gcs::Message& message) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  if (message.type == kRecoveryRequestType) {
    state_transfer_.OnMarker(message);
  } else if ((message.type == kWriteSetMessageType ||
              message.type == kDdlMessageType) &&
             !state_transfer_.Buffer(message)) {
    ProcessDelivery(message);
  }
}

void SrcaRepReplica::ProcessDelivery(const gcs::Message& message) {
  if (message.type == kDdlMessageType) {
    ProcessDdl(message);
  } else {
    ProcessWriteSet(message);
  }
}

std::shared_ptr<SrcaRepReplica::PendingLocal> SrcaRepReplica::TakePending(
    const GlobalTxnId& gid) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  auto it = pending_.find(gid);
  if (it == pending_.end()) return nullptr;
  std::shared_ptr<PendingLocal> pending = std::move(it->second);
  pending_.erase(it);
  return pending;
}

void SrcaRepReplica::ProcessWriteSet(const gcs::Message& message) {
  obs::Profiler::Section section("mw.process_writeset");
  // "mw.validate" is a delay-only hook: stretches the validation stage
  // on the delivering thread so chaos schedules can pile up the tocommit
  // queue and widen crash windows (error verdicts are ignored —
  // validation decisions must stay identical across replicas).
  SIREP_FAILPOINT_HIT("mw.validate");
  const auto* msg = message.As<WriteSetMessage>();
  const bool is_local = msg->gid.replica == member_id();
  const uint64_t arrival_ns = obs::MonotonicNanos();

  // Delivery skew of a *remote* writeset, against the origin's multicast
  // stamp. Zero for the delivery that set the offset bound itself: every
  // remote delivery contributes a sample so the histogram's count (and
  // p50) reflects all of them, not just the laggards.
  uint64_t skew_ns = 0;
  if (!is_local) {
    // NTP-style clock-offset lower bound: the minimum observed
    // (arrival - origin send) across all remote deliveries.
    const int64_t delta = static_cast<int64_t>(arrival_ns) -
                          static_cast<int64_t>(message.enqueue_ns);
    int64_t prev = clock_offset_ns_.load(std::memory_order_relaxed);
    while (delta < prev && !clock_offset_ns_.compare_exchange_weak(
                               prev, delta, std::memory_order_relaxed)) {
    }
    const int64_t offset = std::min(prev, delta);
    g_clock_offset_ns_->Set(offset);
    if (delta > offset) skew_ns = static_cast<uint64_t>(delta - offset);
  }

  bool conflict;
  uint64_t tid = 0;
  uint64_t validate_ns = 0;
  storage::TupleId conflict_key;
  size_t ws_list_size = 0;
  size_t depth = 0;  // tocommit queue depth after our append
  {
    // Step II: global validation, in delivery order (the total order makes
    // every replica take the same decision here).
    std::lock_guard<std::mutex> lock(wsmutex_);
    if (msg->cert + 1 < ws_log_.floor()) {
      // The log no longer holds every writeset validated after the cert
      // (an extremely lagged sender). We cannot check exactly — abort
      // conservatively. The floor depends only on the position in the
      // total order and the cluster-wide capacity, so every replica takes
      // this branch identically.
      SIREP_WLOG << "ws_list window underrun for " << msg->gid.ToString()
                 << " (cert " << msg->cert << ", log floor "
                 << ws_log_.floor() << ")";
      conflict = true;
    } else {
      conflict = ws_log_.ConflictsAfter(msg->cert, *msg->ws, &conflict_key);
    }
    validate_ns = obs::MonotonicNanos() - arrival_ns;
    if (!conflict) {
      tid = ws_log_.AppendWriteSet(msg->gid, msg->ws);
      depth = tocommit_queue_.Append(
          ToCommitEntry{.tid = tid,
                        .gid = msg->gid,
                        .local = is_local,
                        .ws = msg->ws,
                        .origin_ns = message.enqueue_ns,
                        .delivered_ns = arrival_ns,
                        .skew_ns = skew_ns,
                        .validate_ns = validate_ns});
    }
    ws_list_size = ws_log_.size();
  }

  // Validation-window gauge, sampled on every delivery (a fig5/fig8
  // saturation signal beside the queue's own depth gauge).
  g_ws_list_size_->Set(static_cast<int64_t>(ws_list_size));
  uint64_t hw = queue_high_water_.load(std::memory_order_relaxed);
  while (depth > hw && !queue_high_water_.compare_exchange_weak(
                           hw, depth, std::memory_order_relaxed)) {
  }
  if (depth > hw && depth >= 16 && depth >= 2 * hw) {
    flight_.Record(obs::FlightEventType::kQueueHighWater, member_id(),
                   depth, hw, "mw.tocommit");
  }
  if (conflict) {
    flight_.Record(obs::FlightEventType::kValidation, member_id(),
                   msg->gid.seq, msg->gid.replica,
                   !conflict_key.table.empty() ? conflict_key.ToString()
                                               : "cert window underrun");
  }

  RecordOutcome(msg->gid, /*committed=*/!conflict);

  if (is_local) {
    if (auto pending = TakePending(msg->gid)) {
      if (conflict) {
        db_->Abort(pending->db_txn);
        c_global_val_aborts_->Increment();
      }
      std::lock_guard<std::mutex> lock(pending->mu);
      pending->done = true;
      pending->result.kind = conflict ? ValidationResult::Kind::kFailed
                                      : ValidationResult::Kind::kValidated;
      pending->result.tid = tid;
      // The sender's multicast span ends when the message reached this
      // (= its own) replica; validation time is charged separately, and
      // so is the sequencer wait: multicast stamp until total-order
      // delivery back here (one clock, so no skew correction needed).
      pending->result.delivered_ns = arrival_ns;
      pending->result.validate_ns = validate_ns;
      pending->result.sequencer_ns =
          message.enqueue_ns != 0 && arrival_ns > message.enqueue_ns
              ? arrival_ns - message.enqueue_ns
              : 0;
      pending->cv.notify_all();
    }
    // else: the client gave up (crash path) — nothing to do.
  } else {
    if (conflict) {
      c_remote_discards_->Increment();
      // A discarded writeset never reaches ApplyRemote: flush what it
      // has (delivery skew + validation) now.
      RemoteTrace(msg->gid, skew_ns, validate_ns).Flush(stage_hists_);
    } else {
      DispatchRemotes(tocommit_queue_.TakeDispatchable());
    }
  }
}

void SrcaRepReplica::DispatchRemotes(std::vector<ToCommitEntry> entries) {
  if (shutdown_.load(std::memory_order_acquire) || !IsAlive()) return;
  for (auto& entry : entries) pipeline_->Dispatch(std::move(entry));
}

void SrcaRepReplica::ApplyRemote(ToCommitEntry entry) {
  obs::Profiler::Section section("mw.apply_remote");
  // Step III for a remote transaction: apply the writeset, then commit.
  // Deadlocks with local transactions are possible (paper §4.2) — the
  // database aborts one side; if it was us, retry until success. A
  // version-check conflict can only be transient here (the conflicting
  // local transaction is guaranteed to fail validation and abort).
  //
  // kApplyParallelism samples the number of concurrent ApplyRemote
  // calls at each apply start — a direct histogram observation, not a
  // TxnTrace span (Flush would misinterpret the count as nanoseconds).
  const int64_t inflight =
      applies_inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  stage_hists_.stage[static_cast<int>(obs::Stage::kApplyParallelism)]
      ->Observe(static_cast<double>(inflight));
  struct InflightGuard {
    std::atomic<int64_t>* counter;
    ~InflightGuard() { counter->fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard{&applies_inflight_};
  obs::TxnTrace rtrace =
      RemoteTrace(entry.gid, entry.skew_ns, entry.validate_ns);
  while (!shutdown_.load(std::memory_order_acquire) && IsAlive()) {
    auto txn = db_->Begin();
    // "mw.apply" injects transient failures (e.g. 1in(4,error(deadlock)))
    // through the same retry loop a real deadlock with a local
    // transaction exercises.
    Status st = failpoint::AnyArmed() ? failpoint::EvalStatus("mw.apply")
                                      : Status::OK();
    if (st.ok()) {
      // Apply/commit spans accumulate in the trace (flushed once at
      // commit, retries included).
      rtrace.Begin(obs::Stage::kApply);
      st = db_->ApplyWriteSet(txn, *entry.ws);
      rtrace.End(obs::Stage::kApply);
    }
    if (st.ok()) {
      rtrace.Begin(obs::Stage::kCommit);
      uint64_t wal_ticket = 0;
      std::vector<ToCommitEntry> released;
      st = tocommit_queue_.Commit(
          entry.tid,
          [&] {
            Status committed = db_->Commit(txn, &wal_ticket);
            rtrace.End(obs::Stage::kCommit);
            if (!committed.ok()) return committed;
            // Counted and flushed before the tid leaves the queue:
            // Quiesce() returns once the queue drains, and the metrics
            // must already include this apply.
            const uint64_t now = obs::MonotonicNanos();
            // Delivery here -> committed here: tocommit queueing + apply.
            if (entry.delivered_ns != 0 && now > entry.delivered_ns) {
              rtrace.Add(obs::Stage::kRemoteApplyLag,
                         now - entry.delivered_ns);
            }
            // Origin multicast stamp -> visible at this replica (raw
            // cross-clock difference; the clock-offset gauge lets readers
            // correct it on clock-skewed deployments).
            if (entry.origin_ns != 0 && now > entry.origin_ns) {
              rtrace.Add(obs::Stage::kSnapshotStaleness,
                         now - entry.origin_ns);
            }
            rtrace.Flush(stage_hists_);
            c_committed_->Increment();
            return committed;
          },
          &released);
      if (st.ok()) {
        DispatchRemotes(std::move(released));
        // Durability wait outside the queue mutex: parallel appliers pile
        // their records into one group flush instead of serializing on
        // it. A failed flush leaves the in-memory commit standing.
        Status durable = db_->WaitWalDurable(wal_ticket);
        if (!durable.ok()) {
          SIREP_ELOG << "WAL flush failed for applied " << entry.gid.ToString()
                     << ": " << durable.ToString();
        }
        MarkLocallyCommitted(entry.gid);
        return;
      }
    }
    db_->Abort(txn);
    if (st.code() == StatusCode::kDeadlock ||
        st.code() == StatusCode::kConflict ||
        st.code() == StatusCode::kAborted) {
      c_apply_retries_->Increment();
      std::this_thread::yield();
      continue;
    }
    // Fail-stop: skipping a validated writeset would diverge this replica
    // from the others. Its tid stays queued, so the stable prefix stays
    // below it and the restarted incarnation recovers it from a donor.
    SIREP_ELOG << "unretryable writeset apply failure for "
               << entry.gid.ToString() << ": " << st.ToString()
               << "; crashing replica";
    Crash();
    return;
  }
  // Crashed or shutting down: the tid stays queued, so the stable prefix
  // never covers a writeset this incarnation did not commit.
}

void SrcaRepReplica::ReadValidationState(
    const std::function<void(const ValidationView&)>& read) {
  std::lock_guard<std::mutex> lock(wsmutex_);
  read(ValidationView{tocommit_queue_.StablePrefix(), ws_log_});
}

void SrcaRepReplica::AdoptValidationState(uint64_t lastvalidated,
                                          std::deque<WsLogEntry> log) {
  // Every logged transaction is committed here once the plan is applied:
  // it was replayed, lies in this node's stable prefix, or lies in the
  // copied tables.
  {
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    for (const auto& entry : log) {
      outcomes_[entry.gid] = {.committed = true, .locally_committed = true};
    }
    outcomes_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(wsmutex_);
    ws_log_.Adopt(lastvalidated, std::move(log));
  }
  tocommit_queue_.NoteCommitted(lastvalidated);
}

void SrcaRepReplica::RecordOutcome(const GlobalTxnId& gid, bool committed) {
  std::lock_guard<std::mutex> lock(outcomes_mu_);
  auto& entry = outcomes_[gid];
  entry.committed = committed;
  if (!committed) entry.locally_committed = true;  // nothing to wait for
  outcomes_cv_.notify_all();
}

void SrcaRepReplica::MarkLocallyCommitted(const GlobalTxnId& gid) {
  std::lock_guard<std::mutex> lock(outcomes_mu_);
  auto& entry = outcomes_[gid];
  entry.committed = true;
  entry.locally_committed = true;
  outcomes_cv_.notify_all();
}

TxnOutcome SrcaRepReplica::InquireOutcome(const GlobalTxnId& gid,
                                          gcs::MemberId crashed_origin) {
  std::unique_lock<std::mutex> lock(outcomes_mu_);
  // Paper §5.4: either the writeset (and hence the outcome) arrives, or
  // the view change reporting the origin's crash does — uniform reliable
  // delivery guarantees no third possibility.
  outcomes_cv_.wait(lock, [&] {
    if (shutdown_.load(std::memory_order_acquire) || !IsAlive()) return true;
    if (outcomes_.count(gid)) return true;
    return view_.view_id != 0 && !view_.Contains(crashed_origin);
  });
  auto it = outcomes_.find(gid);
  if (it == outcomes_.end()) {
    // The origin left the view without its writeset reaching us, so by
    // uniform delivery it reached no one — unless this incarnation never
    // installed a view containing the origin while live (a cold-start
    // seed, or an incarnation that recovered after the crash): then the
    // writeset may have been delivered before we processed deliveries
    // ourselves, and we cannot tell.
    const bool running =
        !shutdown_.load(std::memory_order_acquire) && IsAlive();
    return running && viewed_members_.count(crashed_origin) != 0
               ? TxnOutcome::kLost
               : TxnOutcome::kUnknown;
  }
  if (!it->second.committed) return TxnOutcome::kAborted;
  // Wait for the writeset to be committed *here* so the client sees its
  // own writes after fail-over.
  outcomes_cv_.wait(lock, [&] {
    if (shutdown_.load(std::memory_order_acquire) || !IsAlive()) return true;
    auto jt = outcomes_.find(gid);
    return jt != outcomes_.end() && jt->second.locally_committed;
  });
  return TxnOutcome::kCommitted;
}

void SrcaRepReplica::OnViewChange(const gcs::View& view) {
  bool expelled = false;
  {
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    view_ = view;
    // While recovering, the donor covers the messages before our marker,
    // so only views installed live vouch for a member's writesets.
    if (state_transfer_.live()) {
      viewed_members_.insert(view.members.begin(), view.members.end());
    }
    expelled = member_id() != gcs::kInvalidMember && view.view_id != 0 &&
               !view.Contains(member_id());
    outcomes_cv_.notify_all();
  }
  flight_.Record(obs::FlightEventType::kViewChange, member_id(),
                 view.view_id, view.members.size(),
                 expelled ? "expelled self" : "installed");
  // A view that excludes *us* means the group expelled this replica (a
  // TCP transport self-expulsion after losing the sequencer connection):
  // crash ourselves rather than keep serving clients as a zombie with a
  // stale total order. Crash() is idempotent and must run outside
  // outcomes_mu_ (it notifies outcomes_cv_ under the same mutex).
  if (expelled && IsAlive()) {
    SIREP_WLOG << "replica " << member_id() << " expelled from view "
               << view.view_id << "; crashing self";
    Crash();
  }
}

void SrcaRepReplica::Crash() {
  bool expected = false;
  if (!crashed_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return;
  }
  flight_.Record(obs::FlightEventType::kCrash, member_id(), 0, 0,
                 "middleware crash");
  group_->Crash(member_id());
  // Release clients blocked waiting for holes to close — those commits
  // will never happen now — and quiescence waiters watching our queue,
  // plus a Recover() caller waiting on its marker fence.
  tocommit_queue_.Cancel();
  state_transfer_.Interrupt();
  // Fail every in-flight local commit and DDL statement: commit clients
  // will run in-doubt resolution against another replica.
  std::unordered_map<GlobalTxnId, std::shared_ptr<PendingLocal>,
                     GlobalTxnIdHash>
      pending;
  {
    std::lock_guard<std::mutex> plock(pending_mu_);
    pending.swap(pending_);
  }
  for (auto& [gid, p] : pending) {
    std::lock_guard<std::mutex> lock(p->mu);
    if (!p->done) {
      p->done = true;
      p->result.kind = ValidationResult::Kind::kCrashed;
      p->cv.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    outcomes_cv_.notify_all();
  }
  SIREP_ILOG << "middleware replica " << member_id() << " crashed";
}

void SrcaRepReplica::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  tocommit_queue_.Cancel();
  pipeline_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    outcomes_cv_.notify_all();
  }
  // Release a Recover() caller waiting on the fence.
  state_transfer_.Interrupt();
}

SrcaRepReplica::Health SrcaRepReplica::GetHealth() const {
  Health h;
  if (!IsAlive()) {
    h.role = "crashed";
  } else if (shutdown_.load(std::memory_order_acquire)) {
    h.role = "shutdown";
  } else if (!state_transfer_.live()) {
    h.role = "recovering";
  } else {
    h.role = "live";
  }
  h.mode = options_.mode == ReplicaMode::kSrcaRep ? "srca-rep" : "srca-opt";
  h.member_id = member_id();
  {
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    h.view_id = view_.view_id;
    h.view_members = view_.members.size();
  }
  h.stable_prefix = StableCommitPrefix();
  h.tocommit_depth = tocommit_queue_.size();
  h.applier_threads = options_.applier_threads;
  if (options_.partition_map != nullptr) {
    h.held_partitions = std::popcount(
        options_.partition_map->HeldMask(options_.partition_slot));
  }
  return h;
}

std::string SrcaRepReplica::HealthJson() const {
  const Health h = GetHealth();
  std::string out = "{\"role\":";
  obs::json::AppendString(&out, h.role);
  out += ",\"mode\":";
  obs::json::AppendString(&out, h.mode);
  out += ",\"member_id\":";
  obs::json::AppendU64(&out, h.member_id);
  out += ",\"view_id\":";
  obs::json::AppendU64(&out, h.view_id);
  out += ",\"view_members\":";
  obs::json::AppendU64(&out, h.view_members);
  out += ",\"stable_prefix\":";
  obs::json::AppendU64(&out, h.stable_prefix);
  out += ",\"tocommit_depth\":";
  obs::json::AppendU64(&out, h.tocommit_depth);
  out += ",\"applier_threads\":";
  obs::json::AppendU64(&out, h.applier_threads);
  out += ",\"held_partitions\":";
  obs::json::AppendI64(&out, h.held_partitions);
  out += "}";
  return out;
}

}  // namespace sirep::middleware
