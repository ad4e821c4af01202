#include "middleware/replica_mw.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <set>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"

namespace sirep::middleware {

namespace {

/// Floors the size knobs at 1, so options() reports what actually runs:
/// a zero-width pipeline has no worker, a zero-row chunk never advances
/// the stream, and a zero high-water mark spills on every delivery.
ReplicaOptions WithFloors(ReplicaOptions options) {
  options.applier_threads = std::max<size_t>(options.applier_threads, 1);
  options.recovery_chunk_rows =
      std::max<size_t>(options.recovery_chunk_rows, 1);
  options.recovery_buffer_high_water =
      std::max<size_t>(options.recovery_buffer_high_water, 1);
  return options;
}

/// Deadline-scaling floor: the effective recovery deadline grows by the
/// time the received bytes would take at this (very conservative) rate,
/// so a transfer is never killed merely for being large.
constexpr uint64_t kRecoveryMinBytesPerMs = 512;

/// Donor silence longer than this counts as a donor fault: the
/// recoverer abandons the transfer and re-requests from the next donor,
/// resuming at its cursor.
constexpr std::chrono::milliseconds kRecoveryChunkTimeout{2000};

}  // namespace

SrcaRepReplica::SrcaRepReplica(engine::Database* db, gcs::Group* group,
                               ReplicaOptions options)
    : db_(db),
      group_(group),
      options_(WithFloors(options)),
      holes_(options.mode == ReplicaMode::kSrcaRep) {
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
  g_tocommit_depth_ = registry_.GetGauge("mw.tocommit.queue_depth");
  g_ws_list_size_ = registry_.GetGauge("mw.wslist.size");
  g_holes_outstanding_ = registry_.GetGauge("mw.holes.outstanding");
  g_clock_offset_ns_ = registry_.GetGauge("mw.clock.offset_estimate_ns");
  c_rec_chunks_sent_ = registry_.GetCounter("mw.recovery.chunks_sent");
  c_rec_bytes_sent_ = registry_.GetCounter("mw.recovery.bytes_sent");
  c_rec_chunks_received_ =
      registry_.GetCounter("mw.recovery.chunks_received");
  c_rec_bytes_received_ = registry_.GetCounter("mw.recovery.bytes_received");
  c_rec_retries_ = registry_.GetCounter("mw.recovery.retries");
  c_rec_donor_switches_ = registry_.GetCounter("mw.recovery.donor_switches");
  c_rec_buffer_spills_ = registry_.GetCounter("mw.recovery.buffer_spills");
  g_rec_buffered_msgs_ = registry_.GetGauge("mw.recovery.buffered_msgs");
  c_partial_header_commits_ =
      registry_.GetCounter("mw.partial.header_commits");
  c_partial_filtered_applies_ =
      registry_.GetCounter("mw.partial.filtered_applies");
  c_partial_misroutes_ = registry_.GetCounter("mw.partial.misroutes");
  c_partial_stripped_sends_ =
      registry_.GetCounter("mw.partial.stripped_sends");
  g_partial_held_ = registry_.GetGauge("mw.partial.held_partitions");
  if (options_.partition_map != nullptr) {
    g_partial_held_->Set(std::popcount(
        options_.partition_map->HeldMask(options_.partition_slot)));
  }
  holes_.SetWaitHistogram(
      registry_.GetLatencyHistogram("mw.begin.hole_wait_us"));
  // Contention accounting for the three hottest middleware locks; the
  // metrics land in this registry, so they surface on /metrics, in
  // DumpMetrics() and in the bench artifacts' contention section.
  holes_.SetLockStats(obs::LockStats::FromRegistry(&registry_, "mw.lock.holes"));
  tocommit_queue_.SetLockStats(
      obs::LockStats::FromRegistry(&registry_, "mw.lock.tocommit"));
  ws_index_.SetLockStats(
      obs::LockStats::FromRegistry(&registry_, "mw.lock.wsindex"));
  if (options_.start_recovering) {
    delivery_mode_ = DeliveryMode::kBuffering;
    accepting_.store(false, std::memory_order_release);
  }
}

SrcaRepReplica::~SrcaRepReplica() {
  Shutdown();
  // Shutdown() already joined the streamers it saw; catch any spawned
  // in the race window before the delivery thread observed shutdown_.
  JoinStreamers();
}

Status SrcaRepReplica::Start() {
  // Byte-shipping transports (TCP sequencer) need these to serialize our
  // payloads; on the in-process transport they are simply never invoked.
  RegisterMessageCodecs(group_);
  // Install the hole-gate listener BEFORE joining: Join() spawns the
  // delivery thread, which may start applying frames (and touching the
  // gate) immediately.
  // Re-run the dispatch scan whenever the hole gate may have opened
  // (a commit, a discard, or a waiting start proceeding).
  holes_.SetChangeListener([this] { ScheduleAppliers(); });
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
    lastvalidated_tid_ = options_.bootstrap_prefix;
    holes_.AdoptCommittedPrefix(options_.bootstrap_prefix);
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
  // Publish our slot binding only when starting live: senders strip
  // payloads from bound members, and a recovering incarnation must keep
  // receiving full payloads while it buffers (Recover() binds at the
  // end of a successful catch-up).
  if (options_.partition_map != nullptr && !options_.start_recovering) {
    options_.partition_map->BindSlot(options_.partition_slot, id);
  }
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
  handle.trace = std::make_shared<obs::TxnTrace>();
  if (SIREP_LOG_ENABLED(LogLevel::kDebug)) {
    handle.trace->SetId(handle.gid.ToString());
  }
  // Adjustment 3: a local transaction only starts when the commit order
  // has no holes; the begin is atomic with that check.
  handle.db_txn = holes_.RunStart([&] { return db_->Begin(); });
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_txns_.insert(handle.gid);
  }
  return handle;
}

Result<engine::QueryResult> SrcaRepReplica::Execute(
    const TxnHandle& txn, const std::string& sql,
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
    SIREP_RETURN_IF_ERROR(ReplicateDdl(sql));
    return engine::QueryResult{};
  }
  if (txn.trace != nullptr) txn.trace->Begin(obs::Stage::kExecute);
  auto result = db_->Execute(txn.db_txn, *parsed.value(), params);
  if (txn.trace != nullptr) txn.trace->End(obs::Stage::kExecute);
  return result;
}

Status SrcaRepReplica::ReplicateDdl(const std::string& sql) {
  GlobalTxnId gid;
  gid.replica = member_id();
  gid.seq = next_local_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto pending = std::make_shared<PendingDdl>();
  {
    std::lock_guard<std::mutex> lock(pending_ddl_mu_);
    pending_ddl_[gid] = pending;
  }
  auto payload =
      std::make_shared<const DdlMessage>(DdlMessage{gid, sql});
  Status mc = group_->Multicast(member_id(), kDdlMessageType, payload);
  if (!mc.ok()) {
    std::lock_guard<std::mutex> lock(pending_ddl_mu_);
    pending_ddl_.erase(gid);
    return mc;
  }
  std::unique_lock<std::mutex> lock(pending->mu);
  pending->cv.wait(lock, [&] {
    return pending->done || !IsAlive() ||
           shutdown_.load(std::memory_order_acquire);
  });
  return pending->done ? pending->outcome
                       : Status::Unavailable("replica crashed during DDL");
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
    const uint64_t tid = ++lastvalidated_tid_;
    holes_.NoteValidated(tid);
    holes_.RecordCommit(tid, [] { return 0; });
    if (options_.ws_log_capacity > 0 && outcome.ok()) {
      LogEntry entry;
      entry.tid = tid;
      entry.gid = msg->gid;
      entry.ddl = msg->sql;
      ws_log_.push_back(std::move(entry));
      while (ws_log_.size() > options_.ws_log_capacity) ws_log_.pop_front();
    }
  }
  if (msg->gid.replica == member_id()) {
    std::shared_ptr<PendingDdl> pending;
    {
      std::lock_guard<std::mutex> lock(pending_ddl_mu_);
      auto it = pending_ddl_.find(msg->gid);
      if (it != pending_ddl_.end()) {
        pending = it->second;
        pending_ddl_.erase(it);
      }
    }
    if (pending != nullptr) {
      std::lock_guard<std::mutex> lock(pending->mu);
      pending->done = true;
      pending->outcome = outcome;
      pending->cv.notify_all();
    }
  }
}

Status SrcaRepReplica::RollbackTxn(const TxnHandle& txn) {
  if (!txn.valid()) return Status::InvalidArgument("invalid transaction");
  db_->Abort(txn.db_txn);
  std::lock_guard<std::mutex> lock(active_mu_);
  active_txns_.erase(txn.gid);
  return Status::OK();
}

Status SrcaRepReplica::CommitTxn(const TxnHandle& txn, bool* had_writes) {
  obs::Profiler::Section section("mw.commit_txn");
  if (!IsAlive()) return Status::Unavailable("replica crashed");
  if (!txn.valid()) return Status::InvalidArgument("invalid transaction");
  // Whatever the outcome, the transaction stops being "active" now.
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_txns_.erase(txn.gid);
  }

  // Deterministic crash injection at every commit sub-stage (the
  // "mw.commit.crash.*" failpoints, paper §5.4 case 3): the replica
  // performs its crash action and the client sees kUnavailable, which
  // drives the driver's in-doubt resolution against a survivor.
  if (SIREP_FAILPOINT_HIT("mw.commit.crash.before_extract").fired) {
    Crash();
    return Status::Unavailable("injected crash before writeset extraction");
  }

  obs::TxnTrace* const trace = txn.trace.get();

  // Fig. 4, I.2.a: retrieve the writeset before committing.
  if (trace != nullptr) trace->Begin(obs::Stage::kExtract);
  auto ws = db_->ExtractWriteSet(txn.db_txn);
  if (trace != nullptr) trace->End(obs::Stage::kExtract);
  if (had_writes != nullptr) *had_writes = !ws->empty();

  // I.2.c: read-only (or write-free) transactions commit right away —
  // under SI they never conflict and other replicas need not hear of them.
  if (ws->empty()) {
    if (trace != nullptr) trace->Begin(obs::Stage::kCommit);
    Status st = db_->Commit(txn.db_txn);
    if (trace != nullptr) trace->End(obs::Stage::kCommit);
    if (st.ok()) {
      RecordOutcome(txn.gid, /*committed=*/true);
      MarkLocallyCommitted(txn.gid);
      c_committed_->Increment();
      c_empty_ws_commits_->Increment();
      if (trace != nullptr) trace->Flush(stage_hists_);
    }
    return st;
  }

  // Partial replication: tag the writeset with its partition mask (and
  // compute the per-tuple digests the header-only twin will carry). A
  // transaction that wrote a partition this replica does not hold was
  // misrouted by the client — abort it *before* dissemination. The abort
  // is always safe (nothing was multicast, nothing applied); committing
  // would be unsound, since no holder of those partitions executed the
  // reads and this replica's rows for them are stale.
  const cluster::PartitionMap* const pmap = options_.partition_map.get();
  uint64_t partition_mask = 0;
  std::vector<uint64_t> digests;
  if (pmap != nullptr && pmap->partial()) {
    partition_mask = pmap->MaskOf(*ws, &digests);
    if (!pmap->HoldsAll(options_.partition_slot, partition_mask)) {
      db_->Abort(txn.db_txn);
      RecordOutcome(txn.gid, /*committed=*/false);
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
  pending->trace = txn.trace;
  uint64_t cert = 0;
  if (trace != nullptr) trace->Begin(obs::Stage::kLocalValidate);
  {
    // I.2.d: local validation — against *remote* transactions still in
    // this replica's tocommit queue (Adjustment 1: conflicts with
    // anything else were already caught inside the database).
    std::lock_guard<std::mutex> lock(wsmutex_);
    if (tocommit_queue_.ConflictsWithRemote(*ws)) {
      db_->Abort(txn.db_txn);
      RecordOutcome(txn.gid, /*committed=*/false);
      c_local_val_aborts_->Increment();
      flight_.Record(obs::FlightEventType::kValidation, member_id(),
                     txn.gid.seq, txn.gid.replica, "local: remote in queue");
      return Status::Conflict("local validation failed for " +
                              txn.gid.ToString());
    }
    // I.2.e: remember how far validation had progressed; the receivers
    // only need to check writesets validated after this point.
    cert = lastvalidated_tid_;
    std::lock_guard<std::mutex> plock(pending_mu_);
    pending_[txn.gid] = pending;
  }
  if (trace != nullptr) trace->End(obs::Stage::kLocalValidate);

  // §5.4 case 3a: crash after local validation, before the writeset
  // reaches the group. No survivor ever sees it, so in-doubt resolution
  // must report the transaction lost. Crash() marks our own pending
  // entry kCrashed and removes it from pending_.
  if (SIREP_FAILPOINT_HIT("mw.commit.crash.before_multicast").fired) {
    Crash();
    return Status::Unavailable("injected crash before multicast of " +
                               txn.gid.ToString());
  }

  // I.2.g: disseminate in total order. The multicast span is closed by
  // the delivery thread (ProcessWriteSet) at the message's arrival.
  // The TraceContext rides both the frame and the payload so every
  // replica records its spans under this transaction's trace id and can
  // measure delivery skew / staleness against the origin's clocks.
  obs::TraceContext ctx;
  ctx.trace_id =
      (static_cast<uint64_t>(txn.gid.replica) + 1) << 40 | txn.gid.seq;
  ctx.origin_replica = txn.gid.replica;
  ctx.origin_mono_ns = obs::MonotonicNanos();
  ctx.origin_wall_ns = obs::TraceContext::WallNanos();
  if (trace != nullptr) {
    trace->SetContext(ctx);
    trace->Begin(obs::Stage::kMulticast);
  }
  WriteSetMessage full;
  full.gid = txn.gid;
  full.cert = cert;
  full.ws = ws;
  full.trace = ctx;
  if (pmap != nullptr) {
    full.epoch = pmap->epoch();
    full.partition_mask = partition_mask;
  }
  auto payload = std::make_shared<const WriteSetMessage>(std::move(full));
  // Route: members holding none of the touched partitions get the
  // header-only twin (digests, no rows). Best-effort — an empty strip
  // set, batching, or an unbound member all degrade to full payloads.
  gcs::MulticastRoute route;
  if (pmap != nullptr && pmap->partial() && partition_mask != 0) {
    uint64_t strip = pmap->StripMembers(partition_mask);
    // Never strip ourselves: the origin must see its own full payload.
    if (member_id() <= cluster::PartitionMap::kMaxStrippableMember) {
      strip &= ~(uint64_t{1} << member_id());
    }
    if (strip != 0) {
      WriteSetMessage header;
      header.gid = txn.gid;
      header.cert = cert;
      header.trace = ctx;
      header.epoch = pmap->epoch();
      header.partition_mask = partition_mask;
      header.header_only = true;
      header.digests = digests;
      route.strip_members = strip;
      route.header_payload =
          std::make_shared<const WriteSetMessage>(std::move(header));
      c_partial_stripped_sends_->Increment();
    }
  }
  Status mc = group_->Multicast(member_id(), kWriteSetMessageType, payload,
                                ctx, std::move(route));
  if (!mc.ok()) {
    {
      std::lock_guard<std::mutex> plock(pending_mu_);
      pending_.erase(txn.gid);
    }
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

  // Wait for global validation (step II on the delivery thread).
  ValidationResult result;
  {
    std::unique_lock<std::mutex> lock(pending->mu);
    pending->cv.wait(lock, [&] { return pending->done; });
    result = pending->result;
  }

  switch (result.kind) {
    case ValidationResult::Kind::kFailed:
      // The delivery thread already aborted the DB transaction.
      return Status::Conflict("global validation failed for " +
                              txn.gid.ToString());
    case ValidationResult::Kind::kCrashed:
      return Status::Unavailable("replica crashed during commit of " +
                                 txn.gid.ToString());
    case ValidationResult::Kind::kValidated:
      break;
  }

  // §5.4 case 3b, latest possible instant: globally validated everywhere
  // but crashed before the local database commit. Survivors committed it;
  // the client's resolver must still find kCommitted.
  if (SIREP_FAILPOINT_HIT("mw.commit.crash.before_local_commit").fired) {
    Crash();
    return Status::Unavailable("injected crash before local commit of " +
                               txn.gid.ToString());
  }

  // Step III for a local transaction: validation guarantees no
  // conflicting transaction sits before us in the queue, so we commit
  // immediately (Adjustment 2); the hole gate never applies to local
  // transactions, but the commit is recorded atomically with the hole
  // bookkeeping.
  if (trace != nullptr) trace->Begin(obs::Stage::kCommit);
  uint64_t wal_ticket = 0;
  Status st = holes_.RecordCommit(
      result.tid, [&] { return db_->Commit(txn.db_txn, &wal_ticket); });
  // Group-commit durability wait, outside the hole mutex so concurrent
  // committers share one flush; the client is only acked after this.
  if (st.ok()) st = db_->WaitWalDurable(wal_ticket);
  if (trace != nullptr) trace->End(obs::Stage::kCommit);
  tocommit_queue_.Remove(result.tid);
  MarkLocallyCommitted(txn.gid);
  ScheduleAppliers();
  if (st.ok()) {
    c_committed_->Increment();
    if (trace != nullptr) trace->Flush(stage_hists_);
  }
  return st;
}

namespace {
constexpr char kRecoveryRequestType[] = "recovery_request";
}  // namespace

void SrcaRepReplica::OnDeliver(const gcs::Message& message) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  if (message.type == kRecoveryRequestType) {
    HandleRecoveryRequest(message);
    return;
  }
  if (message.type != kWriteSetMessageType &&
      message.type != kDdlMessageType) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (delivery_mode_ == DeliveryMode::kBuffering) {
      // Before our own recovery marker the donor's stream covers the
      // message; after it, we replay it ourselves once caught up.
      if (fence_seen_) {
        buffered_.push_back(message);
        const size_t depth = buffered_.size();
        g_rec_buffered_msgs_->Set(static_cast<int64_t>(depth));
        if (spill_enabled_ && depth >= buffer_hwm_) {
          // Backpressure: instead of growing without bound under heavy
          // live traffic, drop the buffer and the fence wholesale. The
          // recoverer observes buffer_spilled_ and re-anchors at a
          // fresh marker whose donation covers everything dropped here
          // — nothing is lost, only the transfer tail is repeated.
          // Each spill doubles the allowance for the next attempt:
          // under sustained delivery pressure a fixed mark could spill
          // every re-anchor forever, so the bound escalates until one
          // transfer outruns the live stream (memory stays bounded —
          // the mark at most doubles per attempt, and attempts are
          // capped).
          buffered_.clear();
          fence_seen_ = false;
          buffer_spilled_ = true;
          buffer_hwm_ *= 2;
          c_rec_buffer_spills_->Increment();
          g_rec_buffered_msgs_->Set(0);
          flight_.Record(obs::FlightEventType::kQueueHighWater,
                         member_id(), depth, buffer_hwm_,
                         "mw.recovery.buffer");
          flight_.Record(obs::FlightEventType::kRecovery, member_id(),
                         current_transfer_id_, depth, "buffer_spill");
          buffer_cv_.notify_all();
        }
      }
      return;
    }
  }
  if (message.type == kDdlMessageType) {
    ProcessDdl(message);
  } else {
    ProcessWriteSet(message);
  }
}

void SrcaRepReplica::ProcessWriteSet(const gcs::Message& message) {
  obs::Profiler::Section section("mw.process_writeset");
  // "mw.validate" is a delay-only hook: stretches the validation stage
  // on the delivery thread so chaos schedules can pile up the tocommit
  // queue and widen crash windows (error verdicts are ignored —
  // validation decisions must stay identical across replicas).
  SIREP_FAILPOINT_HIT("mw.validate");
  const auto* msg = message.As<WriteSetMessage>();
  const bool is_local = msg->gid.replica == member_id();
  const uint64_t arrival_ns = obs::MonotonicNanos();
  // Prefer the payload-level context (it survives codec round-trips);
  // the frame-level copy covers payloads that never carried one.
  const obs::TraceContext& ctx =
      msg->trace.valid() ? msg->trace : message.trace;

  // Origin-tagged trace for a traced *remote* writeset: the spans this
  // replica records (validate, apply, commit, the cross-replica lags)
  // all land under the originating transaction's trace id.
  std::shared_ptr<obs::TxnTrace> rtrace;
  if (!is_local && ctx.valid()) {
    // NTP-style clock-offset lower bound: the minimum observed
    // (arrival - origin send) across all traced deliveries.
    const int64_t delta =
        static_cast<int64_t>(arrival_ns) -
        static_cast<int64_t>(ctx.origin_mono_ns);
    int64_t prev = clock_offset_ns_.load(std::memory_order_relaxed);
    while (delta < prev && !clock_offset_ns_.compare_exchange_weak(
                               prev, delta, std::memory_order_relaxed)) {
    }
    const int64_t offset = std::min(prev, delta);
    g_clock_offset_ns_->Set(offset);
    rtrace = std::make_shared<obs::TxnTrace>();
    rtrace->SetId(ctx.ToString());
    rtrace->SetContext(ctx);
    // Zero for the delivery that set the offset bound itself: every
    // traced delivery contributes a sample so the histogram's count
    // (and p50) reflects all of them, not just the laggards.
    rtrace->Add(obs::Stage::kDeliverySkew,
                delta > offset ? static_cast<uint64_t>(delta - offset)
                               : 0);
  }

  // Partial replication: decide up front whether this replica applies
  // the writeset or only certifies it. The decision keys on the
  // partition mask against our held set — not on payload presence:
  // batching (and epoch-conservative senders) may deliver full payloads
  // to non-holders, and those must still take the bookkeeping path so
  // non-held rows stay untouched (the misroute-abort safety argument
  // depends on them being stale, never deleted, never updated).
  const cluster::PartitionMap* const pmap = options_.partition_map.get();
  const bool have_payload = msg->ws != nullptr;
  bool holds_any = true;
  bool holds_all = true;
  uint64_t held_mask = ~uint64_t{0};
  if (pmap != nullptr && pmap->partial() && msg->partition_mask != 0 &&
      msg->epoch == pmap->epoch()) {
    // An epoch-mismatched mask was computed under a different layout and
    // is not trusted: the defaults above mean full-payload semantics
    // (apply whatever rows arrived). Extra rows at a "non-holder" are
    // harmless — exactly the stale copies non-held rows are allowed to
    // be; skipping an apply we actually hold would be the unsafe
    // direction.
    held_mask = pmap->HeldMask(options_.partition_slot);
    holds_any = (msg->partition_mask & held_mask) != 0;
    holds_all = (msg->partition_mask & ~held_mask) == 0;
  }
  if (!have_payload && holds_any && pmap != nullptr &&
      msg->epoch == pmap->epoch()) {
    // We hold a partition of this writeset but the sender stripped our
    // payload: the shared routing directory and our held mask disagree,
    // which only a mid-flight Resize() race can produce. We can certify
    // but not apply — continuing would silently diverge this replica's
    // rows from its co-holders', so crash instead (recovery re-seeds
    // us; non-holders advanced past this message unharmed).
    SIREP_ELOG << "replica " << member_id()
               << " received header-only writeset " << msg->gid.ToString()
               << " for held partitions (mask " << msg->partition_mask
               << ", held " << held_mask << "); crashing self";
    Crash();
    return;
  }
  const bool apply_here = have_payload && holds_any;

  bool conflict;
  uint64_t tid = 0;
  storage::TupleId conflict_key;
  uint64_t conflict_digest = 0;
  size_t ws_list_size = 0;
  {
    // Step II: global validation, in delivery order (the total order makes
    // every replica take the same decision here).
    std::lock_guard<std::mutex> lock(wsmutex_);
    if (!ws_index_.empty() && msg->cert + 1 < ws_index_.MinRetainedTid()) {
      // The cert predates our retained window (an extremely lagged
      // sender). We cannot check exactly — abort conservatively. All
      // replicas share the window size and delivery order, so they all
      // take this branch identically.
      SIREP_WLOG << "ws_list window underrun for " << msg->gid.ToString()
                 << " (cert " << msg->cert << " < min retained "
                 << ws_index_.MinRetainedTid() << ")";
      conflict = true;
    } else if (have_payload) {
      conflict = ws_index_.ConflictsAfter(msg->cert, *msg->ws, &conflict_key);
    } else {
      // Header-only variant: the digest probe is decision-equivalent to
      // the tuple probe (the index keys on digests either way), so
      // holders and non-holders reach the same verdict.
      conflict = ws_index_.ConflictsAfterDigests(msg->cert, msg->digests,
                                                 &conflict_digest);
    }
    if (!conflict) {
      tid = ++lastvalidated_tid_;
      // Every replica appends the digests of every validated message —
      // windows, MinRetainedTid and future verdicts stay identical
      // cluster-wide whether or not the rows are here.
      std::vector<uint64_t> digests = have_payload
                                          ? ShardedWsIndex::DigestsOf(*msg->ws)
                                          : msg->digests;
      ws_index_.AppendDigests(tid, digests, msg->ws);
      if (options_.ws_log_capacity > 0) {
        LogEntry log_entry;
        log_entry.tid = tid;
        log_entry.gid = msg->gid;
        log_entry.ws = msg->ws;  // null for header-only entries
        log_entry.digests = std::move(digests);
        log_entry.partition_mask = msg->partition_mask;
        ws_log_.push_back(std::move(log_entry));
        while (ws_log_.size() > options_.ws_log_capacity) {
          ws_log_.pop_front();
        }
      }
      holes_.NoteValidated(tid);
      if (rtrace != nullptr) {
        // Last write before publication: Append hands the trace to an
        // applier thread (the queue's lock orders that handoff), so the
        // validation span must land before the entry becomes visible.
        rtrace->Add(obs::Stage::kGlobalValidate,
                    obs::MonotonicNanos() - arrival_ns);
      }
      if (is_local || apply_here) {
        ToCommitEntry entry;
        entry.tid = tid;
        entry.gid = msg->gid;
        entry.local = is_local;
        entry.ws = msg->ws;
        if (!is_local && !holds_all) {
          // Partially held (a cross-group writeset from a full-mask
          // origin): apply only the sub-writeset that lands in our
          // partitions. The rest belongs to other groups and must stay
          // untouched here.
          auto filtered = std::make_shared<storage::WriteSet>();
          for (const auto& we : msg->ws->entries()) {
            const uint64_t digest =
                cluster::PartitionMap::TupleDigest(we.tuple);
            const size_t partition = pmap->PartitionOfDigest(digest);
            if ((held_mask >> partition) & 1) {
              filtered->Record(we.tuple, we.op, we.after);
            }
          }
          entry.ws = std::move(filtered);
          c_partial_filtered_applies_->Increment();
        }
        // Local entries are committed by the waiting client thread.
        entry.dispatched = is_local;
        entry.delivered_ns = arrival_ns;
        entry.trace = rtrace;
        tocommit_queue_.Append(std::move(entry));
      } else {
        // Non-holder: certification done, nothing to apply. Commit the
        // tid slot instantly (mirrors ProcessDdl) so the hole tracker
        // and stable prefix advance exactly as at holders.
        holes_.RecordCommit(tid, [] { return 0; });
      }
    }
    ws_list_size = ws_index_.size();
  }
  const uint64_t validate_ns = obs::MonotonicNanos() - arrival_ns;

  // Pipeline-depth gauges, sampled on every delivery (the fig5/fig8
  // saturation signals: queue backlog, validation window, hole set).
  const uint64_t depth = tocommit_queue_.size();
  g_tocommit_depth_->Set(static_cast<int64_t>(depth));
  g_ws_list_size_->Set(static_cast<int64_t>(ws_list_size));
  g_holes_outstanding_->Set(
      static_cast<int64_t>(holes_.OutstandingCount()));
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
                   !conflict_key.table.empty()
                       ? conflict_key.ToString()
                       : conflict_digest != 0
                             ? "digest " + std::to_string(conflict_digest)
                             : "cert window underrun");
  }

  RecordOutcome(msg->gid, /*committed=*/!conflict);

  if (is_local) {
    std::shared_ptr<PendingLocal> pending;
    {
      std::lock_guard<std::mutex> plock(pending_mu_);
      auto it = pending_.find(msg->gid);
      if (it != pending_.end()) {
        pending = it->second;
        pending_.erase(it);
      }
    }
    if (pending != nullptr) {
      if (pending->trace != nullptr) {
        // The sender's multicast span ends when the message reached this
        // (= its own) replica; validation time is charged separately.
        // Safe without atomics: the client thread stopped touching the
        // trace before the group enqueue that delivered this message,
        // and only resumes after pending->cv signals done.
        pending->trace->EndAt(obs::Stage::kMulticast, arrival_ns);
        pending->trace->Add(obs::Stage::kGlobalValidate, validate_ns);
        // Sequencer/batching wait: group enqueue at the origin until
        // total-order delivery back at the origin (same clock, so no
        // skew correction needed).
        if (message.enqueue_ns != 0 && arrival_ns > message.enqueue_ns) {
          pending->trace->Add(obs::Stage::kSequencerQueue,
                              arrival_ns - message.enqueue_ns);
        }
      }
      if (conflict) {
        db_->Abort(pending->db_txn);
        c_global_val_aborts_->Increment();
      }
      std::lock_guard<std::mutex> lock(pending->mu);
      pending->done = true;
      pending->result.kind = conflict ? ValidationResult::Kind::kFailed
                                      : ValidationResult::Kind::kValidated;
      pending->result.tid = tid;
      pending->cv.notify_all();
    }
    // else: the client gave up (crash path) — nothing to do.
  } else {
    if (rtrace == nullptr) {
      // Untraced remote writeset (v1 wire, or an untracing origin): its
      // validation cost goes straight into the stage histogram.
      stage_hists_.stage[static_cast<int>(obs::Stage::kGlobalValidate)]
          ->Observe(obs::NanosToUs(validate_ns));
    }
    if (conflict) {
      c_remote_discards_->Increment();
      // A discarded writeset never reaches ApplyRemote, so the trace was
      // never shared with an applier: record the validation span and
      // flush what we have (delivery skew + validation) now.
      if (rtrace != nullptr) {
        rtrace->Add(obs::Stage::kGlobalValidate, validate_ns);
        rtrace->Flush(stage_hists_);
      }
    } else if (apply_here) {
      ScheduleAppliers();
    } else {
      // Non-holder bookkeeping commit: the tid slot was closed under
      // wsmutex_ (which already re-ran the dispatch scan via the hole
      // listener); finish the outcome record so fail-over inquiries
      // terminate here too.
      MarkLocallyCommitted(msg->gid);
      c_partial_header_commits_->Increment();
      if (rtrace != nullptr) rtrace->Flush(stage_hists_);
    }
  }
}

void SrcaRepReplica::ScheduleAppliers() {
  if (shutdown_.load(std::memory_order_acquire) || !IsAlive()) return;
  // Adjustment 3's gate is applied here, *before* the remote transaction
  // begins and acquires locks (paper §4.3.3's hidden-deadlock argument).
  size_t deferred = 0;
  auto ready = tocommit_queue_.TakeDispatchableRemotes(
      [this](uint64_t tid) { return holes_.GateOpen(tid, false); },
      &deferred);
  g_tocommit_depth_->Set(static_cast<int64_t>(tocommit_queue_.size()));
  for (size_t i = 0; i < deferred; ++i) holes_.CountDeferredCommit();
  for (auto& entry : ready) {
    pipeline_->Dispatch(std::move(entry));
  }
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
  obs::TxnTrace* const rtrace = entry.trace.get();
  while (!shutdown_.load(std::memory_order_acquire) && IsAlive()) {
    auto txn = db_->Begin();
    // "mw.apply" injects transient failures (e.g. 1in(4,error(deadlock)))
    // through the same retry loop a real deadlock with a local
    // transaction exercises.
    Status st = failpoint::AnyArmed() ? failpoint::EvalStatus("mw.apply")
                                      : Status::OK();
    if (st.ok()) {
      // With an origin-tagged trace, apply/commit spans accumulate there
      // (flushed once at commit, retries included); without one they go
      // straight into the stage histograms, one observation per attempt.
      if (rtrace != nullptr) rtrace->Begin(obs::Stage::kApply);
      obs::ScopedLatency apply_timer(
          rtrace != nullptr
              ? nullptr
              : stage_hists_.stage[static_cast<int>(obs::Stage::kApply)]);
      st = db_->ApplyWriteSet(txn, *entry.ws);
      apply_timer.Stop();
      if (rtrace != nullptr) rtrace->End(obs::Stage::kApply);
    }
    if (st.ok()) {
      if (rtrace != nullptr) rtrace->Begin(obs::Stage::kCommit);
      obs::ScopedLatency commit_timer(
          rtrace != nullptr
              ? nullptr
              : stage_hists_.stage[static_cast<int>(obs::Stage::kCommit)]);
      uint64_t wal_ticket = 0;
      st = holes_.RecordCommit(entry.tid,
                               [&] { return db_->Commit(txn, &wal_ticket); });
      // Durability wait outside the hole mutex: parallel appliers pile
      // their records into one group flush instead of serializing on it.
      if (st.ok()) st = db_->WaitWalDurable(wal_ticket);
      commit_timer.Stop();
      if (rtrace != nullptr) rtrace->End(obs::Stage::kCommit);
      if (st.ok()) {
        // Count before the queue entry goes: Quiesce() returns once the
        // queue drains, and the counter must already include this apply.
        c_committed_->Increment();
        tocommit_queue_.Remove(entry.tid);
        MarkLocallyCommitted(entry.gid);
        if (rtrace != nullptr) {
          const uint64_t now = obs::MonotonicNanos();
          // Delivery here -> committed here: tocommit queueing + apply.
          if (entry.delivered_ns != 0 && now > entry.delivered_ns) {
            rtrace->Add(obs::Stage::kRemoteApplyLag,
                        now - entry.delivered_ns);
          }
          // Origin multicast send -> visible at this replica (raw
          // cross-clock difference; the clock-offset gauge lets readers
          // correct it on clock-skewed deployments).
          const auto& octx = rtrace->context();
          if (octx.origin_mono_ns != 0 && now > octx.origin_mono_ns) {
            rtrace->Add(obs::Stage::kSnapshotStaleness,
                        now - octx.origin_mono_ns);
          }
          rtrace->Flush(stage_hists_);
        }
        ScheduleAppliers();
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
    SIREP_ELOG << "unretryable writeset apply failure for "
               << entry.gid.ToString() << ": " << st.ToString();
    holes_.Discard(entry.tid);
    tocommit_queue_.Remove(entry.tid);
    return;
  }
  // Crashed/shutting down: release bookkeeping so nothing waits forever.
  holes_.Discard(entry.tid);
}

void SrcaRepReplica::HandleRecoveryRequest(const gcs::Message& message) {
  const auto* req = message.As<RecoveryRequest>();
  if (req->requester == member_id()) {
    // Our own marker: everything delivered from here on is ours to
    // replay; everything before is covered by the donor's stream. Only
    // the current attempt's marker arms the fence — a marker from an
    // abandoned attempt delivered late must not, or pre-marker messages
    // of the live attempt would be double-validated after adoption.
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (req->transfer_id == current_transfer_id_) {
      fence_seen_ = true;
      buffer_cv_.notify_all();
    }
    return;
  }
  if (req->donor != member_id() || req->channel == nullptr) return;

  const auto refuse = [&](Status status) {
    RecoveryChunk chunk;
    chunk.status = std::move(status);
    chunk.transfer_id = req->transfer_id;
    {
      std::lock_guard<std::mutex> lock(req->channel->mu);
      req->channel->chunks.push_back(std::move(chunk));
      req->channel->closed = true;
    }
    req->channel->cv.notify_all();
  };
  if (!IsAcceptingClients()) {
    // A replica that is itself recovering (or shutting down) has stale
    // state and must not donate.
    refuse(Status::Unavailable("chosen donor is not live"));
    return;
  }
  if (options_.ws_log_capacity == 0) {
    refuse(Status::NotSupported("this replica keeps no writeset log"));
    return;
  }
  // Partial replication: a donor can only re-seed rows it holds. When it
  // does not cover everything the requester needs, it refuses — unless
  // the requester explicitly accepts a partial (bookkeeping-only)
  // donation, which cluster::Cluster only authorizes for the
  // longest-prefix member of a whole-down group (its own rows are
  // already complete for the unserved partitions).
  uint64_t served_mask = ~uint64_t{0};
  if (options_.partition_map != nullptr &&
      options_.partition_map->partial()) {
    const cluster::PartitionMap& map = *options_.partition_map;
    const uint64_t donor_held = map.HeldMask(options_.partition_slot);
    const uint64_t needed =
        req->needed_mask != 0
            ? req->needed_mask
            : cluster::PartitionMap::FullMask(map.num_partitions());
    if ((needed & ~donor_held) != 0 && !req->allow_partial) {
      refuse(Status::Unavailable(
          "chosen donor does not hold the requester's partitions"));
      return;
    }
    served_mask = donor_held & needed;
  }

  // Donor side: snapshot the donation plan exactly at the marker point
  // of the total order (we are on the delivery thread, so every earlier
  // message has been fully validated). Chunk materialization happens on
  // a streamer thread; the dump transaction pins the marker-consistent
  // MVCC snapshot, so its lazy table scans still observe marker state.
  auto plan = std::make_shared<DonorPlan>();
  plan->transfer_id = req->transfer_id;
  plan->channel = req->channel;
  plan->served_mask = served_mask;
  {
    std::lock_guard<std::mutex> lock(wsmutex_);
    plan->lastvalidated = lastvalidated_tid_;
    plan->ws_window = ws_index_.Snapshot();
    // The tid floor our log must reach back to. While the requester has
    // a full copy in flight we must keep serving that copy's base: its
    // finished tables are consistent only against that base, whoever
    // dumped them.
    const uint64_t floor =
        req->cursor.full_copy_started
            ? req->cursor.full_copy_base
            : std::max(req->from_tid, req->cursor.applied_tid);
    // An empty log covers nothing: it "reaches" the floor only when
    // there is nothing after the floor to send at all. (A bootstrapped
    // replica has lastvalidated > 0 with an empty log, so the old
    // `empty == reaches-everything` shortcut would silently skip the
    // suffix and diverge the requester.)
    const bool reaches = ws_log_.empty()
                             ? floor >= lastvalidated_tid_
                             : floor + 1 >= ws_log_.front().tid;
    if (reaches && req->cursor.full_copy_started) {
      // Resume the previous donor's copy: same base, remaining tables;
      // idempotent full-row replay of (base, now] reconciles whatever
      // the earlier snapshot and ours disagree on.
      plan->full_copy = true;
      plan->full_copy_base = req->cursor.full_copy_base;
    } else if (reaches) {
      // Incremental catch-up: the log suffix alone suffices.
    } else {
      // The log no longer reaches back to the requester's floor: fall
      // back to a fresh full-state transfer (the paper's "complete
      // database copy", done online at the marker). The copy includes
      // every commit up to our stable prefix; the log tail covers the
      // validated-but-uncommitted remainder (idempotent to re-apply).
      const uint64_t stable = holes_.StablePrefix();
      const bool log_covers_tail = ws_log_.empty()
                                       ? stable >= lastvalidated_tid_
                                       : stable + 1 >= ws_log_.front().tid;
      if (!log_covers_tail) {
        refuse(Status::Internal(
            "writeset log smaller than the commit pipeline; increase "
            "ws_log_capacity"));
        return;
      }
      plan->full_copy = true;
      plan->full_copy_restart = req->cursor.full_copy_started;
      plan->full_copy_base = stable;
    }
    const uint64_t log_floor =
        plan->full_copy
            ? plan->full_copy_base
            : std::max(req->from_tid, req->cursor.applied_tid);
    for (const auto& entry : ws_log_) {
      if (entry.tid > log_floor) plan->log_suffix.push_back(entry);
    }
    if (plan->full_copy) {
      std::set<std::string> done(req->cursor.tables_done.begin(),
                                 req->cursor.tables_done.end());
      if (plan->full_copy_restart) done.clear();
      for (const auto& table : db_->engine().TableNames()) {
        if (done.count(table) == 0) plan->tables.push_back(table);
      }
      plan->dump_txn = db_->Begin();
    }
  }
  flight_.Record(obs::FlightEventType::kRecovery, member_id(),
                 plan->transfer_id, req->requester, "donate");
  {
    std::lock_guard<std::mutex> lock(streamers_mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      if (plan->dump_txn != nullptr) db_->Abort(plan->dump_txn);
      refuse(Status::Unavailable("donor shutting down"));
      return;
    }
    streamers_.emplace_back(
        [this, plan] { StreamRecoveryChunks(std::move(plan)); });
  }
}

void SrcaRepReplica::StreamRecoveryChunks(std::shared_ptr<DonorPlan> plan) {
  const auto channel = plan->channel;
  // Abort the dump snapshot whichever way this thread exits.
  struct DumpGuard {
    engine::Database* db;
    storage::TransactionPtr txn;
    ~DumpGuard() {
      if (txn != nullptr) db->Abort(txn);
    }
  } dump_guard{db_, plan->dump_txn};

  const auto close = [&] {
    {
      std::lock_guard<std::mutex> lock(channel->mu);
      channel->closed = true;
    }
    channel->cv.notify_all();
  };
  uint32_t index = 0;
  bool silent_stop = false;
  // Pushes one chunk, honoring the queue bound and the recoverer's
  // abandonment; returning false stops the stream.
  const auto send = [&](RecoveryChunk chunk) -> bool {
    // "mw.recovery.stall" stretches the inter-chunk gap (delay-only
    // hook); "mw.recovery.chunk_drop" loses this chunk and everything
    // after it *without* closing the channel, so the recoverer must
    // detect the stall through its per-chunk deadline.
    SIREP_FAILPOINT_HIT("mw.recovery.stall");
    if (SIREP_FAILPOINT_HIT("mw.recovery.chunk_drop").fired) {
      silent_stop = true;
      return false;
    }
    chunk.transfer_id = plan->transfer_id;
    chunk.index = index++;
    const size_t bytes = chunk.approx_bytes;
    {
      std::unique_lock<std::mutex> lock(channel->mu);
      while (channel->chunks.size() >= channel->capacity &&
             !channel->abandoned) {
        if (shutdown_.load(std::memory_order_acquire) || !IsAlive()) {
          return false;
        }
        channel->cv.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (channel->abandoned) return false;
      channel->chunks.push_back(std::move(chunk));
    }
    channel->cv.notify_all();
    c_rec_chunks_sent_->Increment();
    c_rec_bytes_sent_->Add(bytes);
    // Crash *after* the chunk is out: the recoverer observes a genuine
    // partial transfer and must fail over to another donor.
    if (SIREP_FAILPOINT_HIT("mw.recovery.donor_crash_mid_transfer").fired) {
      close();
      Crash();
      silent_stop = true;  // channel already closed
      return false;
    }
    return true;
  };

  bool ok;
  {
    RecoveryChunk meta;
    meta.has_meta = true;
    meta.lastvalidated = plan->lastvalidated;
    meta.ws_window = std::move(plan->ws_window);
    meta.served_mask = plan->served_mask;
    meta.full_copy = plan->full_copy;
    meta.full_copy_restart = plan->full_copy_restart;
    meta.full_copy_base = plan->full_copy_base;
    meta.approx_bytes = 64 + meta.ws_window.size() * 128;
    ok = send(std::move(meta));
  }
  // Table dumps (full copy), one table at a time: streamer memory is
  // bounded by the largest table, not the whole database.
  for (size_t t = 0; ok && t < plan->tables.size(); ++t) {
    const std::string& table = plan->tables[t];
    storage::MvccTable* mvcc = db_->engine().GetTable(table);
    if (mvcc == nullptr) continue;
    const sql::Schema schema = mvcc->schema();
    std::vector<sql::Row> rows;
    // Partial donation: dump only the rows of the served partitions.
    // The donor's rows for other partitions are stale non-held copies
    // and must never be presented as authoritative.
    const cluster::PartitionMap* const pmap = options_.partition_map.get();
    const bool filter_rows = plan->served_mask != ~uint64_t{0} &&
                             pmap != nullptr;
    Status scan = db_->engine().Scan(
        plan->dump_txn, table,
        [&](const sql::Key& key, const sql::Row& row) {
          if (filter_rows) {
            const size_t partition = pmap->PartitionOf({table, key});
            if (((plan->served_mask >> partition) & 1) == 0) return;
          }
          rows.push_back(row);
        });
    if (!scan.ok()) {
      RecoveryChunk failed;
      failed.status = scan;
      failed.transfer_id = plan->transfer_id;
      {
        // Error chunks bypass the capacity bound (at most one extra
        // entry) so a failing scan is always reported.
        std::lock_guard<std::mutex> lock(channel->mu);
        channel->chunks.push_back(std::move(failed));
      }
      channel->cv.notify_all();
      ok = false;
      break;
    }
    size_t offset = 0;
    bool first = true;
    do {
      const size_t n =
          std::min(options_.recovery_chunk_rows, rows.size() - offset);
      RecoveryChunk chunk;
      chunk.table = table;
      chunk.schema = schema;
      chunk.table_begin = first;
      chunk.table_complete = offset + n == rows.size();
      chunk.rows.assign(rows.begin() + static_cast<long>(offset),
                        rows.begin() + static_cast<long>(offset + n));
      chunk.approx_bytes = 32 + chunk.rows.size() * 64;
      first = false;
      offset += n;
      ok = send(std::move(chunk));
    } while (ok && offset < rows.size());
  }
  // Log suffix.
  for (size_t offset = 0; ok && offset < plan->log_suffix.size();
       offset += options_.recovery_chunk_rows) {
    const size_t n = std::min(options_.recovery_chunk_rows,
                              plan->log_suffix.size() - offset);
    RecoveryChunk chunk;
    chunk.log.assign(plan->log_suffix.begin() + static_cast<long>(offset),
                     plan->log_suffix.begin() + static_cast<long>(offset + n));
    chunk.approx_bytes = chunk.log.size() * 160;
    ok = send(std::move(chunk));
  }
  if (ok) {
    RecoveryChunk fin;
    fin.final_chunk = true;
    ok = send(std::move(fin));
  }
  if (!silent_stop) close();
}

Status SrcaRepReplica::ApplyRecoveryLogEntry(const LogEntry& entry) {
  if (!entry.ddl.empty()) {
    // Replicated DDL at this position. AlreadyExists is fine (a
    // restarted replica's schema survived the crash, or an earlier
    // donor's chunks already shipped it).
    auto r = db_->ExecuteAutoCommit(entry.ddl);
    if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
      return Status::Internal("recovery DDL replay failed: " +
                              r.status().ToString());
    }
    return Status::OK();
  }
  // A null writeset on a non-DDL entry is a header-only certification
  // the donor itself never held rows for: replaying it is pure
  // bookkeeping (the outcome records below), exactly as it was at every
  // non-holder when the message was live.
  std::shared_ptr<const storage::WriteSet> to_apply = entry.ws;
  const cluster::PartitionMap* const pmap = options_.partition_map.get();
  if (to_apply != nullptr && pmap != nullptr && pmap->partial() &&
      entry.partition_mask != 0) {
    // Replay only our held sub-writeset, mirroring the live apply
    // decision — a full-payload entry in a donor's log may span
    // partitions this replica does not hold.
    const uint64_t held = pmap->HeldMask(options_.partition_slot);
    if ((entry.partition_mask & held) == 0) {
      to_apply = nullptr;
    } else if ((entry.partition_mask & ~held) != 0) {
      auto filtered = std::make_shared<storage::WriteSet>();
      for (const auto& we : to_apply->entries()) {
        const size_t partition = pmap->PartitionOf(we.tuple);
        if ((held >> partition) & 1) filtered->Record(we.tuple, we.op, we.after);
      }
      to_apply = filtered->empty() ? nullptr : std::move(filtered);
    }
  }
  while (to_apply != nullptr) {
    auto txn = db_->Begin();
    Status st = db_->ApplyWriteSet(txn, *to_apply);
    if (st.ok()) st = db_->Commit(txn);
    if (st.ok()) break;
    db_->Abort(txn);
    if (!st.IsTransactionFailure()) {
      return Status::Internal("recovery replay failed at tid " +
                              std::to_string(entry.tid) + ": " +
                              st.ToString());
    }
  }
  RecordOutcome(entry.gid, /*committed=*/true);
  MarkLocallyCommitted(entry.gid);
  return Status::OK();
}

Status SrcaRepReplica::ApplyRecoveryChunk(const RecoveryChunk& chunk,
                                          RecoveryProgress* progress) {
  if (chunk.has_meta) {
    progress->have_meta = true;
    progress->lastvalidated = chunk.lastvalidated;
    progress->ws_window = chunk.ws_window;
    progress->served_mask = chunk.served_mask;
    if (chunk.full_copy) {
      if (chunk.full_copy_restart ||
          (progress->cursor.full_copy_started &&
           progress->cursor.full_copy_base != chunk.full_copy_base)) {
        // This donor could not resume the previous copy: its dump uses
        // a new base, so partially transferred tables and adopted log
        // entries against the old base are discarded. The database
        // rows themselves need no undo — the new dump plus the
        // delete-sweep overwrites them.
        progress->cursor.tables_done.clear();
        progress->adopted_log.clear();
      }
      progress->cursor.full_copy_started = true;
      progress->cursor.full_copy_base = chunk.full_copy_base;
    }
    progress->table_active = false;
    return Status::OK();
  }
  if (chunk.final_chunk) return Status::OK();

  if (!chunk.table.empty()) {
    // Full-copy table rows: overwrite every dumped row; at
    // table_complete delete everything local the donor no longer has.
    storage::MvccTable* table = db_->engine().GetTable(chunk.table);
    if (chunk.table_begin) {
      if (table == nullptr) {
        // The table was created via replicated DDL we never saw: create
        // it from the shipped schema.
        SIREP_RETURN_IF_ERROR(
            db_->engine().CreateTable(chunk.table, chunk.schema));
        table = db_->engine().GetTable(chunk.table);
      }
      progress->table_active = true;
      progress->table = chunk.table;
      progress->leftover_keys.clear();
      auto view_txn = db_->Begin();
      Status scan = db_->engine().Scan(
          view_txn, chunk.table,
          [&](const sql::Key& key, const sql::Row&) {
            progress->leftover_keys.insert(key);
          });
      db_->Abort(view_txn);
      if (!scan.ok()) return scan;
    }
    if (table == nullptr || !progress->table_active ||
        progress->table != chunk.table) {
      return Status::Internal("recovery table chunk out of order for '" +
                              chunk.table + "'");
    }
    storage::WriteSet sync;
    for (const auto& row : chunk.rows) {
      const sql::Key key = table->schema().KeyOf(row);
      progress->leftover_keys.erase(key);
      sync.Record({chunk.table, key}, storage::WriteOp::kUpdate, row);
    }
    if (chunk.table_complete) {
      // Delete-sweep, restricted to the partitions this donation served:
      // local rows of unserved partitions were deliberately absent from
      // the dump, and non-held rows (kept stale by design — the
      // misroute-abort guard depends on them existing) must survive
      // every recovery untouched.
      const cluster::PartitionMap* const pmap =
          options_.partition_map.get();
      const bool filter_sweep = progress->served_mask != ~uint64_t{0};
      for (const auto& key : progress->leftover_keys) {
        if (filter_sweep) {
          if (pmap == nullptr) continue;  // cannot attribute: keep the row
          const size_t partition = pmap->PartitionOf({chunk.table, key});
          if (((progress->served_mask >> partition) & 1) == 0) continue;
        }
        sync.Record({chunk.table, key}, storage::WriteOp::kDelete, {});
      }
    }
    if (!sync.empty()) {
      auto txn = db_->Begin();
      Status st = db_->ApplyWriteSet(txn, sync);
      if (st.ok()) st = db_->Commit(txn);
      if (!st.ok()) {
        db_->Abort(txn);
        return Status::Internal("full-copy import failed for table '" +
                                chunk.table + "': " + st.ToString());
      }
    }
    if (chunk.table_complete) {
      progress->table_active = false;
      progress->leftover_keys.clear();
      progress->cursor.tables_done.push_back(chunk.table);
    }
    return Status::OK();
  }

  // Log-suffix entries: apply the ones we have not applied yet (nobody
  // else touches this DB — no clients, no appliers — and re-applying
  // writesets a previous incarnation committed is idempotent), record
  // all of them for ws_log_ adoption.
  for (const auto& entry : chunk.log) {
    if (entry.tid > progress->cursor.applied_tid) {
      SIREP_RETURN_IF_ERROR(ApplyRecoveryLogEntry(entry));
      progress->cursor.applied_tid = entry.tid;
    }
    progress->adopted_log[entry.tid] = entry;
  }
  return Status::OK();
}

Status SrcaRepReplica::Recover(uint64_t from_tid,
                               std::chrono::milliseconds timeout,
                               bool allow_partial) {
  if (!IsAlive()) return Status::Unavailable("replica crashed");
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (delivery_mode_ != DeliveryMode::kBuffering) {
      return Status::InvalidArgument(
          "Recover() requires start_recovering = true");
    }
    buffer_hwm_ = options_.recovery_buffer_high_water;
  }
  if (timeout.count() <= 0) timeout = options_.recovery_timeout;

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  uint64_t total_bytes = 0;
  // The effective deadline stretches with the bytes received: a
  // transfer still making progress is never killed for being large.
  const auto deadline = [&] {
    return start + timeout +
           std::chrono::milliseconds(total_bytes / kRecoveryMinBytesPerMs);
  };

  RecoveryProgress progress;
  progress.cursor.applied_tid = from_tid;

  // Deterministic per-replica jitter for the retry backoff (xorshift;
  // recovery runs on one thread, no shared RNG needed).
  uint64_t jitter_state = 0x9e3779b97f4a7c15ull ^
                          (static_cast<uint64_t>(member_id()) << 32) ^
                          (from_tid + 1);
  const auto next_jitter = [&](uint64_t bound_ms) -> uint64_t {
    jitter_state ^= jitter_state << 13;
    jitter_state ^= jitter_state >> 7;
    jitter_state ^= jitter_state << 17;
    return bound_ms == 0 ? 0 : jitter_state % bound_ms;
  };

  Status last_error =
      Status::Unavailable("no donor available for recovery");
  size_t donor_idx = 0;
  std::chrono::milliseconds backoff(5);
  gcs::MemberId prev_donor = gcs::kInvalidMember;
  bool prev_donor_started = false;

  for (size_t attempt = 0; attempt < options_.recovery_max_attempts;
       ++attempt) {
    if (!IsAlive()) return Status::Unavailable("replica crashed");
    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::Unavailable("replica shutting down");
    }
    if (attempt > 0) {
      c_rec_retries_->Increment();
      std::this_thread::sleep_for(
          backoff +
          std::chrono::milliseconds(
              next_jitter(static_cast<uint64_t>(backoff.count()))));
      backoff = std::min(backoff * 2, std::chrono::milliseconds(200));
      if (Clock::now() > deadline()) {
        return Status::TimedOut(
            "recovery deadline exceeded after " + std::to_string(attempt) +
            " attempts; last error: " + last_error.ToString());
      }
    }

    // Donor election: rotate over the other live members of the
    // current view; the index only advances on a donor fault, so a
    // buffer-spill re-anchor keeps its (healthy) donor. Under partial
    // replication, members covering our held partitions (our group
    // peers) come first; non-covering members are candidates only when
    // the caller authorized a partial (bookkeeping-only) donation.
    const cluster::PartitionMap* const pmap = options_.partition_map.get();
    const uint64_t needed_mask =
        (pmap != nullptr && pmap->partial())
            ? pmap->HeldMask(options_.partition_slot)
            : 0;
    std::vector<uint32_t> covering;
    if (needed_mask != 0) covering = pmap->CoveringMembers(needed_mask);
    std::vector<gcs::MemberId> candidates;
    std::vector<gcs::MemberId> partial_donors;
    for (gcs::MemberId member : group_->CurrentView().members) {
      if (member == member_id() || !group_->IsAlive(member)) continue;
      if (needed_mask == 0 ||
          std::find(covering.begin(), covering.end(), member) !=
              covering.end()) {
        candidates.push_back(member);
      } else if (allow_partial) {
        partial_donors.push_back(member);
      }
    }
    candidates.insert(candidates.end(), partial_donors.begin(),
                      partial_donors.end());
    if (candidates.empty()) {
      last_error = Status::Unavailable(
          needed_mask != 0
              ? "no live donor covers this replica's partitions"
              : "no donor available for recovery");
      continue;
    }
    const gcs::MemberId donor = candidates[donor_idx % candidates.size()];
    const uint64_t transfer_id =
        (static_cast<uint64_t>(member_id()) + 1) << 32 |
        (transfer_seq_.fetch_add(1, std::memory_order_relaxed) + 1);

    // Arm the fence for this attempt only: marker, buffer, and spill
    // state of any abandoned attempt are dead from here on. The
    // high-water mark is NOT reset — spills escalate it across attempts
    // (see OnDeliver) so re-anchoring converges under sustained load.
    {
      std::lock_guard<std::mutex> lock(buffer_mu_);
      fence_seen_ = false;
      buffered_.clear();
      buffer_spilled_ = false;
      spill_enabled_ = true;
      current_transfer_id_ = transfer_id;
      g_rec_buffered_msgs_->Set(0);
    }

    auto channel = std::make_shared<RecoveryChannel>();
    RecoveryRequest request;
    request.requester = member_id();
    request.donor = donor;
    request.from_tid = from_tid;
    request.transfer_id = transfer_id;
    request.needed_mask = needed_mask;
    request.allow_partial = allow_partial;
    request.cursor = progress.cursor;
    request.channel = channel;
    auto payload =
        std::make_shared<const RecoveryRequest>(std::move(request));
    Status mc =
        group_->Multicast(member_id(), kRecoveryRequestType, payload);
    if (!mc.ok()) return mc;
    if (prev_donor != gcs::kInvalidMember && donor != prev_donor &&
        prev_donor_started) {
      c_rec_donor_switches_->Increment();
      flight_.Record(obs::FlightEventType::kRecovery, member_id(),
                     transfer_id, donor, "donor_switch");
    } else {
      flight_.Record(obs::FlightEventType::kRecovery, member_id(),
                     transfer_id, donor, "request");
    }
    prev_donor = donor;
    prev_donor_started = false;

    bool donor_fault = false;
    bool transfer_done = false;
    bool re_anchor = false;
    auto last_chunk_time = Clock::now();
    while (!transfer_done && !donor_fault && !re_anchor) {
      RecoveryChunk chunk;
      bool got = false;
      bool closed = false;
      {
        std::unique_lock<std::mutex> lock(channel->mu);
        channel->cv.wait_for(lock, std::chrono::milliseconds(25), [&] {
          return !channel->chunks.empty() || channel->closed;
        });
        if (!channel->chunks.empty()) {
          chunk = std::move(channel->chunks.front());
          channel->chunks.pop_front();
          got = true;
        } else {
          closed = channel->closed;
        }
      }
      if (got) channel->cv.notify_all();  // free a producer slot
      if (!got) {
        if (!IsAlive()) return Status::Unavailable("replica crashed");
        if (shutdown_.load(std::memory_order_acquire)) {
          return Status::Unavailable("replica shutting down");
        }
        const auto now = Clock::now();
        if (closed) {
          last_error = Status::Unavailable("donor closed mid-transfer");
          donor_fault = true;
        } else if (!group_->IsAlive(donor)) {
          // View-change fast path: no need to wait out the chunk
          // deadline when the group already expelled the donor.
          last_error = Status::Unavailable("donor crashed mid-transfer");
          donor_fault = true;
        } else if (now - last_chunk_time > kRecoveryChunkTimeout) {
          last_error = Status::TimedOut("donor stalled mid-transfer");
          donor_fault = true;
        } else if (now > deadline()) {
          return Status::TimedOut("recovery deadline exceeded");
        }
        continue;
      }
      last_chunk_time = Clock::now();
      if (chunk.transfer_id != transfer_id) continue;  // stale attempt
      if (!chunk.status.ok()) {
        last_error = chunk.status;
        const StatusCode code = chunk.status.code();
        if (code != StatusCode::kUnavailable &&
            code != StatusCode::kNotSupported &&
            code != StatusCode::kTimedOut) {
          return chunk.status;  // hard error: config or replay failure
        }
        donor_fault = true;
        continue;
      }
      prev_donor_started = true;
      total_bytes += chunk.approx_bytes;
      c_rec_chunks_received_->Increment();
      c_rec_bytes_received_->Add(static_cast<uint64_t>(chunk.approx_bytes));
      SIREP_RETURN_IF_ERROR(ApplyRecoveryChunk(chunk, &progress));
      // A buffer spill invalidated this marker: re-anchor at a fresh
      // one. The cursor keeps everything already applied, so the retry
      // transfers only the tail.
      {
        std::lock_guard<std::mutex> lock(buffer_mu_);
        if (buffer_spilled_) {
          last_error =
              Status::Unavailable("recovery buffer spilled; re-anchoring");
          re_anchor = true;
          continue;
        }
      }
      if (chunk.final_chunk) {
        if (!progress.have_meta) {
          last_error = Status::Unavailable("donor stream missing meta");
          donor_fault = true;
          continue;
        }
        transfer_done = true;
      }
    }
    if (!transfer_done) {
      // Tell a still-running streamer to quit, then rotate donors on a
      // fault (a re-anchor keeps the same, healthy donor).
      {
        std::lock_guard<std::mutex> lock(channel->mu);
        channel->abandoned = true;
      }
      channel->cv.notify_all();
      if (donor_fault) ++donor_idx;
      continue;
    }

    // Final chunk received. Wait for our own marker: the donor
    // snapshotted at its delivery of the request, and our delivery
    // thread may still be catching up to that position in the total
    // order — adopting before the fence is armed would double-validate
    // the pre-marker messages it is about to buffer. Then atomically
    // confirm no spill raced the transfer tail and disable further
    // spills for the drain.
    bool fence_ok = false;
    {
      std::unique_lock<std::mutex> lock(buffer_mu_);
      buffer_cv_.wait_until(lock, deadline(), [&] {
        return fence_seen_ || buffer_spilled_ ||
               shutdown_.load(std::memory_order_acquire) || !IsAlive();
      });
      if (buffer_spilled_) {
        last_error =
            Status::Unavailable("recovery buffer spilled; re-anchoring");
      } else if (fence_seen_) {
        spill_enabled_ = false;
        fence_ok = true;
      }
    }
    if (!IsAlive()) return Status::Unavailable("replica crashed");
    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::Unavailable("replica shutting down");
    }
    if (!fence_ok) {
      if (Clock::now() > deadline()) {
        return Status::TimedOut("recovery marker never delivered");
      }
      continue;  // spilled: re-anchor with the same donor
    }

    SIREP_ILOG << "replica " << member_id() << " recovered via transfer "
               << transfer_id << ": " << progress.adopted_log.size()
               << " log entries, " << progress.cursor.tables_done.size()
               << " tables copied, resuming validation at tid "
               << progress.lastvalidated;

    // Phase 2: adopt the donor's validation state so our future
    // decisions match every other replica's, and teach the hole
    // tracker the committed prefix so a later restart of *this*
    // replica recovers incrementally instead of forcing a full copy.
    {
      std::lock_guard<std::mutex> lock(wsmutex_);
      lastvalidated_tid_ = progress.lastvalidated;
      ws_index_.Load(progress.ws_window);
      ws_log_.clear();
      for (auto& [tid, entry] : progress.adopted_log) {
        ws_log_.push_back(std::move(entry));
      }
      while (ws_log_.size() > options_.ws_log_capacity) {
        ws_log_.pop_front();
      }
    }
    holes_.AdoptCommittedPrefix(progress.lastvalidated);
    flight_.Record(obs::FlightEventType::kRecovery, member_id(),
                   transfer_id, progress.lastvalidated, "cutover");

    // Phase 3: drain the buffered post-marker messages through normal
    // validation. First a few passes without blocking delivery (bulk
    // of the backlog); then a final pass holding buffer_mu_, during
    // which the delivery thread briefly blocks — that makes the flip
    // to live atomic and bounds the drain even under heavy concurrent
    // traffic.
    for (int pass = 0; pass < 16; ++pass) {
      std::vector<gcs::Message> batch;
      {
        std::lock_guard<std::mutex> lock(buffer_mu_);
        if (buffered_.size() < 64) break;
        batch.swap(buffered_);
      }
      for (const auto& buffered_message : batch) {
        if (buffered_message.type == kDdlMessageType) {
          ProcessDdl(buffered_message);
        } else {
          ProcessWriteSet(buffered_message);
        }
      }
    }
    {
      std::unique_lock<std::mutex> lock(buffer_mu_);
      while (!buffered_.empty()) {
        std::vector<gcs::Message> batch;
        batch.swap(buffered_);
        // Intentionally processed under buffer_mu_: new deliveries wait.
        for (const auto& buffered_message : batch) {
          if (buffered_message.type == kDdlMessageType) {
            ProcessDdl(buffered_message);
          } else {
            ProcessWriteSet(buffered_message);
          }
        }
      }
      delivery_mode_ = DeliveryMode::kLive;
      g_rec_buffered_msgs_->Set(0);
    }
    accepting_.store(true, std::memory_order_release);
    // Live now: publish the slot binding so senders may start shipping
    // us header-only frames for partitions we do not hold.
    if (options_.partition_map != nullptr) {
      options_.partition_map->BindSlot(options_.partition_slot,
                                       member_id());
    }
    flight_.Record(obs::FlightEventType::kRecovery, member_id(),
                   transfer_id, progress.lastvalidated, "complete");
    SIREP_ILOG << "replica " << member_id() << " recovery complete";
    return Status::OK();
  }
  // Attempts exhausted: by construction last_error is retryable
  // (kUnavailable or kTimedOut) — the caller can back off and re-enter.
  return last_error;
}

void SrcaRepReplica::JoinStreamers() {
  std::vector<std::thread> streamers;
  {
    std::lock_guard<std::mutex> lock(streamers_mu_);
    streamers.swap(streamers_);
  }
  for (auto& streamer : streamers) {
    if (streamer.joinable()) streamer.join();
  }
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
  if (it == outcomes_.end()) return TxnOutcome::kUnknown;
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
  // Retract the routing binding first: a dead member must not keep
  // influencing strip sets or covering-donor election.
  if (options_.partition_map != nullptr &&
      member_id() != gcs::kInvalidMember) {
    options_.partition_map->UnbindMember(member_id());
  }
  group_->Crash(member_id());
  // Release clients blocked waiting for holes to close — those commits
  // will never happen now — and quiescence waiters watching our queue,
  // plus a Recover() caller waiting on its marker fence.
  holes_.Cancel();
  tocommit_queue_.Poke();
  buffer_cv_.notify_all();
  // Fail every in-flight local commit: their clients will run in-doubt
  // resolution against another replica.
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
    std::lock_guard<std::mutex> plock(pending_ddl_mu_);
    for (auto& [gid, p] : pending_ddl_) {
      std::lock_guard<std::mutex> lock(p->mu);
      p->cv.notify_all();  // waiters re-check IsAlive and bail out
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
  if (options_.partition_map != nullptr &&
      member_id() != gcs::kInvalidMember) {
    options_.partition_map->UnbindMember(member_id());
  }
  holes_.SetChangeListener(nullptr);
  holes_.Cancel();
  tocommit_queue_.Poke();
  pipeline_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    outcomes_cv_.notify_all();
  }
  // Release a Recover() caller waiting on the fence, then collect any
  // donor streamer threads (they observe shutdown_ within one wait
  // slice).
  buffer_cv_.notify_all();
  JoinStreamers();
}

SrcaRepReplica::Stats SrcaRepReplica::stats() const {
  Stats out;
  out.committed = c_committed_->Value();
  out.empty_ws_commits = c_empty_ws_commits_->Value();
  out.local_val_aborts = c_local_val_aborts_->Value();
  out.global_val_aborts = c_global_val_aborts_->Value();
  out.remote_discards = c_remote_discards_->Value();
  out.apply_retries = c_apply_retries_->Value();
  out.holes = holes_.stats();
  return out;
}

SrcaRepReplica::Health SrcaRepReplica::GetHealth() const {
  Health h;
  if (!IsAlive()) {
    h.role = "crashed";
  } else if (shutdown_.load(std::memory_order_acquire)) {
    h.role = "shutdown";
  } else if (!accepting_.load(std::memory_order_acquire)) {
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
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"role\":\"%s\",\"mode\":\"%s\",\"member_id\":%u,"
                "\"view_id\":%llu,\"view_members\":%zu,"
                "\"stable_prefix\":%llu,\"tocommit_depth\":%zu,"
                "\"applier_threads\":%zu,\"held_partitions\":%lld}",
                h.role.c_str(), h.mode.c_str(), h.member_id,
                static_cast<unsigned long long>(h.view_id), h.view_members,
                static_cast<unsigned long long>(h.stable_prefix),
                h.tocommit_depth, h.applier_threads,
                static_cast<long long>(h.held_partitions));
  return buf;
}

}  // namespace sirep::middleware
