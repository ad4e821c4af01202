#include "middleware/state_transfer.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_name.h"

namespace sirep::middleware {

namespace {

/// Donor silence longer than this counts as a donor fault: the attempt
/// ends, and the next one asks the next donor. A transfer that keeps
/// sending is never cut off, however large.
constexpr std::chrono::milliseconds kRecoveryChunkTimeout{2000};

/// Bound on the wait for our own marker after the final chunk. Our
/// delivery thread drops every pre-marker message while recovering, so
/// the marker normally follows the donor's delivery of it closely.
constexpr std::chrono::milliseconds kRecoveryMarkerTimeout{10000};

}  // namespace

/// Bounded chunk queue between the donor's streamer thread and the
/// recoverer. Like the request it rides the in-process stash, so it
/// works on every transport (all replicas share the process).
struct StateTransfer::Channel {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<RecoveryChunk> chunks;
  size_t capacity = 4;     ///< producer backpressure bound
  bool closed = false;     ///< donor finished, refused, or died
  bool abandoned = false;  ///< recoverer moved on; streamer must quit

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }

  /// Reports `status` to the recoverer and closes the stream. The error
  /// chunk bypasses the capacity bound (at most one extra entry) so a
  /// failure is always reported.
  void Fail(Status status) {
    RecoveryChunk chunk;
    chunk.status = std::move(status);
    {
      std::lock_guard<std::mutex> lock(mu);
      chunks.push_back(std::move(chunk));
      closed = true;
    }
    cv.notify_all();
  }
};

/// The recovery marker's payload.
struct StateTransfer::Request {
  gcs::MemberId requester = gcs::kInvalidMember;
  gcs::MemberId donor = gcs::kInvalidMember;
  uint64_t from_tid = 0;
  uint64_t transfer_id = 0;
  std::shared_ptr<Channel> channel;
};

/// Donor-side donation plan, read at the marker; a streamer thread
/// materializes it into chunks off the delivery thread (the dump
/// transaction pins the marker-consistent MVCC snapshot, so lazy table
/// scans still observe marker state).
struct StateTransfer::DonorPlan {
  TransferMeta meta;
  std::vector<WsLogEntry> log_suffix;
  std::vector<std::string> tables;  ///< tables to dump (full copy)
  storage::TransactionPtr dump_txn;
  std::shared_ptr<Channel> channel;
};

StateTransfer::StateTransfer(StateTransferHost* host, gcs::Group* group,
                             const ReplicaOptions& options,
                             obs::MetricsRegistry* registry,
                             obs::FlightRecorder* flight)
    : host_(host),
      group_(group),
      options_(options),
      flight_(flight),
      live_(!options.start_recovering),
      buffer_hwm_(options.recovery_buffer_high_water),
      c_chunks_sent_(registry->GetCounter("mw.recovery.chunks_sent")),
      c_bytes_sent_(registry->GetCounter("mw.recovery.bytes_sent")),
      c_chunks_received_(registry->GetCounter("mw.recovery.chunks_received")),
      c_bytes_received_(registry->GetCounter("mw.recovery.bytes_received")),
      c_retries_(registry->GetCounter("mw.recovery.retries")),
      c_donor_switches_(registry->GetCounter("mw.recovery.donor_switches")),
      c_buffer_spills_(registry->GetCounter("mw.recovery.buffer_spills")),
      g_buffered_msgs_(registry->GetGauge("mw.recovery.buffered_msgs")) {}

StateTransfer::~StateTransfer() { Stop(); }

bool StateTransfer::Buffer(const gcs::Message& message) {
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (live_.load(std::memory_order_relaxed)) return false;
  // Before our own recovery marker the donor's stream covers the
  // message; after it, we replay it ourselves once caught up.
  if (!fence_seen_) return true;
  buffered_.push_back(message);
  const size_t depth = buffered_.size();
  g_buffered_msgs_->Set(static_cast<int64_t>(depth));
  if (spill_enabled_ && depth >= buffer_hwm_) {
    // Backpressure: instead of growing without bound under heavy live
    // traffic, drop the buffer and the fence wholesale. The recoverer
    // observes buffer_spilled_ and ends the attempt; the next one
    // anchors at a fresh marker whose donation covers everything dropped
    // here — nothing is lost, the transfer is repeated. Each spill
    // doubles the allowance for the next attempt: under sustained
    // delivery pressure a fixed mark could spill every attempt forever,
    // so the bound escalates until one transfer outruns the live stream
    // (memory stays bounded — the mark at most doubles per attempt, and
    // the caller caps the attempts).
    buffered_.clear();
    fence_seen_ = false;
    buffer_spilled_ = true;
    buffer_hwm_ *= 2;
    c_buffer_spills_->Increment();
    g_buffered_msgs_->Set(0);
    flight_->Record(obs::FlightEventType::kQueueHighWater, host_->member_id(),
                    depth, buffer_hwm_, "mw.recovery.buffer");
    flight_->Record(obs::FlightEventType::kRecovery, host_->member_id(),
                    current_transfer_id_, depth, "buffer_spill");
    buffer_cv_.notify_all();
  }
  return true;
}

void StateTransfer::OnMarker(const gcs::Message& message) {
  const auto* req = message.As<Request>();
  if (req->requester == host_->member_id()) {
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
  if (req->donor == host_->member_id() && req->channel != nullptr) {
    Donate(*req);
  }
}

void StateTransfer::Donate(const Request& req) {
  Channel& channel = *req.channel;
  if (!host_->IsRunning() || !live()) {
    // A replica that is itself recovering (or shutting down) has stale
    // state and must not donate.
    channel.Fail(Status::Unavailable("chosen donor is not live"));
    return;
  }
  auto plan = std::make_shared<DonorPlan>();
  plan->channel = req.channel;
  TransferMeta& meta = plan->meta;

  // Snapshot the donation plan exactly at the marker point of the total
  // order (we are in the marker's delivery callback, and callbacks run in
  // order, so every earlier message has been fully validated).
  Status refused;
  host_->ReadValidationState([&](const ValidationView& state) {
    meta.lastvalidated = state.lastvalidated;
    meta.ws_window = state.ws_index.Snapshot();
    // Oldest tid the log still holds; an empty one holds nothing up to
    // lastvalidated. (A bootstrapped replica has lastvalidated > 0 with
    // an empty log, so an empty log must not count as reaching
    // everything, or the requester would silently skip the suffix and
    // diverge.)
    const uint64_t log_front = state.log.empty() ? state.lastvalidated + 1
                                                 : state.log.front().tid;
    uint64_t log_floor = req.from_tid;
    if (log_floor + 1 < log_front) {
      // The log no longer reaches back to the requester's prefix: fall
      // back to a full-state transfer (the paper's "complete database
      // copy", done online at the marker). The copy includes every
      // commit up to our stable prefix; the log after it covers the
      // validated-but-uncommitted remainder (idempotent to re-apply).
      // The refusal below also keeps that prefix above from_tid, so the
      // rows of a copy abandoned halfway hold every commit up to
      // from_tid, and the requester's next attempt may start from
      // from_tid again (DESIGN.md §7.8).
      if (state.stable_prefix + 1 < log_front) {
        refused = Status::Internal(
            "writeset log smaller than the commit pipeline; increase "
            "ws_log_capacity");
        return;
      }
      meta.full_copy = true;
      log_floor = state.stable_prefix;
      plan->tables = host_->db()->engine().TableNames();
      plan->dump_txn = host_->db()->Begin();
    }
    for (const auto& entry : state.log) {
      if (entry.tid > log_floor) plan->log_suffix.push_back(entry);
    }
  });
  if (!refused.ok()) {
    channel.Fail(std::move(refused));
    return;
  }
  flight_->Record(obs::FlightEventType::kRecovery, host_->member_id(),
                  req.transfer_id, req.requester, "donate");
  std::lock_guard<std::mutex> lock(streamers_mu_);
  if (stopped_) {
    if (plan->dump_txn != nullptr) host_->db()->Abort(plan->dump_txn);
    channel.Fail(Status::Unavailable("donor shutting down"));
    return;
  }
  streamers_.emplace_back([this, plan] { Stream(std::move(plan)); });
  NameThread(streamers_.back(),
             "donor/" + std::to_string(host_->member_id()));
}

void StateTransfer::Stream(std::shared_ptr<DonorPlan> plan) {
  Channel& channel = *plan->channel;
  engine::Database* const db = host_->db();
  // Abort the dump snapshot whichever way this thread exits.
  struct DumpGuard {
    engine::Database* db;
    storage::TransactionPtr txn;
    ~DumpGuard() {
      if (txn != nullptr) db->Abort(txn);
    }
  } dump_guard{db, plan->dump_txn};

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
    const size_t bytes = chunk.approx_bytes;
    {
      std::unique_lock<std::mutex> lock(channel.mu);
      while (channel.chunks.size() >= channel.capacity && !channel.abandoned) {
        if (!host_->IsRunning()) return false;
        channel.cv.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (channel.abandoned) return false;
      channel.chunks.push_back(std::move(chunk));
    }
    channel.cv.notify_all();
    c_chunks_sent_->Increment();
    c_bytes_sent_->Add(bytes);
    // Crash *after* the chunk is out: the recoverer observes a genuine
    // partial transfer and must fail over to another donor.
    if (SIREP_FAILPOINT_HIT("mw.recovery.donor_crash_mid_transfer").fired) {
      channel.Close();
      host_->Crash();
      silent_stop = true;  // channel already closed
      return false;
    }
    return true;
  };

  RecoveryChunk meta;
  meta.approx_bytes = 64 + plan->meta.ws_window.size() * 128;
  meta.meta = std::move(plan->meta);
  bool ok = send(std::move(meta));
  // Table dumps (full copy), one table at a time: streamer memory is
  // bounded by the largest table, not the whole database.
  const size_t chunk_rows = options_.recovery_chunk_rows;
  for (size_t t = 0; ok && t < plan->tables.size(); ++t) {
    const std::string& table = plan->tables[t];
    storage::MvccTable* mvcc = db->engine().GetTable(table);
    if (mvcc == nullptr) continue;
    const sql::Schema schema = mvcc->schema();
    std::vector<sql::Row> rows;
    Status scan = db->engine().Scan(
        plan->dump_txn, table,
        [&](const sql::Key&, const sql::Row& row) { rows.push_back(row); });
    if (!scan.ok()) {
      channel.Fail(std::move(scan));
      return;
    }
    size_t offset = 0;
    do {
      const size_t n = std::min(chunk_rows, rows.size() - offset);
      RecoveryChunk chunk;
      chunk.table = table;
      chunk.schema = schema;
      chunk.table_begin = offset == 0;
      chunk.table_complete = offset + n == rows.size();
      chunk.rows.assign(rows.begin() + static_cast<long>(offset),
                        rows.begin() + static_cast<long>(offset + n));
      chunk.approx_bytes = 32 + chunk.rows.size() * 64;
      offset += n;
      ok = send(std::move(chunk));
    } while (ok && offset < rows.size());
  }
  // Log suffix.
  const auto& log = plan->log_suffix;
  for (size_t offset = 0; ok && offset < log.size(); offset += chunk_rows) {
    const size_t n = std::min(chunk_rows, log.size() - offset);
    RecoveryChunk chunk;
    chunk.log.assign(log.begin() + static_cast<long>(offset),
                     log.begin() + static_cast<long>(offset + n));
    chunk.approx_bytes = chunk.log.size() * 160;
    ok = send(std::move(chunk));
  }
  if (ok) {
    RecoveryChunk fin;
    fin.final_chunk = true;
    send(std::move(fin));
  }
  if (!silent_stop) channel.Close();
}

Status StateTransfer::ReplayLogEntry(const WsLogEntry& entry) {
  engine::Database* const db = host_->db();
  if (!entry.ddl.empty()) {
    // Replicated DDL at this position. AlreadyExists is fine (a
    // restarted replica's schema survived the crash, or the full copy or
    // an abandoned attempt already created it).
    auto r = db->ExecuteAutoCommit(entry.ddl);
    if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
      return Status::Internal("recovery DDL replay failed: " +
                              r.status().ToString());
    }
    return Status::OK();
  }
  while (true) {
    auto txn = db->Begin();
    Status st = db->ApplyWriteSet(txn, *entry.ws);
    if (st.ok()) st = db->Commit(txn);
    if (st.ok()) break;
    db->Abort(txn);
    if (!st.IsTransactionFailure()) {
      return Status::Internal("recovery replay failed at tid " +
                              std::to_string(entry.tid) + ": " +
                              st.ToString());
    }
  }
  host_->MarkLocallyCommitted(entry.gid);
  return Status::OK();
}

Status StateTransfer::ApplyChunk(const RecoveryChunk& chunk,
                                 RecoveryProgress* progress) {
  if (chunk.meta.has_value()) {
    progress->meta = chunk.meta;
    return Status::OK();
  }
  if (chunk.final_chunk) return Status::OK();

  engine::Database* const db = host_->db();
  if (!chunk.table.empty()) {
    // Full-copy table rows: overwrite every dumped row; at
    // table_complete delete everything local the donor no longer has.
    storage::MvccTable* table = db->engine().GetTable(chunk.table);
    if (chunk.table_begin) {
      if (table == nullptr) {
        // The table was created via replicated DDL we never saw: create
        // it from the shipped schema.
        SIREP_RETURN_IF_ERROR(
            db->engine().CreateTable(chunk.table, chunk.schema));
        table = db->engine().GetTable(chunk.table);
      }
      progress->table_active = true;
      progress->table = chunk.table;
      progress->leftover_keys.clear();
      auto view_txn = db->Begin();
      Status scan = db->engine().Scan(
          view_txn, chunk.table, [&](const sql::Key& key, const sql::Row&) {
            progress->leftover_keys.insert(key);
          });
      db->Abort(view_txn);
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
      for (const auto& key : progress->leftover_keys) {
        sync.Record({chunk.table, key}, storage::WriteOp::kDelete, {});
      }
    }
    if (!sync.empty()) {
      auto txn = db->Begin();
      Status st = db->ApplyWriteSet(txn, sync);
      if (st.ok()) st = db->Commit(txn);
      if (!st.ok()) {
        db->Abort(txn);
        return Status::Internal("full-copy import failed for table '" +
                                chunk.table + "': " + st.ToString());
      }
    }
    if (chunk.table_complete) {
      progress->table_active = false;
      progress->leftover_keys.clear();
    }
    return Status::OK();
  }

  // Log entries: replay every one in tid order (nobody else touches this
  // DB — no clients, no appliers — and re-applying writesets a previous
  // incarnation or an abandoned attempt committed is idempotent), and
  // record it for adoption.
  for (const auto& entry : chunk.log) {
    SIREP_RETURN_IF_ERROR(ReplayLogEntry(entry));
    progress->adopted_log.push_back(entry);
  }
  return Status::OK();
}

Status StateTransfer::Recover(uint64_t from_tid) {
  const auto stopped = [] {
    return Status::Unavailable("replica crashed or shut down");
  };
  if (!host_->IsRunning()) return stopped();
  if (live()) {
    return Status::InvalidArgument(
        "Recover() requires start_recovering = true");
  }
  const gcs::MemberId self = host_->member_id();
  if (attempts_++ > 0) c_retries_->Increment();

  // Donor election: rotate over the other live members of the current
  // view — under partial replication exactly our holder-group peers,
  // since each group is its own gcs::Group.
  std::vector<gcs::MemberId> candidates;
  for (gcs::MemberId member : group_->CurrentView().members) {
    if (member != self && group_->IsAlive(member)) {
      candidates.push_back(member);
    }
  }
  if (candidates.empty()) {
    return Status::Unavailable("no donor available for recovery");
  }
  const gcs::MemberId donor = candidates[donor_idx_ % candidates.size()];
  const uint64_t transfer_id =
      (static_cast<uint64_t>(self) + 1) << 32 |
      (transfer_seq_.fetch_add(1, std::memory_order_relaxed) + 1);

  // Arm the fence for this attempt only. The high-water mark is NOT
  // reset — spills escalate it across attempts (see Buffer()).
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    fence_seen_ = false;
    buffered_.clear();
    buffer_spilled_ = false;
    spill_enabled_ = true;
    current_transfer_id_ = transfer_id;
    g_buffered_msgs_->Set(0);
  }
  auto channel = std::make_shared<Channel>();
  // However this attempt ends: a still-running streamer quits, and
  // unless we went live, nothing buffers until the next attempt's
  // marker (a late marker of this one must not re-arm the fence).
  struct EndAttempt {
    StateTransfer* self;
    Channel* channel;
    ~EndAttempt() {
      {
        std::lock_guard<std::mutex> lock(channel->mu);
        channel->abandoned = true;
      }
      channel->cv.notify_all();
      std::lock_guard<std::mutex> lock(self->buffer_mu_);
      if (self->live_.load(std::memory_order_relaxed)) return;
      self->fence_seen_ = false;
      self->current_transfer_id_ = 0;
      self->buffered_.clear();
      self->g_buffered_msgs_->Set(0);
    }
  } end_attempt{this, channel.get()};

  auto request = std::make_shared<Request>();
  request->requester = self;
  request->donor = donor;
  request->from_tid = from_tid;
  request->transfer_id = transfer_id;
  request->channel = channel;
  SIREP_RETURN_IF_ERROR(
      group_->Multicast(self, kRecoveryRequestType, std::move(request)));
  flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id, donor,
                  "request");

  const auto spilled = [this] {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    return buffer_spilled_;
  };
  const Status spill =
      Status::Unavailable("recovery buffer spilled; re-anchoring");
  RecoveryProgress progress;
  Status donor_fault;
  bool started = false;
  auto last_chunk_time = std::chrono::steady_clock::now();
  while (true) {
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
    if (!got) {
      if (!host_->IsRunning()) return stopped();
      if (closed) {
        donor_fault = Status::Unavailable("donor closed mid-transfer");
      } else if (!group_->IsAlive(donor)) {
        // View-change fast path: no need to wait out the chunk timeout
        // when the group already expelled the donor.
        donor_fault = Status::Unavailable("donor crashed mid-transfer");
      } else if (std::chrono::steady_clock::now() - last_chunk_time >
                 kRecoveryChunkTimeout) {
        donor_fault = Status::TimedOut("donor stalled mid-transfer");
      } else {
        continue;
      }
      break;
    }
    channel->cv.notify_all();  // free a producer slot
    last_chunk_time = std::chrono::steady_clock::now();
    if (!chunk.status.ok()) {
      // A refusal or fault of this donor is retryable; anything else
      // (a log too small to donate, a failed table scan) is not.
      if (!RecoveryRetryable(chunk.status)) return chunk.status;
      donor_fault = chunk.status;
      break;
    }
    started = true;
    c_chunks_received_->Increment();
    c_bytes_received_->Add(static_cast<uint64_t>(chunk.approx_bytes));
    SIREP_RETURN_IF_ERROR(ApplyChunk(chunk, &progress));
    // A buffer spill invalidated this marker: the next attempt anchors
    // at a fresh one, with the same (healthy) donor.
    if (spilled()) return spill;
    if (chunk.final_chunk) {
      if (!progress.meta.has_value()) {
        donor_fault = Status::Unavailable("donor stream missing meta");
      }
      break;
    }
  }
  if (!donor_fault.ok()) {
    ++donor_idx_;
    if (started) {
      c_donor_switches_->Increment();
      flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                      donor, "donor_switch");
    }
    return donor_fault;
  }

  // Final chunk received. Wait for our own marker: the donor
  // snapshotted at its delivery of the request, and our delivery
  // thread may still be catching up to that position in the total
  // order — adopting before the fence is armed would double-validate
  // the pre-marker messages it is about to buffer. Then atomically
  // confirm no spill raced the transfer tail and disable further
  // spills for the drain.
  {
    std::unique_lock<std::mutex> lock(buffer_mu_);
    buffer_cv_.wait_for(lock, kRecoveryMarkerTimeout, [&] {
      return fence_seen_ || buffer_spilled_ || !host_->IsRunning();
    });
    if (!host_->IsRunning()) return stopped();
    if (buffer_spilled_) return spill;
    if (!fence_seen_) {
      return Status::TimedOut("recovery marker never delivered");
    }
    spill_enabled_ = false;
  }

  const TransferMeta& meta = *progress.meta;
  SIREP_ILOG << "replica " << self << " recovered via transfer "
             << transfer_id << " from donor " << donor << ": "
             << (meta.full_copy ? "full copy and " : "")
             << progress.adopted_log.size()
             << " log entries, resuming validation at tid "
             << meta.lastvalidated;

  // Phase 2: adopt the donor's validation state so our future
  // decisions match every other replica's, and the committed prefix
  // so a later restart of *this* replica recovers incrementally
  // instead of forcing a full copy.
  host_->AdoptValidationState(meta.lastvalidated, meta.ws_window,
                              std::move(progress.adopted_log));
  flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                  meta.lastvalidated, "cutover");

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
    for (const auto& message : batch) host_->ProcessDelivery(message);
  }
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    while (!buffered_.empty()) {
      std::vector<gcs::Message> batch;
      batch.swap(buffered_);
      // Intentionally processed under buffer_mu_: new deliveries wait.
      for (const auto& message : batch) host_->ProcessDelivery(message);
    }
    live_.store(true, std::memory_order_release);
    g_buffered_msgs_->Set(0);
  }
  flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                  meta.lastvalidated, "complete");
  SIREP_ILOG << "replica " << self << " recovery complete";
  return Status::OK();
}

void StateTransfer::Interrupt() {
  // Without buffer_mu_: a crash can strike inside Recover()'s final
  // drain, which redelivers while holding it.
  buffer_cv_.notify_all();
}

void StateTransfer::Stop() {
  std::vector<std::thread> streamers;
  {
    std::lock_guard<std::mutex> lock(streamers_mu_);
    stopped_ = true;
    streamers.swap(streamers_);
  }
  Interrupt();
  for (auto& streamer : streamers) {
    if (streamer.joinable()) streamer.join();
  }
}

}  // namespace sirep::middleware
