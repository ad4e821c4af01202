#include "middleware/state_transfer.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "common/failpoint.h"
#include "common/logging.h"

namespace sirep::middleware {

namespace {

/// Silence of a live donor longer than this, before its plan arrives,
/// counts as a donor fault: the attempt ends, and the next one asks the
/// next donor.
constexpr std::chrono::milliseconds kRecoveryPlanTimeout{2000};

/// How often the wait for a plan checks that the donor is still in the
/// view: a donor that crashes before its marker never answers.
constexpr std::chrono::milliseconds kDonorPollInterval{25};

/// Bound on the wait for our own marker after the copy. Our delivery
/// thread drops every pre-marker message while recovering, so the
/// marker normally follows the donor's delivery of it closely.
constexpr std::chrono::milliseconds kRecoveryMarkerTimeout{10000};

Status Stopped() {
  return Status::Unavailable("replica crashed or shut down");
}

}  // namespace

void PlanHandoff::Post(Result<DonorPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  // Once the recoverer gave up, `plan` dies with this call, which
  // releases its snapshot.
  if (abandoned_) return;
  plan_.emplace(std::move(plan));
  cv_.notify_all();
}

std::optional<Result<DonorPlan>> PlanHandoff::Take(
    std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return plan_.has_value(); });
  std::optional<Result<DonorPlan>> taken = std::move(plan_);
  plan_.reset();
  return taken;
}

void PlanHandoff::Abandon() {
  std::lock_guard<std::mutex> lock(mu_);
  abandoned_ = true;
  plan_.reset();  // a plan posted but never taken
}

/// The recovery marker's payload. Like every payload without a codec it
/// rides the group's in-process stash, so the hand-off works on every
/// transport (all replicas share the process).
struct StateTransfer::Request {
  gcs::MemberId requester = gcs::kInvalidMember;
  gcs::MemberId donor = gcs::kInvalidMember;
  uint64_t from_tid = 0;
  uint64_t transfer_id = 0;
  std::shared_ptr<PlanHandoff> handoff;
};

StateTransfer::StateTransfer(StateTransferHost* host, gcs::Group* group,
                             const ReplicaOptions& options,
                             obs::MetricsRegistry* registry,
                             obs::FlightRecorder* flight)
    : host_(host),
      group_(group),
      flight_(flight),
      live_(!options.start_recovering),
      buffer_hwm_(options.recovery_buffer_high_water),
      c_batches_applied_(registry->GetCounter("mw.recovery.chunks_received")),
      c_retries_(registry->GetCounter("mw.recovery.retries")),
      c_donor_switches_(registry->GetCounter("mw.recovery.donor_switches")),
      c_buffer_spills_(registry->GetCounter("mw.recovery.buffer_spills")),
      g_buffered_msgs_(registry->GetGauge("mw.recovery.buffered_msgs")) {}

bool StateTransfer::Buffer(const gcs::Message& message) {
  // live_ turns true once, under buffer_mu_, after the drain: a delivery
  // that reads it true comes after every buffered message.
  if (live_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (live_.load(std::memory_order_relaxed)) return false;
  // Before our own recovery marker the donor's plan covers the message;
  // after it, we replay it ourselves once caught up.
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
    // replay; everything before is covered by the donor's plan. Only
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
  if (req->donor == host_->member_id()) Donate(*req);
}

void StateTransfer::Donate(const Request& req) {
  PlanHandoff& handoff = *req.handoff;
  if (!host_->IsRunning() || !live()) {
    // A replica that is itself recovering (or shutting down) has stale
    // state and must not donate.
    handoff.Post(Status::Unavailable("chosen donor is not live"));
    return;
  }
  DonorPlan plan;
  plan.donor = host_;
  plan.replay_after = req.from_tid;

  // Read the donation plan exactly at the marker point of the total
  // order (we are in the marker's delivery callback, and callbacks run in
  // order, so every earlier message has been fully validated).
  Status refused;
  host_->ReadValidationState([&](const ValidationView& state) {
    const WsLog& log = state.log;
    plan.lastvalidated = log.lastvalidated();
    // Oldest tid the log still holds; an empty one holds nothing up to
    // lastvalidated. (A bootstrapped replica has lastvalidated > 0 with
    // an empty log, so an empty log must not count as reaching
    // everything, or the requester would silently skip what it lacks and
    // diverge.)
    const uint64_t log_front = log.size() == 0 ? log.lastvalidated() + 1
                                               : log.entries().front().tid;
    if (req.from_tid + 1 < log_front) {
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
      plan.full_copy = true;
      plan.replay_after = state.stable_prefix;
      plan.tables = host_->db()->engine().TableNames();
      // Pins the marker-consistent MVCC snapshot the recoverer copies.
      plan.dump_txn = host_->db()->Begin();
    }
    plan.log = log.entries();
  });
  if (!refused.ok()) {
    handoff.Post(std::move(refused));
    return;
  }
  flight_->Record(obs::FlightEventType::kRecovery, host_->member_id(),
                  req.transfer_id, req.requester, "donate");
  handoff.Post(std::move(plan));
}

Result<DonorPlan> StateTransfer::AwaitPlan(PlanHandoff& handoff,
                                           gcs::MemberId donor) {
  const auto deadline =
      std::chrono::steady_clock::now() + kRecoveryPlanTimeout;
  while (true) {
    if (auto plan = handoff.Take(kDonorPollInterval)) return std::move(*plan);
    if (!host_->IsRunning()) return Stopped();
    if (!group_->IsAlive(donor)) {
      return Status::Unavailable("donor crashed before answering");
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::TimedOut("donor never answered the marker");
    }
  }
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
  return Status::OK();
}

Status StateTransfer::CopyTable(const DonorPlan& plan, const std::string& name,
                                const std::function<Status()>& after_batch) {
  storage::StorageEngine& source = plan.donor->db()->engine();
  const storage::MvccTable* donor_table = source.GetTable(name);
  if (donor_table == nullptr) return Status::OK();
  // The donor's rows at its marker, one table at a time: memory is
  // bounded by the largest table.
  std::vector<sql::Row> rows;
  SIREP_RETURN_IF_ERROR(source.Scan(
      plan.dump_txn, name,
      [&](const sql::Key&, const sql::Row& row) { rows.push_back(row); }));

  engine::Database* const db = host_->db();
  if (db->engine().GetTable(name) == nullptr) {
    // A table created by replicated DDL this replica never saw.
    SIREP_RETURN_IF_ERROR(
        db->engine().CreateTable(name, donor_table->schema()));
  }
  const sql::Schema& schema = db->engine().GetTable(name)->schema();
  // Local keys the donor lacks: deleted after the upserts.
  std::set<sql::Key> leftover;
  auto view = db->Begin();
  Status scan = db->engine().Scan(
      view, name,
      [&](const sql::Key& key, const sql::Row&) { leftover.insert(key); });
  db->Abort(view);
  SIREP_RETURN_IF_ERROR(scan);

  storage::WriteSet batch;
  const auto commit = [&]() -> Status {
    auto txn = db->Begin();
    Status st = db->ApplyWriteSet(txn, batch);
    if (st.ok()) st = db->Commit(txn);
    if (!st.ok()) {
      db->Abort(txn);
      return Status::Internal("full-copy import failed for table '" + name +
                              "': " + st.ToString());
    }
    batch.Clear();
    c_batches_applied_->Increment();
    return after_batch();
  };
  for (auto& row : rows) {
    sql::Key key = schema.KeyOf(row);
    leftover.erase(key);
    batch.Record({name, std::move(key)}, storage::WriteOp::kUpdate,
                 std::move(row));
    if (batch.size() == kRecoveryBatchRows) SIREP_RETURN_IF_ERROR(commit());
  }
  for (const auto& key : leftover) {
    batch.Record({name, key}, storage::WriteOp::kDelete, {});
    if (batch.size() == kRecoveryBatchRows) SIREP_RETURN_IF_ERROR(commit());
  }
  if (!batch.empty()) SIREP_RETURN_IF_ERROR(commit());
  return Status::OK();
}

Status StateTransfer::ApplyPlan(const DonorPlan& plan,
                                const std::function<Status()>& after_batch) {
  for (const auto& table : plan.tables) {
    SIREP_RETURN_IF_ERROR(CopyTable(plan, table, after_batch));
  }
  // Replay the entries after the replay point in tid order (nobody else
  // touches this DB — no clients, no appliers — and re-applying
  // writesets a previous incarnation or an abandoned attempt committed
  // is idempotent).
  const auto& log = plan.log;
  auto it = std::partition_point(
      log.begin(), log.end(),
      [&](const WsLogEntry& entry) { return entry.tid <= plan.replay_after; });
  for (size_t replayed = 1; it != log.end(); ++it, ++replayed) {
    SIREP_RETURN_IF_ERROR(ReplayLogEntry(*it));
    if (replayed % kRecoveryBatchRows == 0 || std::next(it) == log.end()) {
      c_batches_applied_->Increment();
      SIREP_RETURN_IF_ERROR(after_batch());
    }
  }
  return Status::OK();
}

Status StateTransfer::Recover(uint64_t from_tid) {
  if (!host_->IsRunning()) return Stopped();
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
  auto handoff = std::make_shared<PlanHandoff>();
  // However this attempt ends: a plan the donor posts from now on is
  // released at once, and unless we went live, nothing buffers until the
  // next attempt's marker (a late marker of this one must not re-arm the
  // fence).
  struct EndAttempt {
    StateTransfer* self;
    PlanHandoff* handoff;
    ~EndAttempt() {
      handoff->Abandon();
      std::lock_guard<std::mutex> lock(self->buffer_mu_);
      if (self->live_.load(std::memory_order_relaxed)) return;
      self->fence_seen_ = false;
      self->current_transfer_id_ = 0;
      self->buffered_.clear();
      self->g_buffered_msgs_->Set(0);
    }
  } end_attempt{this, handoff.get()};

  auto request = std::make_shared<Request>();
  request->requester = self;
  request->donor = donor;
  request->from_tid = from_tid;
  request->transfer_id = transfer_id;
  request->handoff = handoff;
  SIREP_RETURN_IF_ERROR(
      group_->Multicast(self, kRecoveryRequestType, std::move(request)));
  flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id, donor,
                  "request");

  // The plan dies with this frame, aborting its dump transaction.
  Result<DonorPlan> plan = AwaitPlan(*handoff, donor);
  if (!plan.ok()) {
    // A refusal or fault of this donor is retryable, and the next
    // attempt asks the next donor; anything else (a log too small to
    // donate) is not.
    if (RecoveryRetryable(plan.status()) && host_->IsRunning()) ++donor_idx_;
    return plan.status();
  }

  const auto spilled = [this] {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    return buffer_spilled_;
  };
  const Status spill =
      Status::Unavailable("recovery buffer spilled; re-anchoring");
  bool donor_died = false;
  const Status applied = ApplyPlan(
      plan.value(),
      [&]() -> Status {
        // "mw.recovery.stall" stretches the transfer (delay-only hook);
        // "mw.recovery.donor_crash_mid_transfer" kills the donor once
        // part of its plan is applied here.
        SIREP_FAILPOINT_HIT("mw.recovery.stall");
        if (SIREP_FAILPOINT_HIT("mw.recovery.donor_crash_mid_transfer")
                .fired) {
          plan.value().donor->Crash();
        }
        if (!host_->IsRunning()) return Stopped();
        // A buffer spill invalidated this marker: the next attempt
        // anchors at a fresh one, with the same (healthy) donor.
        if (spilled()) return spill;
        if (!group_->IsAlive(donor)) {
          donor_died = true;
          return Status::Unavailable("donor crashed mid-transfer");
        }
        return Status::OK();
      });
  if (donor_died) {
    ++donor_idx_;
    c_donor_switches_->Increment();
    flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                    donor, "donor_switch");
  }
  SIREP_RETURN_IF_ERROR(applied);

  // Wait for our own marker: the donor read its state at its delivery
  // of the request, and our delivery thread may still be catching up to
  // that position in the total order — adopting before the fence is
  // armed would double-validate the pre-marker messages it is about to
  // buffer. Then atomically confirm no spill raced the transfer tail and
  // disable further spills for the drain.
  {
    std::unique_lock<std::mutex> lock(buffer_mu_);
    buffer_cv_.wait_for(lock, kRecoveryMarkerTimeout, [&] {
      return fence_seen_ || buffer_spilled_ || !host_->IsRunning();
    });
    if (!host_->IsRunning()) return Stopped();
    if (buffer_spilled_) return spill;
    if (!fence_seen_) {
      return Status::TimedOut("recovery marker never delivered");
    }
    spill_enabled_ = false;
  }

  DonorPlan& applied_plan = plan.value();
  const uint64_t lastvalidated = applied_plan.lastvalidated;
  SIREP_ILOG << "replica " << self << " recovered via transfer "
             << transfer_id << " from donor " << donor << ": "
             << (applied_plan.full_copy ? "full copy and " : "")
             << "log replay after tid " << applied_plan.replay_after
             << ", resuming validation at tid " << lastvalidated;

  // Phase 2: adopt the donor's whole log, so our future decisions match
  // every other replica's, a later restart of *this* replica recovers
  // incrementally instead of forcing a full copy, and we answer in-doubt
  // inquiries about the logged transactions, and donate as far back, as
  // the donor could.
  host_->AdoptValidationState(lastvalidated, std::move(applied_plan.log));
  flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                  lastvalidated, "cutover");

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
                  lastvalidated, "complete");
  SIREP_ILOG << "replica " << self << " recovery complete";
  return Status::OK();
}

void StateTransfer::Interrupt() {
  // Without buffer_mu_: a crash can strike inside Recover()'s final
  // drain, which redelivers while holding it.
  buffer_cv_.notify_all();
}

}  // namespace sirep::middleware
