#ifndef SIREP_MIDDLEWARE_STATE_TRANSFER_H_
#define SIREP_MIDDLEWARE_STATE_TRANSFER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "gcs/group.h"
#include "middleware/replica_options.h"
#include "middleware/ws_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sirep::middleware {

/// A replica's Fig. 4 validation state as a donor reads it at its marker.
struct ValidationView {
  uint64_t stable_prefix = 0;  ///< every validated tid <= it committed here
  const WsLog& log;
};

/// Everything state transfer needs from the replica it runs in (the
/// `engine_api` idiom: one narrow virtual seam, so a test can drive the
/// module with a fake replica instead of a cluster).
class StateTransferHost {
 public:
  virtual ~StateTransferHost() = default;

  virtual gcs::MemberId member_id() const = 0;
  /// False once the replica crashed or began shutting down.
  virtual bool IsRunning() const = 0;
  virtual engine::Database* db() const = 0;
  /// Crashes this replica; a recoverer calls it on its donor to inject
  /// "mw.recovery.donor_crash_mid_transfer".
  virtual void Crash() = 0;

  /// Donor side, in the delivery callback of the marker: runs `read` with
  /// the validation state held still, so a donation plan and the log it
  /// copies describe one position of the total order.
  virtual void ReadValidationState(
      const std::function<void(const ValidationView&)>& read) = 0;
  /// Recoverer side, once the donor's plan is applied: replaces the
  /// validation state with the donor's log and marks every tid <=
  /// `lastvalidated`, and every logged transaction, committed here.
  virtual void AdoptValidationState(uint64_t lastvalidated,
                                    std::deque<WsLogEntry> log) = 0;
  /// Hands back one buffered post-marker message for normal processing.
  virtual void ProcessDelivery(const gcs::Message& message) = 0;
};

/// What a donor hands the recoverer at the marker: its validation state
/// (its whole writeset log), the replay point after which the recoverer
/// replays that log and, for a full copy, the tables to copy and the dump
/// transaction that pins its marker-consistent snapshot. The recoverer
/// reads the donor's tables through that transaction itself (every
/// replica shares the process). Destroying a plan aborts the dump
/// transaction, so the snapshot is released however an attempt ends.
struct DonorPlan {
  uint64_t lastvalidated = 0;
  std::deque<WsLogEntry> log;
  /// The recoverer's `from_tid`, or the donor's stable prefix for a full
  /// copy: the entries at or below it are in the recoverer's rows already
  /// or, for a full copy, once the tables are copied.
  uint64_t replay_after = 0;
  bool full_copy = false;  ///< the donor's tables are copied before the log
  std::vector<std::string> tables;  ///< full copy only
  /// The donor: its database, read through `dump_txn`, and its crash
  /// hook. Replicas outlive the recoveries they donate to.
  StateTransferHost* donor = nullptr;
  storage::TransactionPtr dump_txn;  ///< full copy only

  DonorPlan() = default;
  DonorPlan(DonorPlan&&) = default;
  DonorPlan& operator=(DonorPlan&&) = delete;
  ~DonorPlan() {
    if (dump_txn != nullptr) donor->db()->Abort(dump_txn);
  }
};

/// One-shot hand-off of a donor's plan, or its refusal, to the recoverer;
/// the recovery marker carries it to the donor. A plan posted after the
/// recoverer gave up is released at once.
class PlanHandoff {
 public:
  /// Donor side, once per marker.
  void Post(Result<DonorPlan> plan);
  /// Recoverer side: waits up to `timeout` for the plan and takes it.
  std::optional<Result<DonorPlan>> Take(std::chrono::milliseconds timeout);
  /// Recoverer side: gives up, releasing a plan posted now or later.
  void Abandon();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Result<DonorPlan>> plan_;
  bool abandoned_ = false;
};

/// Rows (or log entries) the recoverer applies between two checks of
/// its attempt (donor and own liveness, buffer spill).
inline constexpr size_t kRecoveryBatchRows = 512;

/// Message type of the recovery marker multicast in total order.
inline constexpr char kRecoveryRequestType[] = "recovery_request";

/// Recovery's error vocabulary: a donor refusal or fault, a buffer
/// spill or no donor at all fails an attempt with kUnavailable or
/// kTimedOut, and the caller retries; any other status is a hard error.
inline bool RecoveryRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kTimedOut;
}

/// Online state transfer (extension; paper §5.4 / conclusion): a
/// replica that starts recovering buffers its deliveries, multicasts a
/// marker, and catches up from a donor's marker-consistent state while
/// the rest of the cluster keeps committing; a live replica answers a
/// marker that names it with a plan. See DESIGN.md §7.8.
class StateTransfer {
 public:
  /// `host` outlives this object. Starts buffering when
  /// `options.start_recovering`, live otherwise.
  StateTransfer(StateTransferHost* host, gcs::Group* group,
                const ReplicaOptions& options,
                obs::MetricsRegistry* registry, obs::FlightRecorder* flight);

  StateTransfer(const StateTransfer&) = delete;
  StateTransfer& operator=(const StateTransfer&) = delete;

  /// False from construction with `start_recovering` until Recover()
  /// succeeds.
  bool live() const { return live_.load(std::memory_order_acquire); }

  /// Delivery callback, for every writeset and DDL message: true when the
  /// message was taken because this replica is still recovering — it is
  /// buffered past our marker, or dropped before it, where the donor's
  /// plan covers it.
  bool Buffer(const gcs::Message& message);

  /// Delivery callback, for every kRecoveryRequestType message: arms the
  /// fence at our own marker, or donates when the marker names us.
  void OnMarker(const gcs::Message& message);

  /// One complete transfer attempt from one donor, on the caller's
  /// thread, while the rest of the cluster keeps committing:
  ///  1. multicasts a recovery marker in total order;
  ///  2. the chosen donor reads its validation state exactly at the
  ///     marker and hands back a plan: its writeset log, to replay after
  ///     `from_tid`, or, when its log no longer reaches back that far, a
  ///     full copy of its tables (a pinned snapshot) and the log to
  ///     replay after its stable prefix;
  ///  3. this thread copies the tables and replays the log
  ///     (ApplyPlan()), adopts the donor's whole log as its own, drains
  ///     the messages buffered past the marker, and goes live.
  /// A donor fault or a buffer spill ends the attempt with a retryable
  /// status (kUnavailable / kTimedOut); the caller retries, and the
  /// next attempt starts over from `from_tid` (at the next donor after
  /// a fault). Anything else is a hard error. Never hangs: the waits
  /// for the donor's plan and for our own marker are bounded.
  /// `from_tid` as in SrcaRepReplica::Recover().
  Status Recover(uint64_t from_tid);

  /// Step 3's copy of Recover(): overwrites each of `plan`'s tables with
  /// the donor's rows and deletes the local rows the donor lacks, then
  /// replays the log entries after `plan.replay_after` in tid order.
  /// Applies kRecoveryBatchRows rows or entries at a time and calls
  /// `after_batch` after each batch; a non-OK result ends the copy with
  /// it.
  Status ApplyPlan(const DonorPlan& plan,
                   const std::function<Status()>& after_batch);

  /// The host crashed or is shutting down: release a Recover() waiting
  /// on its fence.
  void Interrupt();

 private:
  struct Request;

  /// Donor side of a marker that names this replica.
  void Donate(const Request& request);
  /// Recoverer side: waits for the donor's answer to our marker.
  Result<DonorPlan> AwaitPlan(PlanHandoff& handoff, gcs::MemberId donor);
  /// Copies one table of a full copy (see ApplyPlan()).
  Status CopyTable(const DonorPlan& plan, const std::string& name,
                   const std::function<Status()>& after_batch);
  /// Replays one donated log entry (writeset or DDL) into the local
  /// database; idempotent against what a previous incarnation or an
  /// abandoned attempt already applied.
  Status ReplayLogEntry(const WsLogEntry& entry);

  StateTransferHost* const host_;
  gcs::Group* const group_;
  obs::FlightRecorder* const flight_;

  std::atomic<bool> live_;

  // Recovery buffering: while not live, delivered writesets after the
  // marker are queued here and replayed by Recover()'s thread; the flip
  // to live happens under buffer_mu_ once the buffer drains. The fence
  // only arms for the marker of the *current* transfer attempt
  // (current_transfer_id_) — a marker from an abandoned attempt
  // delivered late must not re-arm it, or pre-marker messages of the
  // live attempt would be double-validated after adoption. When the
  // buffer crosses the high-water mark while spills are enabled, it is
  // dropped wholesale (fence cleared, buffer_spilled_ set), which ends
  // the attempt; the next one anchors at a fresh marker.
  std::mutex buffer_mu_;
  std::condition_variable buffer_cv_;
  bool fence_seen_ = false;
  uint64_t current_transfer_id_ = 0;
  bool buffer_spilled_ = false;
  bool spill_enabled_ = true;
  /// Effective high-water mark of buffered_. Seeded from
  /// options().recovery_buffer_high_water at construction and doubled
  /// on every spill, so the attempts of one incarnation converge even
  /// when live deliveries outpace the transfer (escalating
  /// backpressure).
  size_t buffer_hwm_;
  std::vector<gcs::Message> buffered_;

  // Recoverer state kept across the attempts (Recover() calls) of one
  // incarnation, touched only by the recovering thread.
  /// Attempts so far; each one after the first counts as a retry.
  size_t attempts_ = 0;
  /// Rotates over the donor candidates; advances on a donor fault and
  /// stays put on a spill, whose donor is healthy.
  size_t donor_idx_ = 0;

  /// Transfer-id generator (unique per member via the member-id bits).
  std::atomic<uint64_t> transfer_seq_{0};

  // "mw.recovery.*", recoverer side: batches applied (reported as
  // "chunks_received"), retries, donor switches, buffer spills, live
  // buffered-message depth.
  obs::Counter* const c_batches_applied_;
  obs::Counter* const c_retries_;
  obs::Counter* const c_donor_switches_;
  obs::Counter* const c_buffer_spills_;
  obs::Gauge* const g_buffered_msgs_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_STATE_TRANSFER_H_
