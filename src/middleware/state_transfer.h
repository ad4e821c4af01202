#ifndef SIREP_MIDDLEWARE_STATE_TRANSFER_H_
#define SIREP_MIDDLEWARE_STATE_TRANSFER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "gcs/group.h"
#include "middleware/global_txn_id.h"
#include "middleware/replica_options.h"
#include "middleware/ws_index.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sirep::middleware {

/// One validated writeset (or DDL statement) of a replica's writeset
/// log — what online recovery ships (paper §5.4: "the middleware
/// probably has to log writesets").
struct WsLogEntry {
  uint64_t tid = 0;
  GlobalTxnId gid;
  std::shared_ptr<const storage::WriteSet> ws;  ///< null for DDL entries
  std::string ddl;  ///< set for DDL entries
};

/// A replica's Fig. 4 validation state as a donor reads it at its marker.
struct ValidationView {
  uint64_t lastvalidated = 0;
  uint64_t stable_prefix = 0;  ///< every validated tid <= it committed here
  const WsIndex& ws_index;
  const std::deque<WsLogEntry>& log;  ///< ascending tids, oldest trimmed
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
  /// Donor fault injection ("mw.recovery.donor_crash_mid_transfer").
  virtual void Crash() = 0;

  /// Donor side, in the delivery callback of the marker: runs `read` with
  /// the validation state held still, so a donation plan and the log
  /// suffix it copies describe one position of the total order.
  virtual void ReadValidationState(
      const std::function<void(const ValidationView&)>& read) = 0;
  /// Recoverer side: replaces the validation state with the donor's and
  /// marks every tid <= `lastvalidated` committed here.
  virtual void AdoptValidationState(uint64_t lastvalidated,
                                    const std::vector<WsWindowEntry>& window,
                                    std::vector<WsLogEntry> log) = 0;
  /// A replayed log entry's transaction is committed here.
  virtual void MarkLocallyCommitted(const GlobalTxnId& gid) = 0;
  /// Hands back one buffered post-marker message for normal processing.
  virtual void ProcessDelivery(const gcs::Message& message) = 0;
};

/// What a donation opens with: the donor's validation state at the
/// marker, and the shape of what follows.
struct TransferMeta {
  uint64_t lastvalidated = 0;
  std::vector<WsWindowEntry> ws_window;
  bool full_copy = false;  ///< table dumps follow before the log
};

/// One bounded unit of the recovery stream. Every attempt opens its own
/// channel, so a chunk always belongs to the attempt reading it. At most
/// one section (meta / table rows / log entries) is populated per chunk.
struct RecoveryChunk {
  Status status;  ///< non-OK chunk aborts this donation
  bool final_chunk = false;  ///< transfer complete after this chunk

  std::optional<TransferMeta> meta;  ///< first chunk of every donation

  // Table-rows section (full copy only).
  std::string table;
  sql::Schema schema;
  bool table_begin = false;     ///< first chunk of this table
  bool table_complete = false;  ///< last chunk: run the delete-sweep
  std::vector<sql::Row> rows;

  // Log-suffix section.
  std::vector<WsLogEntry> log;

  size_t approx_bytes = 0;  ///< payload estimate (metrics)
};

/// Recoverer-side state of one transfer attempt.
struct RecoveryProgress {
  std::optional<TransferMeta> meta;
  /// This attempt's log entries in tid order, all replayed here;
  /// becomes the adopted writeset log.
  std::vector<WsLogEntry> adopted_log;
  // Import state of the table currently streaming in.
  bool table_active = false;
  std::string table;
  std::set<sql::Key> leftover_keys;  ///< local keys the dump lacks so far
};

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
/// marker, and catches up from a donor's chunked stream while the rest
/// of the cluster keeps committing; a live replica donates when a
/// marker names it. See DESIGN.md §7.8.
class StateTransfer {
 public:
  /// `host` outlives this object. Starts buffering when
  /// `options.start_recovering`, live otherwise.
  StateTransfer(StateTransferHost* host, gcs::Group* group,
                const ReplicaOptions& options,
                obs::MetricsRegistry* registry, obs::FlightRecorder* flight);
  ~StateTransfer();

  StateTransfer(const StateTransfer&) = delete;
  StateTransfer& operator=(const StateTransfer&) = delete;

  /// False from construction with `start_recovering` until Recover()
  /// succeeds.
  bool live() const { return live_.load(std::memory_order_acquire); }

  /// Delivery callback, for every writeset and DDL message: true when the
  /// message was taken because this replica is still recovering — it is
  /// buffered past our marker, or dropped before it, where the donor's
  /// stream covers it.
  bool Buffer(const gcs::Message& message);

  /// Delivery callback, for every kRecoveryRequestType message: arms the
  /// fence at our own marker, or donates when the marker names us.
  void OnMarker(const gcs::Message& message);

  /// One complete transfer attempt from one donor, while the rest of
  /// the cluster keeps committing:
  ///  1. multicasts a recovery marker in total order;
  ///  2. the chosen donor snapshots its validation state exactly at the
  ///     marker and *streams* the payload in bounded chunks: the
  ///     writeset-log suffix after `from_tid`, or, when its log no
  ///     longer reaches back that far, a full copy of its tables plus
  ///     the log after its stable prefix;
  ///  3. this replica applies chunks as they arrive, adopts the
  ///     validation state at the final chunk, drains the messages
  ///     buffered past the marker, and goes live.
  /// A donor fault or a buffer spill ends the attempt with a retryable
  /// status (kUnavailable / kTimedOut); the caller retries, and the
  /// next attempt starts over from `from_tid` (at the next donor after
  /// a fault). Anything else is a hard error. Never hangs: the donor
  /// must keep sending (a per-chunk timeout), and the wait for our own
  /// marker is bounded. `from_tid` as in SrcaRepReplica::Recover().
  Status Recover(uint64_t from_tid);

  /// One step of Recover(): applies a received chunk (meta adoption,
  /// table rows as idempotent upserts + delete-sweep, replay of every
  /// log entry) and advances `progress`.
  Status ApplyChunk(const RecoveryChunk& chunk, RecoveryProgress* progress);

  /// The host crashed: release a Recover() waiting on its fence.
  void Interrupt();
  /// The host is shutting down: release waiters, refuse further
  /// donations and join the donor streamer threads. Idempotent.
  void Stop();

 private:
  struct Channel;
  struct Request;
  struct DonorPlan;

  /// Donor side of a marker that names this replica.
  void Donate(const Request& request);
  /// Donor streamer-thread body: materializes `plan` into bounded
  /// chunks on the channel, honoring backpressure, abandonment, and the
  /// mw.recovery.* failpoints.
  void Stream(std::shared_ptr<DonorPlan> plan);
  /// Replays one donated log entry (writeset or DDL) into the local
  /// database; idempotent against what a previous incarnation or an
  /// abandoned attempt already applied.
  Status ReplayLogEntry(const WsLogEntry& entry);

  StateTransferHost* const host_;
  gcs::Group* const group_;
  const ReplicaOptions& options_;
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

  // "mw.recovery.*": donor side (chunks/bytes sent), recoverer side
  // (chunks/bytes received, retries, donor switches, buffer spills,
  // live buffered-message depth).
  obs::Counter* const c_chunks_sent_;
  obs::Counter* const c_bytes_sent_;
  obs::Counter* const c_chunks_received_;
  obs::Counter* const c_bytes_received_;
  obs::Counter* const c_retries_;
  obs::Counter* const c_donor_switches_;
  obs::Counter* const c_buffer_spills_;
  obs::Gauge* const g_buffered_msgs_;

  /// Donor streamer threads, joined by Stop().
  std::mutex streamers_mu_;
  bool stopped_ = false;
  std::vector<std::thread> streamers_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_STATE_TRANSFER_H_
