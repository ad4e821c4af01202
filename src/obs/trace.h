#ifndef SIREP_OBS_TRACE_H_
#define SIREP_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace sirep::obs {

/// The stages a transaction passes through on the SI-Rep commit path
/// (paper Fig. 4): statement execution, writeset extraction, local
/// validation (I.2), total-order multicast, global validation (II), and
/// apply + commit (III). `kApply` is writeset application to the
/// database (remote txns; zero for the local replica, which already
/// holds the changes); `kCommit` is the storage-level commit install.
///
/// The stages after kCommit are cross-replica: measured against the
/// origin's clock reading that the GCS stamps on every multicast
/// (gcs::Message::enqueue_ns), so the replicated leg (the one SI-Rep
/// adds over a standalone database) is visible in the Fig. 7 breakdown.
///   kSequencerQueue   multicast stamp -> delivery at the origin
///                     replica (sequencer round-trip).
///   kDeliverySkew     how much later a *remote* replica saw the
///                     writeset than the estimated fastest delivery
///                     (local arrival minus the multicast stamp, minus
///                     the replica's clock-offset estimate).
///   kRemoteApplyLag   delivery at a remote replica -> that replica's
///                     commit install (tocommit queueing + apply).
///   kSnapshotStaleness  multicast stamp -> visible (committed)
///                     at a remote replica: the window in which a read
///                     there still sees the pre-transaction snapshot.
///
/// kApplyParallelism is the odd one out: not a latency but the number of
/// concurrently in-flight remote applies, sampled once per apply start.
/// Its metric name carries no "_us" suffix and its histogram uses count
/// (length) buckets; it shows how much of the apply pipeline's width
/// (ReplicaOptions::applier_threads) the workload actually exploits.
enum class Stage : int {
  kExecute = 0,
  kExtract,
  kLocalValidate,
  kMulticast,
  kGlobalValidate,
  kApply,
  kCommit,
  kApplyParallelism,
  kSequencerQueue,
  kDeliverySkew,
  kRemoteApplyLag,
  kSnapshotStaleness,
};
inline constexpr int kNumStages = 12;

/// First cross-replica stage; [kFirstCrossReplicaStage, kNumStages) are
/// measured against the origin's multicast stamp rather than one
/// replica's own clock.
inline constexpr int kFirstCrossReplicaStage =
    static_cast<int>(Stage::kSequencerQueue);

/// Short lowercase name, e.g. "local_validate".
const char* StageName(Stage stage);

/// Registry metric name for a stage histogram, e.g.
/// "mw.commit.stage.local_validate_us".
std::string StageMetricName(Stage stage);

/// The per-stage histograms a tracing component records into; resolved
/// once from a registry and then shared by every trace.
struct StageHistograms {
  std::array<Histogram*, kNumStages> stage{};

  static StageHistograms FromRegistry(MetricsRegistry* registry);
};

/// The stage spans of one transaction at one replica, flushed once.
/// A trace belongs to the one thread that records it: a local
/// transaction's lives in its session handle, a remote writeset's on
/// the stack of the thread that finishes it. Times taken on another
/// thread arrive as plain values (EndAt, Add).
class TxnTrace {
 public:
  /// `id` labels the kDebug span log lines (the GlobalTxnId).
  void SetId(std::string id) { id_ = std::move(id); }
  const std::string& id() const { return id_; }

  /// Starts the stage clock. Begin/End pairs may repeat (e.g. one
  /// kExecute span per statement); durations accumulate.
  void Begin(Stage stage);
  /// Stops the stage clock and accumulates the elapsed time. No-op if
  /// the stage is not running.
  void End(Stage stage);
  /// Like End, but against a caller-supplied clock reading — for stages
  /// whose end is observed on a different thread than where the end time
  /// was taken (e.g. multicast delivery).
  void EndAt(Stage stage, uint64_t end_ns);
  /// Records an externally measured duration for `stage`.
  void Add(Stage stage, uint64_t duration_ns);

  bool Running(Stage stage) const { return start_ns_[Index(stage)] != 0; }
  uint64_t Count(Stage stage) const { return counts_[Index(stage)]; }
  uint64_t DurationNs(Stage stage) const {
    return duration_ns_[Index(stage)];
  }
  uint64_t TotalNs() const;

  /// Observes every stage that ran into `hists` and, when kDebug
  /// logging is on, emits one structured span line per stage plus a
  /// summary line, all tagged with id(). Call once, at commit.
  void Flush(const StageHistograms& hists) const;

 private:
  static int Index(Stage stage) { return static_cast<int>(stage); }

  std::string id_;
  std::array<uint64_t, kNumStages> start_ns_{};
  std::array<uint64_t, kNumStages> duration_ns_{};
  std::array<uint64_t, kNumStages> counts_{};
};

}  // namespace sirep::obs

#endif  // SIREP_OBS_TRACE_H_
