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
/// originating replica's TraceContext timestamps carried in the
/// multicast writeset, so the replicated leg (the one SI-Rep adds over
/// a standalone database) is visible in the Fig. 7 breakdown.
///   kSequencerQueue   multicast enqueue -> delivery at the origin
///                     replica (sequencer round-trip).
///   kDeliverySkew     how much later a *remote* replica saw the
///                     writeset than the estimated fastest delivery
///                     (local arrival minus origin send, minus the
///                     replica's clock-offset estimate).
///   kRemoteApplyLag   delivery at a remote replica -> that replica's
///                     commit install (tocommit queueing + apply).
///   kSnapshotStaleness  origin multicast send -> visible (committed)
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
/// measured against the origin's TraceContext rather than one replica's
/// own clock.
inline constexpr int kFirstCrossReplicaStage =
    static_cast<int>(Stage::kSequencerQueue);

/// Compact distributed-trace context propagated with every multicast
/// writeset (gcs::WireEntry / middleware::WriteSetMessage, versioned
/// serde), so remote replicas can record their validate/apply/commit
/// spans under the *originating* transaction's trace id and measure
/// delivery skew and snapshot staleness against the origin's clocks.
/// A zero trace_id means "no context" (e.g. a frame decoded from the
/// v1 wire format).
struct TraceContext {
  uint64_t trace_id = 0;        ///< cluster-unique; 0 = absent
  uint32_t origin_replica = 0;  ///< GCS member id of the originator
  uint64_t origin_mono_ns = 0;  ///< origin MonotonicNanos() at multicast
  uint64_t origin_wall_ns = 0;  ///< origin wall clock (ns since epoch)

  bool valid() const { return trace_id != 0; }
  /// "r<origin>/<trace_id>" — the span-log tag remote replicas use.
  std::string ToString() const;
  /// Current wall clock in nanoseconds since the Unix epoch.
  static uint64_t WallNanos();

  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.trace_id == b.trace_id &&
           a.origin_replica == b.origin_replica &&
           a.origin_mono_ns == b.origin_mono_ns &&
           a.origin_wall_ns == b.origin_wall_ns;
  }
};

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

/// Per-transaction trace context carried from BeginTxn to commit.
///
/// Threading: a trace is written by one thread at a time — the client
/// session thread up to multicast, the thread that delivers the writeset
/// back to its origin between delivery and validation outcome, then the
/// client thread again. Sometimes those are one thread: on the
/// in-process GCS, a client whose replica is alone in its group
/// delivers its own writeset. When the GCS delivery thread
/// does it instead, the handoffs are ordered by the group queue and the
/// middleware's pending-commit mutex and condition variable, so plain
/// (non-atomic) fields are race-free either way.
/// Origin-tagged remote traces follow the same rule: the delivering
/// thread finishes all writes (skew + validation spans) *before*
/// appending the tocommit entry that carries the trace, and the queue's
/// lock orders that handoff to the single applier thread that takes the
/// entry.
class TxnTrace {
 public:
  /// `id` labels the kDebug span log lines (typically the GlobalTxnId).
  void SetId(std::string id) { id_ = std::move(id); }
  const std::string& id() const { return id_; }

  /// The distributed-trace context this trace originates (set once by
  /// the originating replica, before multicast).
  void SetContext(const TraceContext& context) { context_ = context; }
  const TraceContext& context() const { return context_; }

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
  TraceContext context_;
  std::array<uint64_t, kNumStages> start_ns_{};
  std::array<uint64_t, kNumStages> duration_ns_{};
  std::array<uint64_t, kNumStages> counts_{};
};

}  // namespace sirep::obs

#endif  // SIREP_OBS_TRACE_H_
