#include "obs/trace.h"

#include "common/logging.h"

namespace sirep::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kExecute:
      return "execute";
    case Stage::kExtract:
      return "extract";
    case Stage::kLocalValidate:
      return "local_validate";
    case Stage::kMulticast:
      return "multicast";
    case Stage::kGlobalValidate:
      return "global_validate";
    case Stage::kApply:
      return "apply";
    case Stage::kCommit:
      return "commit";
    case Stage::kApplyParallelism:
      return "apply_parallelism";
    case Stage::kSequencerQueue:
      return "sequencer_queue";
    case Stage::kDeliverySkew:
      return "delivery_skew";
    case Stage::kRemoteApplyLag:
      return "remote_apply_lag";
    case Stage::kSnapshotStaleness:
      return "snapshot_staleness";
  }
  return "unknown";
}

std::string StageMetricName(Stage stage) {
  // kApplyParallelism counts concurrent appliers, not microseconds.
  if (stage == Stage::kApplyParallelism) {
    return std::string("mw.commit.stage.") + StageName(stage);
  }
  return std::string("mw.commit.stage.") + StageName(stage) + "_us";
}

StageHistograms StageHistograms::FromRegistry(MetricsRegistry* registry) {
  StageHistograms hists;
  if (registry == nullptr) return hists;
  for (int i = 0; i < kNumStages; ++i) {
    const Stage stage = static_cast<Stage>(i);
    hists.stage[i] =
        stage == Stage::kApplyParallelism
            ? registry->GetHistogram(StageMetricName(stage), LengthBuckets())
            : registry->GetLatencyHistogram(StageMetricName(stage));
  }
  return hists;
}

void TxnTrace::Begin(Stage stage) {
  start_ns_[Index(stage)] = MonotonicNanos();
}

void TxnTrace::End(Stage stage) { EndAt(stage, MonotonicNanos()); }

void TxnTrace::EndAt(Stage stage, uint64_t end_ns) {
  const int i = Index(stage);
  if (start_ns_[i] == 0) return;
  if (end_ns > start_ns_[i]) duration_ns_[i] += end_ns - start_ns_[i];
  counts_[i] += 1;
  start_ns_[i] = 0;
}

void TxnTrace::Add(Stage stage, uint64_t duration_ns) {
  const int i = Index(stage);
  duration_ns_[i] += duration_ns;
  counts_[i] += 1;
}

uint64_t TxnTrace::TotalNs() const {
  uint64_t total = 0;
  for (uint64_t d : duration_ns_) total += d;
  return total;
}

void TxnTrace::Flush(const StageHistograms& hists) const {
  for (int i = 0; i < kNumStages; ++i) {
    if (counts_[i] == 0) continue;
    if (hists.stage[i] != nullptr) {
      hists.stage[i]->Observe(NanosToUs(duration_ns_[i]));
    }
  }
  if (SIREP_LOG_ENABLED(LogLevel::kDebug)) {
    for (int i = 0; i < kNumStages; ++i) {
      if (counts_[i] == 0) continue;
      SIREP_DLOG << "span txn=" << id_
                 << " stage=" << StageName(static_cast<Stage>(i))
                 << " us=" << NanosToUs(duration_ns_[i])
                 << " spans=" << counts_[i];
    }
    SIREP_DLOG << "span txn=" << id_
               << " stage=total us=" << NanosToUs(TotalNs());
  }
}

}  // namespace sirep::obs
