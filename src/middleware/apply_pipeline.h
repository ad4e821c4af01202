#ifndef SIREP_MIDDLEWARE_APPLY_PIPELINE_H_
#define SIREP_MIDDLEWARE_APPLY_PIPELINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "middleware/tocommit_queue.h"
#include "obs/metrics.h"

namespace sirep::middleware {

/// The remote-apply half of step III, extracted from SrcaRepReplica. The
/// replica validates writesets in delivery order and asks the
/// ToCommitQueue which entries have no conflicting predecessor
/// (Adjustment 2); every entry handed to Dispatch() is therefore
/// pairwise non-conflicting with every other in-flight entry — the
/// pipeline is free to run them on any worker in any order without
/// affecting the database state. 1-copy-SI visibility order is not the
/// pipeline's job: the ToCommitQueue withholds conflicting successors
/// until their predecessor commits, and its hole rules (Adjustment 3)
/// gate local begins and the stable prefix.
///
/// One FIFO drained by all workers, one wake-up per dispatched entry.
/// Any idle worker takes the next entry, so a worker blocked on a
/// database lock held by a local transaction never strands queued
/// entries (the pool must not lose width to hidden blocking, paper
/// §4.2). Width 1 is the original single-applier replica.
///
/// Shutdown() drains queued entries through `apply` before returning —
/// the replica's shutdown flag makes those drained applies return at
/// once, leaving their tids queued.
class ApplyPipeline {
 public:
  /// Applies + commits one validated remote writeset (bound to
  /// SrcaRepReplica::ApplyRemote). Must be callable concurrently.
  using ApplyFn = std::function<void(ToCommitEntry)>;

  /// Starts max(width, 1) workers. `registry`, if non-null, receives the
  /// "mw.apply.queue_depth" gauge.
  ApplyPipeline(size_t width, ApplyFn apply, obs::MetricsRegistry* registry);
  ~ApplyPipeline();

  ApplyPipeline(const ApplyPipeline&) = delete;
  ApplyPipeline& operator=(const ApplyPipeline&) = delete;

  /// Hands one dispatchable entry to a worker. Never blocks on the
  /// apply itself; drops the entry when shut down.
  void Dispatch(ToCommitEntry entry);

  /// Drains outstanding entries and joins the workers. Idempotent.
  void Shutdown();

 private:
  void Loop();

  ApplyFn apply_;
  obs::Gauge* depth_ = nullptr;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ToCommitEntry> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_APPLY_PIPELINE_H_
