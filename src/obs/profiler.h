#ifndef SIREP_OBS_PROFILER_H_
#define SIREP_OBS_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.h"

namespace sirep::obs {

/// In-process profiler hooks (ISSUE 10): two cheap instruments that make
/// "where did the regression come from" answerable from a bench artifact
/// alone, without attaching perf/gdb to a live run.
///
///  1. A *sampling wall-clock profiler* over annotated sections. Threads
///     mark the region they are executing with a Profiler::Section RAII
///     guard (a thread-local pointer swap — two relaxed stores, no
///     atomics contended across threads); a background sampler thread
///     wakes at a fixed interval and counts which section every live
///     thread is in. Sample shares approximate wall-clock shares the
///     same way `perf record`'s do, but over semantic section names
///     ("mw.apply_remote") instead of symbolized frames.
///
///  2. A *mutex-contention* helper (AcquireProfiled + LockStats) for
///     named critical sections, such as the middleware's ToCommitQueue.
///     Uncontended acquisitions cost one striped counter bump;
///     contended ones additionally record the wait in a latency
///     histogram. All three metrics live in the
///     owning component's MetricsRegistry ("<section>.acquires",
///     "<section>.contended", "<section>.wait_us"), so they ride every
///     existing exposition path (/metrics, DumpMetrics, bench JSON).
///
/// Section names must be string literals (or otherwise outlive the
/// process): the sampler reads the pointer from another thread after the
/// section may have exited.
class Profiler {
 public:
  /// Process-wide instance: sections and the sampler must see each other
  /// across component boundaries, like FlightRecorder::DumpAllText().
  static Profiler& Global();

  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// RAII section annotation. Nests: the enclosing section resumes when
  /// an inner one exits. Cost when no sampler runs: two thread-local
  /// stores.
  class Section {
   public:
    explicit Section(const char* name);
    ~Section();
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    const char* prev_;
  };

  /// Starts the background sampler at `interval` (idempotent; a running
  /// sampler keeps its original interval).
  void StartSampling(std::chrono::microseconds interval);

  /// Stops and joins the sampler. Accumulated counts survive — snapshots
  /// after Stop see the final tallies. Idempotent.
  void StopSampling();

  bool sampling() const { return running_.load(std::memory_order_acquire); }

  struct Snapshot {
    bool sampling = false;
    uint64_t interval_us = 0;
    /// Sampler wakeups so far; section shares = samples / ticks (one
    /// thread in a section for a full tick contributes `1` per tick, so
    /// shares can exceed 1 with several threads in the same section).
    uint64_t ticks = 0;
    /// Section name -> samples observed in it.
    std::map<std::string, uint64_t> sections;
  };
  Snapshot GetSnapshot() const;

  /// {"sampling":true,"interval_us":...,"ticks":...,
  ///  "sections":{"mw.apply_remote":123,...}} — the /profile endpoint
  /// body and the bench artifact's "profile" section.
  std::string SnapshotJson() const;

  /// Resets sample counts and tick count (bench warmup boundary).
  void ResetCounts();

 private:
  friend class Section;

  static constexpr size_t kMaxThreads = 256;
  struct alignas(64) ThreadSlot {
    std::atomic<bool> used{false};
    /// Null when the thread is outside every annotated section. Always a
    /// string literal (see class comment).
    std::atomic<const char*> section{nullptr};
  };

  /// The calling thread's slot, claimed on first use and released by the
  /// thread-local handle's destructor at thread exit. Null when all
  /// kMaxThreads slots are taken (annotation becomes a no-op).
  ThreadSlot* MySlot();

  void SamplerLoop();

  ThreadSlot slots_[kMaxThreads];

  std::atomic<bool> running_{false};
  std::chrono::microseconds interval_{std::chrono::microseconds(2000)};
  std::thread sampler_;
  std::mutex sampler_mu_;  ///< guards Start/Stop transitions

  /// Sample tallies, written only by the sampler thread.
  mutable std::mutex counts_mu_;
  std::map<const char*, uint64_t> counts_;
  std::atomic<uint64_t> ticks_{0};
};

/// Metric handles for one named lock, resolved once from a registry.
/// Null members no-op, so components can be built without a registry.
struct LockStats {
  Counter* acquires = nullptr;
  Counter* contended = nullptr;
  Histogram* wait_us = nullptr;

  /// Registers "<prefix>.acquires" / "<prefix>.contended" /
  /// "<prefix>.wait_us" in `registry` (e.g. prefix "mw.lock.tocommit").
  /// Returns all-null stats when `registry` is null.
  static LockStats FromRegistry(MetricsRegistry* registry,
                                std::string_view prefix);
};

/// Acquires `mu`, accounting the acquisition into `stats`: fast path is
/// a try_lock plus one striped counter increment; only a contended
/// acquisition takes a clock reading and a histogram observation.
inline std::unique_lock<std::mutex> AcquireProfiled(std::mutex& mu,
                                                    const LockStats& stats) {
  if (stats.acquires != nullptr) stats.acquires->Increment();
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (stats.contended != nullptr) stats.contended->Increment();
    const uint64_t t0 = MonotonicNanos();
    lock.lock();
    if (stats.wait_us != nullptr) {
      stats.wait_us->Observe(NanosToUs(MonotonicNanos() - t0));
    }
  }
  return lock;
}

}  // namespace sirep::obs

#endif  // SIREP_OBS_PROFILER_H_
