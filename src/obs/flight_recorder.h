#ifndef SIREP_OBS_FLIGHT_RECORDER_H_
#define SIREP_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sirep::obs {

/// What a flight-recorder event describes. The scalar payload (a, b)
/// and the short detail string are event-specific:
///
///   kViewChange      a = view id, b = member count, detail = reason
///   kValidation      a = gid.seq, b = origin replica, detail = first
///                    conflicting key (abort verdicts only; successful
///                    validations are counted in metrics, not recorded,
///                    so rare events survive longer in the ring)
///   kFailpoint       a = 1 if the point fired, b = verdict kind,
///                    detail = point name
///   kWalTruncate     a = valid prefix bytes, b = bytes dropped,
///                    detail = WAL path tail
///   kQueueHighWater  a = new high-water depth, b = previous high
///                    water, detail = queue name
///   kInvariant       a/b free-form, detail = violation summary
///   kCrash           a = signal number or 0, detail = origin
///   kRecovery        a = transfer id, b = stage-specific (donor id,
///                    tid, buffered depth), detail = stage ("request",
///                    "donate", "donor_switch", "buffer_spill",
///                    "cutover", "complete")
enum class FlightEventType : uint8_t {
  kViewChange = 0,
  kValidation,
  kFailpoint,
  kWalTruncate,
  kQueueHighWater,
  kInvariant,
  kCrash,
  kRecovery,
};

const char* FlightEventTypeName(FlightEventType type);

/// One recorded event, as read back by Dump().
struct FlightEvent {
  uint64_t seq = 0;      ///< global claim order (monotonic)
  uint64_t mono_ns = 0;  ///< MonotonicNanos() at record time
  FlightEventType type = FlightEventType::kViewChange;
  uint32_t replica = 0;  ///< recording replica id (0 for process-wide)
  uint64_t a = 0;
  uint64_t b = 0;
  std::string detail;    ///< truncated to kDetailBytes
};

/// Fixed-size lock-free black box: the last `capacity` structured
/// events, recorded from hot paths with one atomic claim per event.
///
/// Each slot is a seqlock. A writer takes a sequence number with one
/// fetch_add, claims that number's slot exclusively by swapping its
/// stamp to "in progress", fills the fields with release stores, then
/// publishes with a release store of the stamp. If a writer a lap
/// behind still holds the slot, the writer takes the next number
/// instead of waiting; if a later event already holds it, the event
/// counts as overwritten. No locks, no allocation, no syscalls on the
/// record path; every field is an atomic word, so the protocol is
/// TSan-clean by construction.
///
/// Readers (Dump/DumpText) are best-effort and lock-free too: they skip
/// slots in progress, copy the fields with acquire loads, re-check the
/// stamp and discard slots that changed underneath them. The recorder
/// is meant to be dumped on crash signal, invariant violation, or
/// explicit request — not polled.
class FlightRecorder {
 public:
  static constexpr size_t kDetailBytes = 48;

  /// `capacity` is rounded up to a power of two (min 64).
  explicit FlightRecorder(size_t capacity = 4096);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event. Safe from any thread; one atomic claim plus a
  /// handful of release stores.
  void Record(FlightEventType type, uint32_t replica, uint64_t a,
              uint64_t b, std::string_view detail);

  /// Events currently readable, oldest first: at most the last
  /// `capacity` recorded. Slots being overwritten concurrently are
  /// skipped.
  std::vector<FlightEvent> Dump() const;

  /// Human-readable dump, one line per event:
  ///   [seq] +<ms-since-first> <type> r<replica> a=<a> b=<b> <detail>
  std::string DumpText() const;

  /// Total events ever recorded, including overwritten ones.
  uint64_t TotalRecorded() const {
    const uint64_t skipped = skipped_.load(std::memory_order_acquire);
    return next_seq_.load(std::memory_order_relaxed) - skipped;
  }

  size_t capacity() const { return capacity_; }

  /// Process-wide recorder for components without a per-replica one
  /// (WAL recovery, failpoint hits, harness-level events). Never
  /// destroyed.
  static FlightRecorder& Global();

  /// Concatenated DumpText() of every live recorder (the global one
  /// plus each registered per-replica recorder), section-headed.
  static std::string DumpAllText();

  /// Installs fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE)
  /// that write DumpAllText() to "<path_prefix>.pid<pid>.txt" before
  /// re-raising the default action. Best-effort: the handler formats
  /// text, which is not strictly async-signal-safe, but a black box
  /// that usually survives beats none. Idempotent.
  static void InstallCrashHandler(const std::string& path_prefix);

  /// Routes failpoint verdicts into the global recorder (one
  /// kFailpoint event per evaluation of an armed point), so injected
  /// faults appear in the black box next to their consequences.
  /// Idempotent.
  static void RecordFailpointHits();

 private:
  struct Slot {
    /// 0 = never written; 2 * seq + 1 while the writer of event `seq`
    /// fills the slot; 2 * seq + 2 once it is published.
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> mono_ns{0};
    std::atomic<uint64_t> meta{0};  ///< type | replica << 8
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> detail[kDetailBytes / 8]{};
  };

  bool ReadSlot(const Slot& slot, FlightEvent* out) const;

  size_t capacity_;  ///< power of two
  std::atomic<uint64_t> next_seq_{0};
  /// Sequence numbers given up at a slot still in progress.
  std::atomic<uint64_t> skipped_{0};
  std::vector<Slot> slots_;
};

}  // namespace sirep::obs

#endif  // SIREP_OBS_FLIGHT_RECORDER_H_
