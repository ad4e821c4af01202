#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace sirep::obs {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

/// Live recorders, for DumpAllText() and the crash handler. Leaked so
/// the crash handler can walk it at any point of process teardown.
struct RecorderRegistry {
  std::mutex mu;
  std::vector<FlightRecorder*> recorders;
};

RecorderRegistry& GetRecorderRegistry() {
  static RecorderRegistry* registry = new RecorderRegistry;
  return *registry;
}

char g_crash_path_prefix[256] = {0};

void CrashHandler(int sig) {
  // Restore default disposition first: a fault inside the handler (or
  // the re-raise below) must terminate, not loop.
  std::signal(sig, SIG_DFL);
  FlightRecorder::Global().Record(FlightEventType::kCrash, 0,
                                  static_cast<uint64_t>(sig), 0,
                                  "fatal signal");
  const std::string text = FlightRecorder::DumpAllText();
  char path[320];
  std::snprintf(path, sizeof(path), "%s.pid%d.txt", g_crash_path_prefix,
                static_cast<int>(::getpid()));
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::close(fd);
  }
  ::raise(sig);
}

void ObserveFailpointHit(std::string_view name, const failpoint::Hit& hit,
                         bool delayed) {
  FlightRecorder::Global().Record(
      FlightEventType::kFailpoint, 0, hit.fired ? 1 : 0,
      delayed ? 255 : static_cast<uint64_t>(hit.kind), name);
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kViewChange:
      return "view_change";
    case FlightEventType::kValidation:
      return "validation_abort";
    case FlightEventType::kFailpoint:
      return "failpoint";
    case FlightEventType::kWalTruncate:
      return "wal_truncate";
    case FlightEventType::kQueueHighWater:
      return "queue_high_water";
    case FlightEventType::kInvariant:
      return "invariant";
    case FlightEventType::kCrash:
      return "crash";
    case FlightEventType::kRecovery:
      return "recovery";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)), slots_(capacity_) {
  RecorderRegistry& registry = GetRecorderRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.recorders.push_back(this);
}

FlightRecorder::~FlightRecorder() {
  RecorderRegistry& registry = GetRecorderRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto& v = registry.recorders;
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

void FlightRecorder::Record(FlightEventType type, uint32_t replica,
                            uint64_t a, uint64_t b,
                            std::string_view detail) {
  // Claim the slot exclusively by marking it in progress.
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot* slot = &slots_[seq & (capacity_ - 1)];
  uint64_t stamp = slot->stamp.load(std::memory_order_relaxed);
  while (true) {
    if (stamp > 2 * seq + 1) {
      // A later event took the slot while this writer was descheduled:
      // ours counts as overwritten.
      return;
    }
    if ((stamp & 1) != 0) {
      // An earlier writer is still filling the slot: rather than wait or
      // interleave stores with it, take the next number.
      skipped_.fetch_add(1, std::memory_order_release);
      seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
      slot = &slots_[seq & (capacity_ - 1)];
      stamp = slot->stamp.load(std::memory_order_relaxed);
      continue;
    }
    if (slot->stamp.compare_exchange_weak(stamp, 2 * seq + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
  // Release field stores keep the in-progress mark ahead of them: a
  // reader that sees any of them (by an acquire load) then sees the
  // stamp changed.
  slot->mono_ns.store(MonotonicNanos(), std::memory_order_release);
  slot->meta.store(static_cast<uint64_t>(type) |
                       (static_cast<uint64_t>(replica) << 8),
                   std::memory_order_release);
  slot->a.store(a, std::memory_order_release);
  slot->b.store(b, std::memory_order_release);
  uint64_t words[kDetailBytes / 8] = {0};
  const size_t len = std::min(detail.size(), kDetailBytes);
  std::memcpy(words, detail.data(), len);
  for (size_t i = 0; i < kDetailBytes / 8; ++i) {
    slot->detail[i].store(words[i], std::memory_order_release);
  }
  slot->stamp.store(2 * seq + 2, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Slot& slot, FlightEvent* out) const {
  const uint64_t stamp = slot.stamp.load(std::memory_order_acquire);
  if (stamp == 0 || (stamp & 1) != 0) return false;  // empty or in progress
  out->seq = stamp / 2 - 1;
  // Acquire field loads order the copy before the stamp re-check below,
  // as a seqlock reader's acquire fence would.
  out->mono_ns = slot.mono_ns.load(std::memory_order_acquire);
  const uint64_t meta = slot.meta.load(std::memory_order_acquire);
  out->type = static_cast<FlightEventType>(meta & 0xff);
  out->replica = static_cast<uint32_t>(meta >> 8);
  out->a = slot.a.load(std::memory_order_acquire);
  out->b = slot.b.load(std::memory_order_acquire);
  char bytes[kDetailBytes];
  for (size_t i = 0; i < kDetailBytes / 8; ++i) {
    const uint64_t w = slot.detail[i].load(std::memory_order_acquire);
    std::memcpy(bytes + i * 8, &w, 8);
  }
  out->detail.assign(bytes, strnlen(bytes, kDetailBytes));
  // A writer claimed the slot while we copied: discard rather than
  // report a torn event.
  return slot.stamp.load(std::memory_order_relaxed) == stamp;
}

std::vector<FlightEvent> FlightRecorder::Dump() const {
  // Only the last `capacity_` claims are retained; an older event is one
  // a writer descheduled mid-record published after its lap had passed.
  const uint64_t claimed = next_seq_.load(std::memory_order_relaxed);
  const uint64_t horizon = claimed > capacity_ ? claimed - capacity_ : 0;
  std::vector<FlightEvent> events;
  events.reserve(capacity_);
  for (const Slot& slot : slots_) {
    FlightEvent event;
    if (ReadSlot(slot, &event) && event.seq >= horizon) {
      events.push_back(std::move(event));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return events;
}

std::string FlightRecorder::DumpText() const {
  const std::vector<FlightEvent> events = Dump();
  std::string out;
  const uint64_t total = TotalRecorded();
  char line[192];
  std::snprintf(line, sizeof(line),
                "# flight recorder: %llu events recorded, %zu retained "
                "(capacity %zu)\n",
                static_cast<unsigned long long>(total), events.size(),
                capacity_);
  out += line;
  const uint64_t base = events.empty() ? 0 : events.front().mono_ns;
  for (const FlightEvent& e : events) {
    std::snprintf(
        line, sizeof(line),
        "[%8llu] +%11.3fms %-16s r%-3u a=%-12llu b=%-12llu %s\n",
        static_cast<unsigned long long>(e.seq),
        static_cast<double>(e.mono_ns - base) / 1e6,
        FlightEventTypeName(e.type), e.replica,
        static_cast<unsigned long long>(e.a),
        static_cast<unsigned long long>(e.b), e.detail.c_str());
    out += line;
  }
  return out;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder(8192);
  return *recorder;
}

std::string FlightRecorder::DumpAllText() {
  // Make sure the global recorder exists (and is registered) even if
  // nothing recorded into it yet.
  FlightRecorder& global = Global();
  RecorderRegistry& registry = GetRecorderRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::string out;
  int section = 0;
  for (FlightRecorder* recorder : registry.recorders) {
    out += "=== flight recorder ";
    out += (recorder == &global ? "global" : std::to_string(section));
    out += " ===\n";
    out += recorder->DumpText();
    ++section;
  }
  return out;
}

void FlightRecorder::InstallCrashHandler(const std::string& path_prefix) {
  std::snprintf(g_crash_path_prefix, sizeof(g_crash_path_prefix), "%s",
                path_prefix.c_str());
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &CrashHandler;
  sigemptyset(&action.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(sig, &action, nullptr);
  }
}

void FlightRecorder::RecordFailpointHits() {
  failpoint::SetHitObserver(&ObserveFailpointHit);
}

}  // namespace sirep::obs
