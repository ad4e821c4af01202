#include "obs/profiler.h"

#include "common/thread_name.h"
#include "obs/json.h"

namespace sirep::obs {

Profiler& Profiler::Global() {
  // Leaked like MetricsRegistry::Default(): thread-local slot handles
  // may release their slot after static destruction would have run.
  static Profiler* const profiler = new Profiler();
  return *profiler;
}

Profiler::Profiler() = default;

Profiler::~Profiler() { StopSampling(); }

namespace {

/// Releases the thread's slot when the thread exits, so the fixed slot
/// array survives arbitrary thread churn (appliers, donors, samplers).
struct SlotHandle {
  void* slot = nullptr;  ///< Profiler::ThreadSlot* (opaque here)
  std::atomic<bool>* used = nullptr;
  std::atomic<const char*>* section = nullptr;
  ~SlotHandle() {
    if (slot == nullptr) return;
    section->store(nullptr, std::memory_order_release);
    used->store(false, std::memory_order_release);
  }
};

thread_local SlotHandle t_slot;
thread_local bool t_slot_claimed = false;

}  // namespace

Profiler::ThreadSlot* Profiler::MySlot() {
  if (t_slot_claimed) {
    // Null when claiming failed earlier (all slots taken).
    return static_cast<ThreadSlot*>(t_slot.slot);
  }
  t_slot_claimed = true;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (slots_[i].used.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      t_slot.slot = &slots_[i];
      t_slot.used = &slots_[i].used;
      t_slot.section = &slots_[i].section;
      return &slots_[i];
    }
  }
  return nullptr;  // all slots taken: annotation becomes a no-op
}

Profiler::Section::Section(const char* name) : prev_(nullptr) {
  ThreadSlot* slot = Profiler::Global().MySlot();
  if (slot == nullptr) return;
  prev_ = slot->section.load(std::memory_order_relaxed);
  slot->section.store(name, std::memory_order_release);
}

Profiler::Section::~Section() {
  if (t_slot.section == nullptr) return;
  t_slot.section->store(prev_, std::memory_order_release);
}

void Profiler::StartSampling(std::chrono::microseconds interval) {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  if (interval.count() > 0) interval_ = interval;
  running_.store(true, std::memory_order_release);
  sampler_ = std::thread([this] { SamplerLoop(); });
  NameThread(sampler_, "prof-sampler");
}

void Profiler::StopSampling() {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (sampler_.joinable()) sampler_.join();
}

void Profiler::SamplerLoop() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval_);
    ticks_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(counts_mu_);
    for (size_t i = 0; i < kMaxThreads; ++i) {
      if (!slots_[i].used.load(std::memory_order_acquire)) continue;
      const char* section = slots_[i].section.load(std::memory_order_acquire);
      if (section != nullptr) ++counts_[section];
    }
  }
}

Profiler::Snapshot Profiler::GetSnapshot() const {
  Snapshot snap;
  snap.sampling = sampling();
  snap.interval_us = static_cast<uint64_t>(interval_.count());
  snap.ticks = ticks_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(counts_mu_);
  for (const auto& [name, count] : counts_) {
    snap.sections[name] += count;
  }
  return snap;
}

std::string Profiler::SnapshotJson() const {
  const Snapshot snap = GetSnapshot();
  std::string out = "{\"sampling\":";
  out += snap.sampling ? "true" : "false";
  out += ",\"interval_us\":";
  json::AppendU64(&out, snap.interval_us);
  out += ",\"ticks\":";
  json::AppendU64(&out, snap.ticks);
  out += ",\"sections\":{";
  bool first = true;
  for (const auto& [name, count] : snap.sections) {
    if (!first) out.push_back(',');
    first = false;
    json::AppendString(&out, name);
    out.push_back(':');
    json::AppendU64(&out, count);
  }
  out += "}}";
  return out;
}

void Profiler::ResetCounts() {
  std::lock_guard<std::mutex> lock(counts_mu_);
  counts_.clear();
  ticks_.store(0, std::memory_order_relaxed);
}

LockStats LockStats::FromRegistry(MetricsRegistry* registry,
                                  std::string_view prefix) {
  LockStats stats;
  if (registry == nullptr) return stats;
  const std::string base(prefix);
  stats.acquires = registry->GetCounter(base + ".acquires");
  stats.contended = registry->GetCounter(base + ".contended");
  stats.wait_us = registry->GetLatencyHistogram(base + ".wait_us");
  return stats;
}

}  // namespace sirep::obs
