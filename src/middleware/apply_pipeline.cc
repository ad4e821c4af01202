#include "middleware/apply_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/thread_name.h"
#include "obs/profiler.h"

namespace sirep::middleware {

ApplyPipeline::ApplyPipeline(size_t width, ApplyFn apply,
                             obs::MetricsRegistry* registry)
    : apply_(std::move(apply)),
      depth_(registry != nullptr ? registry->GetGauge("mw.apply.queue_depth")
                                 : nullptr) {
  width = std::max<size_t>(width, 1);
  workers_.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    workers_.emplace_back([this] { Loop(); });
    NameThread(workers_.back(), "apply/" + std::to_string(i));
  }
}

ApplyPipeline::~ApplyPipeline() { Shutdown(); }

void ApplyPipeline::Dispatch(ToCommitEntry entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    queue_.push_back(std::move(entry));
    if (depth_ != nullptr) depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  // Any worker takes any entry, so one wake-up per entry suffices: a
  // worker that is busy now re-checks the queue before it sleeps.
  cv_.notify_one();
}

void ApplyPipeline::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
}

void ApplyPipeline::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down and drained
    ToCommitEntry entry = std::move(queue_.front());
    queue_.pop_front();
    if (depth_ != nullptr) depth_->Set(static_cast<int64_t>(queue_.size()));
    lock.unlock();
    {
      obs::Profiler::Section section("mw.pipeline.apply");
      apply_(std::move(entry));
    }
    lock.lock();
  }
}

}  // namespace sirep::middleware
