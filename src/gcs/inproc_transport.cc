// The original single-process dissemination model: the sequencer is a
// mutex, delivery queues are in-memory, payloads are shared pointers
// (zero copy). Retained as the default backend because it is exact and
// fast for single-process experiments; the TCP backend (tcp_transport.cc)
// exists for everything that needs real frames on real sockets.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/sync.h"
#include "gcs/transport.h"

namespace sirep::gcs {

namespace {

class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(const TransportOptions& options)
      : options_(options), next_member_(options.first_member) {
    if (options_.registry != nullptr) {
      h_delivery_lag_us_ =
          options_.registry->GetLatencyHistogram("gcs.delivery_lag_us");
      g_queue_depth_ = options_.registry->GetGauge("gcs.queue_depth");
    }
  }

  ~InProcessTransport() override { Shutdown(); }

  bool needs_encoding() const override { return false; }

  MemberId AddMember(FrameSink* sink) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return kInvalidMember;
    const MemberId id = next_member_++;
    auto member = std::make_unique<Member>();
    member->sink = sink;
    members_[id] = std::move(member);
    members_[id]->delivery_thread =
        std::thread([this, id] { DeliveryLoop(id); });
    EnqueueViewLocked();
    return id;
  }

  void Crash(MemberId member_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = members_.find(member_id);
    if (it == members_.end() ||
        it->second->crashed.load(std::memory_order_acquire)) {
      return;
    }
    it->second->crashed.store(true, std::memory_order_release);
    // Stop delivery to the crashed member. Its queue may still hold
    // frames; they are dropped (the process is gone). Uniformity is about
    // *surviving* members, whose queues already hold everything multicast
    // before this point — and the view change below is enqueued after
    // them.
    it->second->queue.Close();
    SIREP_ILOG << "GCS: member " << member_id << " crashed";
    EnqueueViewLocked();
  }

  bool IsAlive(MemberId member) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = members_.find(member);
    return it != members_.end() &&
           !it->second->crashed.load(std::memory_order_acquire) &&
           !shutdown_;
  }

  Status Multicast(Frame frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::Unavailable("group is shut down");
    auto it = members_.find(frame.sender);
    if (it == members_.end()) {
      return Status::InvalidArgument("unknown sender " +
                                     std::to_string(frame.sender));
    }
    if (it->second->crashed.load(std::memory_order_acquire)) {
      return Status::Unavailable("sender " + std::to_string(frame.sender) +
                                 " has crashed");
    }
    Event event;
    event.kind = Event::Kind::kFrame;
    event.base_seqno = next_seqno_ + 1;
    next_seqno_ += frame.message_count;
    event.frame = std::move(frame);
    event.deliver_at =
        std::chrono::steady_clock::now() + options_.multicast_delay;
    // Enqueue to every live member under the same lock that assigned the
    // sequence numbers: this is what makes the order total and the
    // delivery uniform.
    for (const auto& [id, member] : members_) {
      if (member->crashed.load(std::memory_order_acquire)) continue;
      pending_count_.fetch_add(1, std::memory_order_relaxed);
      if (!member->queue.Push(event)) {
        pending_count_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    return Status::OK();
  }

  View CurrentView() const override {
    std::lock_guard<std::mutex> lock(mu_);
    View view;
    view.view_id = view_id_;
    for (const auto& [id, member] : members_) {
      if (!member->crashed.load(std::memory_order_acquire)) {
        view.members.push_back(id);
      }
    }
    std::sort(view.members.begin(), view.members.end());
    return view;
  }

  void WaitForQuiescence() override {
    std::unique_lock<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.wait(lock, [&] {
      return pending_count_.load(std::memory_order_acquire) <= 0;
    });
  }

  void Shutdown() override {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;
      shutdown_ = true;
      for (auto& [id, member] : members_) {
        member->crashed.store(true, std::memory_order_release);
        member->queue.Close();
        threads.push_back(std::move(member->delivery_thread));
      }
    }
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }

 private:
  struct Event {
    enum class Kind { kFrame, kView } kind = Kind::kFrame;
    uint64_t base_seqno = 0;
    Frame frame;
    View view;
    std::chrono::steady_clock::time_point deliver_at;
  };

  struct Member {
    FrameSink* sink = nullptr;
    /// Set on crash (and shutdown); the delivery loop discards any events
    /// still queued instead of delivering them.
    std::atomic<bool> crashed{false};
    WorkQueue<Event> queue;
    std::thread delivery_thread;
  };

  void EnqueueViewLocked() {  // caller holds mu_
    View view;
    view.view_id = ++view_id_;
    for (const auto& [id, member] : members_) {
      if (!member->crashed.load(std::memory_order_acquire)) {
        view.members.push_back(id);
      }
    }
    std::sort(view.members.begin(), view.members.end());
    Event event;
    event.kind = Event::Kind::kView;
    event.view = view;
    event.deliver_at = std::chrono::steady_clock::now();
    for (const auto& [id, member] : members_) {
      if (member->crashed.load(std::memory_order_acquire)) continue;
      pending_count_.fetch_add(1, std::memory_order_relaxed);
      if (!member->queue.Push(event)) {
        pending_count_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  void DeliveryLoop(MemberId id) {
    Member* self;
    {
      std::lock_guard<std::mutex> lock(mu_);
      self = members_[id].get();
    }
    while (true) {
      auto event = self->queue.Pop();
      if (!event.has_value()) break;  // closed and drained
      if (!self->crashed.load(std::memory_order_acquire)) {
        // Emulated network latency: sleep until the scheduled delivery
        // time. The queue is FIFO and the delay constant, so order is
        // preserved.
        std::this_thread::sleep_until(event->deliver_at);
        if (event->kind == Event::Kind::kFrame) {
          if (h_delivery_lag_us_ != nullptr) {
            // Lag past the emulated network delay = scheduling + backlog.
            h_delivery_lag_us_->Observe(
                std::chrono::duration_cast<
                    std::chrono::duration<double, std::micro>>(
                    std::chrono::steady_clock::now() - event->deliver_at)
                    .count());
          }
          self->sink->OnFrame(event->base_seqno, event->frame);
        } else {
          self->sink->OnViewChange(event->view);
        }
      }
      const int64_t left =
          pending_count_.fetch_sub(1, std::memory_order_acq_rel);
      if (g_queue_depth_ != nullptr) g_queue_depth_->Set(left - 1);
      if (left == 1) {
        std::lock_guard<std::mutex> lock(quiesce_mu_);
        quiesce_cv_.notify_all();
      }
    }
  }

  TransportOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<MemberId, std::unique_ptr<Member>> members_;
  MemberId next_member_;
  uint64_t next_seqno_ = 0;
  uint64_t view_id_ = 0;
  bool shutdown_ = false;

  std::atomic<int64_t> pending_count_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  obs::Histogram* h_delivery_lag_us_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
};

}  // namespace

std::unique_ptr<Transport> MakeInProcessTransport(
    const TransportOptions& options) {
  return std::make_unique<InProcessTransport>(options);
}

}  // namespace sirep::gcs
