// The original single-process dissemination model: the sequencer is a
// mutex, delivery queues are in-memory, payloads are shared pointers
// (zero copy). Retained as the default backend because it is exact and
// fast for single-process experiments; the TCP backend (tcp_transport.cc)
// exists for everything that needs real frames on real sockets.
//
// Each member's deliveries are run by whichever thread holds that
// member's *baton*: one event at a time, in queue (= total) order, with
// no transport lock held. Usually the member's delivery thread holds it.
// A sender multicasting while its member is alone in the group and idle
// (no event queued or being delivered) claims that member's baton and
// delivers its frame on its own thread, so a local commit needs neither
// a delivery-thread wake-up nor a client wake-up. Anything queued
// behind that frame goes back to the delivery thread. Crash() waits for
// the baton to go free, which is how it knows no callback is running.
//
// Only a lone member takes this path. With other members, a sender that
// delivers its own frame waits for no delivery thread, so nothing paces
// it: under load it outran another member's delivery thread for good,
// and that member's own client queued behind the whole backlog (on a
// 4-vCPU machine: 50-300 ms of delivery lag, the client starved, in
// some runs and not others). Pacing such senders removed the starvation
// but not the cost: each immediate local commit risks a hole
// (Adjustment 3) that the next local start waits out, and the
// remote-apply tail grew.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/thread_name.h"
#include "gcs/transport.h"

namespace sirep::gcs {

namespace {

class InProcessTransport : public Transport {
  struct Member;  // defined in the private section below

  /// The member whose callback the calling thread is running, if any.
  /// Such a thread never claims a baton, so callbacks never nest (a
  /// callback that multicasts leaves its own frame to the queue), and a
  /// callback that crashes its own member does not wait for itself.
  static inline thread_local const Member* t_delivering = nullptr;

 public:
  explicit InProcessTransport(const TransportOptions& options)
      : options_(options), next_member_(options.first_member) {
    if (options_.registry != nullptr) {
      h_delivery_lag_us_ =
          options_.registry->GetLatencyHistogram("gcs.delivery_lag_us");
      g_queue_depth_ = options_.registry->GetGauge("gcs.queue_depth");
      c_sender_deliveries_ =
          options_.registry->GetCounter("gcs.sender_deliveries");
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
    Member* self = member.get();
    members_[id] = std::move(member);
    self->delivery_thread = std::thread([this, self] { DeliveryLoop(self); });
    NameThread(self->delivery_thread, "dlv/" + std::to_string(id));
    EnqueueViewLocked();
    return id;
  }

  void Crash(MemberId member_id) override {
    Member* member = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = members_.find(member_id);
      if (it == members_.end()) return;
      member = it->second.get();
      if (!member->crashed.exchange(true, std::memory_order_acq_rel)) {
        // Stop delivery to the crashed member. Its queue may still hold
        // frames; they are dropped (the process is gone). Uniformity is
        // about *surviving* members, whose queues already hold everything
        // multicast before this point — and the view change below is
        // enqueued after them.
        member->Close();
        SIREP_ILOG << "GCS: member " << member_id << " crashed";
        EnqueueViewLocked();
      }
    }
    if (t_delivering == member) return;
    // Whoever holds the baton drops every event it has not started, so
    // once the baton is free no callback runs or will start. Members are
    // never erased, so `member` outlives the wait.
    std::unique_lock<std::mutex> lock(member->mu);
    member->cv.wait(lock, [&] { return !member->baton; });
  }

  bool IsAlive(MemberId member) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = members_.find(member);
    return it != members_.end() &&
           !it->second->crashed.load(std::memory_order_acquire) &&
           !shutdown_;
  }

  Status Multicast(Frame frame) override {
    // Set when this thread took the sender's baton: it then delivers its
    // own frame, at `own_seqno`, itself, after the lock below.
    Member* self = nullptr;
    uint64_t own_seqno = 0;
    {
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
      Member* const sender = it->second.get();
      // Checked under mu_, which every enqueue and every join holds:
      // nothing can be queued ahead of this frame.
      const bool claim = t_delivering == nullptr &&
                         pending_count_.load(std::memory_order_acquire) == 0 &&
                         AloneLocked(*sender);
      Event event;
      event.kind = Event::Kind::kFrame;
      event.seqno = ++next_seqno_;
      event.frame = std::move(frame);
      event.deliver_at =
          std::chrono::steady_clock::now() + options_.multicast_delay;
      // Enqueue to every live member under the same lock that assigned
      // the sequence numbers: this is what makes the order total and the
      // delivery uniform. The sender (live, checked above) goes last and
      // takes the event itself; the others get copies.
      for (const auto& [id, member] : members_) {
        if (member.get() == sender ||
            member->crashed.load(std::memory_order_acquire)) {
          continue;
        }
        pending_count_.fetch_add(1, std::memory_order_relaxed);
        member->Push(event);
      }
      own_seqno = event.seqno;
      pending_count_.fetch_add(1, std::memory_order_relaxed);
      if (sender->Push(std::move(event), claim)) self = sender;
    }
    if (self != nullptr) DeliverOwn(self, own_seqno);
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
        member->Close();
        threads.push_back(std::move(member->delivery_thread));
      }
    }
    // A delivery thread exits only once its member's baton is free, so
    // joining them also waits out any sender still inside a callback.
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }

 private:
  struct Event {
    enum class Kind { kFrame, kView } kind = Kind::kFrame;
    uint64_t seqno = 0;
    Frame frame;
    View view;
    std::chrono::steady_clock::time_point deliver_at;
  };

  struct Member {
    FrameSink* sink = nullptr;
    /// Set on crash (and shutdown); the baton holder discards any events
    /// still queued instead of delivering them.
    std::atomic<bool> crashed{false};

    /// Guards queue, closed and baton; never held across a callback.
    std::mutex mu;
    /// The delivery thread waits here for queued events and a free
    /// baton; Crash() callers wait here, once the member is closed, for
    /// the baton to go free.
    std::condition_variable cv;
    std::deque<Event> queue;
    bool closed = false;
    /// Held by the one thread running this member's callbacks.
    bool baton = false;
    std::thread delivery_thread;

    /// Queues `event` (the queue is open: the caller checked `crashed`
    /// under the transport lock, which Close() also runs under). With
    /// `claim`, takes the baton if it is free and returns true: the
    /// caller then delivers. Otherwise wakes the delivery thread if the
    /// baton is free, and returns false.
    bool Push(Event event, bool claim = false) {
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(event));
        if (baton) return false;  // the holder delivers or hands back
        if (claim) {
          baton = true;
          return true;
        }
      }
      // Outside the lock, so the woken thread does not block on it; the
      // transport lock the caller holds keeps the member alive.
      cv.notify_one();
      return false;
    }

    void Close() {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
      cv.notify_all();
    }
  };

  /// True if `sender` is the only live member (caller holds mu_).
  bool AloneLocked(const Member& sender) const {
    for (const auto& [id, member] : members_) {
      if (member.get() != &sender &&
          !member->crashed.load(std::memory_order_acquire)) {
        return false;
      }
    }
    return true;
  }

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
      member->Push(event);
    }
  }

  /// Runs one event's callback on the calling thread, which holds the
  /// member's baton and no lock, or drops the event if the member
  /// crashed. Returns true if the callback ran.
  bool Deliver(Member* self, const Event& event) {
    const bool live = !self->crashed.load(std::memory_order_acquire);
    if (live) {
      // Emulated network latency: sleep until the scheduled delivery
      // time, whichever thread delivers. The queue is FIFO and the delay
      // constant, so order is preserved.
      std::this_thread::sleep_until(event.deliver_at);
      t_delivering = self;
      if (event.kind == Event::Kind::kFrame) {
        if (h_delivery_lag_us_ != nullptr) {
          // Lag past the emulated network delay = scheduling + backlog.
          h_delivery_lag_us_->Observe(
              std::chrono::duration_cast<
                  std::chrono::duration<double, std::micro>>(
                  std::chrono::steady_clock::now() - event.deliver_at)
                  .count());
        }
        self->sink->OnFrame(event.seqno, event.frame);
      } else {
        self->sink->OnViewChange(event.view);
      }
      t_delivering = nullptr;
    }
    return live;
  }

  /// Counts one event as delivered. Called under the member's mutex once
  /// the baton is settled, so a quiescent transport has every baton free.
  void Settle() {
    const int64_t left =
        pending_count_.fetch_sub(1, std::memory_order_acq_rel);
    if (g_queue_depth_ != nullptr) g_queue_depth_->Set(left - 1);
    if (left == 1) {
      std::lock_guard<std::mutex> lock(quiesce_mu_);
      quiesce_cv_.notify_all();
    }
  }

  /// The sender's side of the baton. Its member was idle when the caller
  /// queued its frame at `own_seqno`, so that frame heads `self`'s
  /// queue: delivers it, gives the baton back, and wakes the delivery
  /// thread if anything was queued behind it meanwhile.
  void DeliverOwn(Member* self, [[maybe_unused]] uint64_t own_seqno) {
    std::unique_lock<std::mutex> lock(self->mu);
    Event event = std::move(self->queue.front());
    self->queue.pop_front();
    assert(event.kind == Event::Kind::kFrame && event.seqno == own_seqno);
    lock.unlock();
    if (Deliver(self, event) && c_sender_deliveries_ != nullptr) {
      c_sender_deliveries_->Increment();
    }
    lock.lock();
    // Notify under the lock: once the baton is free, Shutdown may join
    // the delivery thread and destroy the member.
    self->baton = false;
    if (self->closed || !self->queue.empty()) self->cv.notify_all();
    Settle();
  }

  void DeliveryLoop(Member* self) {
    std::unique_lock<std::mutex> lock(self->mu);
    while (true) {
      self->cv.wait(lock, [&] {
        return !self->baton && (self->closed || !self->queue.empty());
      });
      if (self->queue.empty()) return;  // closed and drained
      self->baton = true;
      while (self->baton) {
        Event event = std::move(self->queue.front());
        self->queue.pop_front();
        lock.unlock();
        Deliver(self, event);
        lock.lock();
        self->baton = !self->queue.empty();
        Settle();
      }
      if (self->closed) self->cv.notify_all();  // Crash() waiters
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
  obs::Counter* c_sender_deliveries_ = nullptr;
};

}  // namespace

std::unique_ptr<Transport> MakeInProcessTransport(
    const TransportOptions& options) {
  return std::make_unique<InProcessTransport>(options);
}

}  // namespace sirep::gcs
