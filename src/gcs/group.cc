#include "gcs/group.h"

#include <algorithm>
#include <optional>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_name.h"
#include "gcs/wire.h"

namespace sirep::gcs {

namespace {

/// Stash entries beyond this evict oldest-first. The stash only backs
/// in-flight frames, so the cap just bounds damage from a leaked type.
constexpr size_t kStashCapacity = 1024;

}  // namespace

bool View::Contains(MemberId m) const {
  return std::find(members.begin(), members.end(), m) != members.end();
}

/// Per-member frame-to-message adapter: decodes wire frames (codec or
/// stash), fans entries out to the listener as Messages with their
/// per-entry seqnos, and records delivery metrics. Runs on whichever
/// thread the transport delivers the member's events on, one event at a
/// time, so everything here stays in total order.
class Group::MemberSink : public FrameSink {
 public:
  MemberSink(Group* group, GroupListener* listener)
      : group_(group), listener_(listener) {}

  void OnFrame(uint64_t base_seqno, const Frame& frame) override {
    if (!frame.entries.empty()) {
      // Pointer path (in-process transport): payloads pass through.
      for (size_t i = 0; i < frame.entries.size(); ++i) {
        const FrameEntry& entry = frame.entries[i];
        Deliver(frame.sender, base_seqno + i, entry.type, entry.payload,
                entry.enqueue_ns, entry.trace);
      }
      return;
    }
    WireFrame wire;
    const Status status = DecodeWireFrame(frame.encoded, &wire);
    if (!status.ok()) {
      SIREP_ELOG << "GCS: dropping undecodable frame at seqno " << base_seqno
                 << ": " << status;
      return;
    }
    for (size_t i = 0; i < wire.entries.size(); ++i) {
      WireEntry& entry = wire.entries[i];
      auto payload =
          group_->ResolvePayload(entry.type, entry.stash_id, entry.payload);
      if (payload == nullptr) continue;  // already logged
      Deliver(frame.sender, base_seqno + i, entry.type, std::move(payload),
              entry.enqueue_ns, entry.trace);
    }
  }

  void OnViewChange(const View& view) override {
    listener_->OnViewChange(view);
  }

 private:
  void Deliver(MemberId sender, uint64_t seqno, const std::string& type,
               std::shared_ptr<const void> payload, uint64_t enqueue_ns,
               const obs::TraceContext& trace) {
    Message message;
    message.sender = sender;
    message.seqno = seqno;
    message.type = type;
    message.payload = std::move(payload);
    message.enqueue_ns = enqueue_ns;
    message.trace = trace;
    group_->h_multicast_us_->Observe(
        obs::NanosToUs(obs::MonotonicNanos() - enqueue_ns));
    listener_->OnDeliver(message);
    group_->delivered_count_.fetch_add(1, std::memory_order_relaxed);
    group_->c_delivered_->Increment();
  }

  Group* group_;
  GroupListener* listener_;
};

Group::Group(GroupOptions options, MemberId first_member)
    : options_(options) {
  h_multicast_us_ = registry_.GetLatencyHistogram("gcs.multicast_us");
  c_delivered_ = registry_.GetCounter("gcs.messages_delivered");
  c_frames_ = registry_.GetCounter("gcs.frames_sent");

  TransportOptions transport_options;
  transport_options.multicast_delay = options_.multicast_delay;
  transport_options.registry = &registry_;
  transport_options.tcp_send_timeout = options_.tcp_send_timeout;
  transport_options.tcp_connect_deadline = options_.tcp_connect_deadline;
  transport_options.first_member = first_member;
  transport_ = options_.transport == TransportKind::kTcp
                   ? MakeTcpSequencerTransport(transport_options)
                   : MakeInProcessTransport(transport_options);

  batching_ = options_.batch_max_count > 1;
  if (batching_) {
    flusher_thread_ = std::thread([this] { FlusherLoop(); });
    NameThread(flusher_thread_, "gcs-flush");
  }
}

Group::~Group() { Shutdown(); }

MemberId Group::Join(GroupListener* listener) {
  if (shutdown_.load(std::memory_order_acquire)) return kInvalidMember;
  auto sink = std::make_unique<MemberSink>(this, listener);
  MemberSink* raw = sink.get();
  {
    std::lock_guard<std::mutex> lock(sinks_mu_);
    sinks_.push_back(std::move(sink));
  }
  return transport_->AddMember(raw);
}

void Group::RegisterCodec(const std::string& type, PayloadCodec codec) {
  std::lock_guard<std::mutex> lock(codec_mu_);
  codecs_[type] = std::move(codec);
}

void Group::Crash(MemberId member) {
  {
    // The crashed process' queued-but-unsent batch dies with it.
    std::lock_guard<std::mutex> lock(batch_mu_);
    batches_.erase(member);
  }
  transport_->Crash(member);
}

bool Group::IsAlive(MemberId member) const {
  return !shutdown_.load(std::memory_order_acquire) &&
         transport_->IsAlive(member);
}

Group::Staged Group::Stage(MemberId sender, std::string type,
                           std::shared_ptr<const void> payload,
                           const obs::TraceContext& trace) {
  (void)sender;
  Staged staged;
  staged.entry.type = std::move(type);
  staged.entry.enqueue_ns = obs::MonotonicNanos();
  staged.entry.trace = trace;
  if (!transport_->needs_encoding()) {
    staged.entry.payload = std::move(payload);
    staged.bytes = staged.entry.type.size() + sizeof(FrameEntry);
    return staged;
  }
  std::optional<PayloadCodec> codec;
  {
    std::lock_guard<std::mutex> lock(codec_mu_);
    auto it = codecs_.find(staged.entry.type);
    if (it != codecs_.end()) codec = it->second;
  }
  if (codec.has_value()) {
    codec->encode(payload.get(), &staged.wire_payload);
  } else {
    // No codec: park the payload in the stash; only the handle crosses
    // the wire. Works because all members share this Group object.
    std::lock_guard<std::mutex> lock(stash_mu_);
    staged.entry.stash_id = ++next_stash_id_;
    stash_[staged.entry.stash_id] = std::move(payload);
    stash_order_.push_back(staged.entry.stash_id);
    while (stash_order_.size() > kStashCapacity) {
      stash_.erase(stash_order_.front());
      stash_order_.pop_front();
    }
  }
  staged.bytes = staged.entry.type.size() + staged.wire_payload.size() + 24;
  return staged;
}

Status Group::Multicast(MemberId sender, std::string type,
                        std::shared_ptr<const void> payload,
                        obs::TraceContext trace) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::Unavailable("group is shut down");
  }
  // Transport-agnostic send-drop injection: the message never enters the
  // total order, mimicking a transient dissemination failure on any
  // backend (the TCP transport additionally has socket-level points).
  SIREP_FAILPOINT("gcs.send");
  if (!batching_) {
    Staged staged = Stage(sender, std::move(type), std::move(payload), trace);
    Frame frame;
    frame.sender = sender;
    frame.message_count = 1;
    if (transport_->needs_encoding()) {
      WireFrame wire;
      wire.sender = sender;
      wire.entries.push_back({std::move(staged.entry.type),
                              staged.entry.stash_id, staged.entry.enqueue_ns,
                              staged.entry.trace,
                              std::move(staged.wire_payload)});
      EncodeWireFrame(wire, &frame.encoded);
    } else {
      frame.entries.push_back(std::move(staged.entry));
    }
    // Count the frame before the transport sees it: once a recipient
    // observes a delivery from this frame, frames_sent() must already
    // include it.
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    // This thread holds no GCS lock, so the transport may run the
    // sender's own deliveries on it (never so from a batch flush, which
    // holds batch_mu_ or runs on the flusher thread).
    frame.sender_delivers = true;
    const Status status = transport_->Multicast(std::move(frame));
    if (status.ok()) {
      c_frames_->Increment();
    } else {
      frames_sent_.fetch_sub(1, std::memory_order_relaxed);
    }
    return status;
  }
  // Batching path: stage into the sender's pending batch; flush when the
  // count/bytes budget is hit (the window flush runs on FlusherLoop).
  if (!transport_->IsAlive(sender)) {
    return Status::Unavailable("sender " + std::to_string(sender) +
                               " has crashed");
  }
  Staged staged = Stage(sender, std::move(type), std::move(payload), trace);
  std::lock_guard<std::mutex> lock(batch_mu_);
  Batch& batch = batches_[sender];
  if (batch.staged.empty()) {
    batch.deadline = std::chrono::steady_clock::now() + options_.batch_window;
    batch_cv_.notify_all();  // flusher re-arms for the new deadline
  }
  batch.bytes += staged.bytes;
  batch.staged.push_back(std::move(staged));
  if (batch.staged.size() >= options_.batch_max_count ||
      batch.bytes >= options_.batch_max_bytes) {
    FlushBatchLocked(sender, &batch);
  }
  return Status::OK();
}

void Group::FlushBatchLocked(MemberId sender, Batch* batch) {
  if (batch->staged.empty()) return;
  Frame frame;
  frame.sender = sender;
  frame.message_count = static_cast<uint32_t>(batch->staged.size());
  if (transport_->needs_encoding()) {
    WireFrame wire;
    wire.sender = sender;
    wire.entries.reserve(batch->staged.size());
    for (Staged& staged : batch->staged) {
      wire.entries.push_back({std::move(staged.entry.type),
                              staged.entry.stash_id, staged.entry.enqueue_ns,
                              staged.entry.trace,
                              std::move(staged.wire_payload)});
    }
    EncodeWireFrame(wire, &frame.encoded);
  } else {
    frame.entries.reserve(batch->staged.size());
    for (Staged& staged : batch->staged) {
      frame.entries.push_back(std::move(staged.entry));
    }
  }
  batch->staged.clear();
  batch->bytes = 0;
  // Pre-count as in the non-batching path (delivery may be observed
  // before Multicast returns).
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  const Status status = transport_->Multicast(std::move(frame));
  if (status.ok()) {
    c_frames_->Increment();
  } else {
    frames_sent_.fetch_sub(1, std::memory_order_relaxed);
    SIREP_WLOG << "GCS: batch flush for sender " << sender
               << " failed: " << status;
  }
}

void Group::FlushAll() {
  std::lock_guard<std::mutex> lock(batch_mu_);
  for (auto& [sender, batch] : batches_) {
    FlushBatchLocked(sender, &batch);
  }
}

void Group::FlusherLoop() {
  std::unique_lock<std::mutex> lock(batch_mu_);
  while (!flusher_stop_) {
    const auto now = std::chrono::steady_clock::now();
    std::optional<std::chrono::steady_clock::time_point> next;
    for (auto& [sender, batch] : batches_) {
      if (batch.staged.empty()) continue;
      if (batch.deadline <= now) {
        FlushBatchLocked(sender, &batch);
      } else if (!next.has_value() || batch.deadline < *next) {
        next = batch.deadline;
      }
    }
    if (next.has_value()) {
      batch_cv_.wait_until(lock, *next);
    } else {
      batch_cv_.wait(lock);
    }
  }
}

std::shared_ptr<const void> Group::ResolvePayload(const std::string& type,
                                                 uint64_t stash_id,
                                                 const std::string& bytes) {
  if (stash_id != 0) {
    std::lock_guard<std::mutex> lock(stash_mu_);
    auto it = stash_.find(stash_id);
    if (it == stash_.end()) {
      SIREP_ELOG << "GCS: stash miss for \"" << type << "\" id " << stash_id
                 << " (evicted? register a codec for this type)";
      return nullptr;
    }
    return it->second;
  }
  std::optional<PayloadCodec> codec;
  {
    std::lock_guard<std::mutex> lock(codec_mu_);
    auto it = codecs_.find(type);
    if (it != codecs_.end()) codec = it->second;
  }
  if (!codec.has_value()) {
    SIREP_ELOG << "GCS: no codec registered for delivered type \"" << type
               << "\"";
    return nullptr;
  }
  auto decoded = codec->decode(bytes);
  if (!decoded.ok()) {
    SIREP_ELOG << "GCS: failed to decode \"" << type
               << "\" payload: " << decoded.status();
    return nullptr;
  }
  return decoded.value();
}

View Group::CurrentView() const { return transport_->CurrentView(); }

void Group::WaitForQuiescence() {
  if (batching_) FlushAll();
  transport_->WaitForQuiescence();
}

void Group::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  if (batching_) {
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      flusher_stop_ = true;
    }
    batch_cv_.notify_all();
    if (flusher_thread_.joinable()) flusher_thread_.join();
  }
  transport_->Shutdown();
}

}  // namespace sirep::gcs
