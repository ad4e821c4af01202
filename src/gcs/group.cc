#include "gcs/group.h"

#include <algorithm>
#include <optional>

#include "common/failpoint.h"
#include "common/logging.h"
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
/// stash), hands each message to the listener, and records delivery
/// metrics. Runs on whichever thread the transport delivers the
/// member's events on, one event at a time, so everything here stays in
/// total order.
class Group::MemberSink : public FrameSink {
 public:
  MemberSink(Group* group, GroupListener* listener)
      : group_(group), listener_(listener) {}

  void OnFrame(uint64_t seqno, const Frame& frame) override {
    Message message;
    message.sender = frame.sender;
    message.seqno = seqno;
    if (frame.encoded.empty()) {
      // Pointer path (in-process transport): the payload passes through.
      message.type = frame.entry.type;
      message.payload = frame.entry.payload;
      message.enqueue_ns = frame.entry.enqueue_ns;
    } else {
      WireFrame wire;
      const Status status = DecodeWireFrame(frame.encoded, &wire);
      if (!status.ok()) {
        SIREP_ELOG << "GCS: dropping undecodable frame at seqno " << seqno
                   << ": " << status;
        return;
      }
      message.payload =
          group_->ResolvePayload(wire.type, wire.stash_id, wire.payload);
      if (message.payload == nullptr) return;  // already logged
      message.type = std::move(wire.type);
      message.enqueue_ns = wire.enqueue_ns;
    }
    group_->h_multicast_us_->Observe(
        obs::NanosToUs(obs::MonotonicNanos() - message.enqueue_ns));
    listener_->OnDeliver(message);
    group_->c_delivered_->Increment();
  }

  void OnViewChange(const View& view) override {
    listener_->OnViewChange(view);
  }

 private:
  Group* group_;
  GroupListener* listener_;
};

Group::Group(GroupOptions options, MemberId first_member) {
  h_multicast_us_ = registry_.GetLatencyHistogram("gcs.multicast_us");
  c_delivered_ = registry_.GetCounter("gcs.messages_delivered");
  c_frames_ = registry_.GetCounter("gcs.frames_sent");

  TransportOptions transport_options;
  transport_options.multicast_delay = options.multicast_delay;
  transport_options.registry = &registry_;
  transport_options.first_member = first_member;
  transport_ = options.transport == TransportKind::kTcp
                   ? MakeTcpSequencerTransport(transport_options)
                   : MakeInProcessTransport(transport_options);
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

void Group::Crash(MemberId member) { transport_->Crash(member); }

bool Group::IsAlive(MemberId member) const {
  return !shutdown_.load(std::memory_order_acquire) &&
         transport_->IsAlive(member);
}

Status Group::Multicast(MemberId sender, std::string type,
                        std::shared_ptr<const void> payload) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::Unavailable("group is shut down");
  }
  // Transport-agnostic send-drop injection: the message never enters the
  // total order, mimicking a transient dissemination failure on any
  // backend (the TCP transport additionally has socket-level points).
  SIREP_FAILPOINT("gcs.send");
  Frame frame;
  frame.sender = sender;
  frame.entry.type = std::move(type);
  frame.entry.payload = std::move(payload);
  frame.entry.enqueue_ns = obs::MonotonicNanos();
  if (transport_->needs_encoding()) EncodeFrame(&frame);
  const Status status = transport_->Multicast(std::move(frame));
  if (status.ok()) c_frames_->Increment();
  return status;
}

void Group::EncodeFrame(Frame* frame) {
  FrameEntry& entry = frame->entry;
  WireFrame wire;
  wire.sender = frame->sender;
  std::optional<PayloadCodec> codec;
  {
    std::lock_guard<std::mutex> lock(codec_mu_);
    auto it = codecs_.find(entry.type);
    if (it != codecs_.end()) codec = it->second;
  }
  if (codec.has_value()) {
    codec->encode(entry.payload.get(), &wire.payload);
  } else {
    // No codec: park the payload in the stash; only the handle crosses
    // the wire. Works because all members share this Group object.
    std::lock_guard<std::mutex> lock(stash_mu_);
    wire.stash_id = ++next_stash_id_;
    stash_[wire.stash_id] = std::move(entry.payload);
    stash_order_.push_back(wire.stash_id);
    while (stash_order_.size() > kStashCapacity) {
      stash_.erase(stash_order_.front());
      stash_order_.pop_front();
    }
  }
  wire.type = std::move(entry.type);
  wire.enqueue_ns = entry.enqueue_ns;
  EncodeWireFrame(wire, &frame->encoded);
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

void Group::WaitForQuiescence() { transport_->WaitForQuiescence(); }

void Group::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  transport_->Shutdown();
}

}  // namespace sirep::gcs
