#ifndef SIREP_GCS_GROUP_H_
#define SIREP_GCS_GROUP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "gcs/transport.h"
#include "obs/metrics.h"

namespace sirep::gcs {

/// A multicast message as seen by the application. On the in-process
/// transport the payload is the sender's immutable blob, shared by all
/// recipients (zero copy); on the TCP transport it is a fresh object
/// decoded from the wire by the type's registered codec.
struct Message {
  MemberId sender = kInvalidMember;
  uint64_t seqno = 0;  ///< position in the total order (1-based)
  std::string type;    ///< application tag, e.g. "writeset"
  std::shared_ptr<const void> payload;
  /// Sender's MonotonicNanos(), taken inside Multicast() and delivered
  /// unchanged to every member: the origin's clock reading for latency
  /// accounting and the middleware's cross-replica commit stages (exact
  /// only where sender and receiver share a clock).
  uint64_t enqueue_ns = 0;

  template <typename T>
  const T* As() const {
    return static_cast<const T*>(payload.get());
  }
};

/// A member's delivery callbacks. They run in total order, one at a
/// time, and never under a GCS lock, so a callback may itself multicast.
/// They run on the member's delivery thread or — in-process, while the
/// member is the only live one — on the thread multicasting from that
/// member, which then delivers its own frame. Implementations must not
/// block indefinitely (they may take locks, enqueue work, etc.), and
/// must not take a lock that the member's own Multicast() or Crash()
/// callers hold while calling.
class GroupListener {
 public:
  virtual ~GroupListener() = default;
  virtual void OnDeliver(const Message& message) = 0;
  virtual void OnViewChange(const View& view) = 0;
};

/// Serializes one payload type for transports that ship bytes (see
/// gcs/wire.h). Types without a codec still work on every transport:
/// their payloads ride the group's in-process stash and only a stash
/// handle crosses the wire (sufficient while all replicas share one
/// process; a true multi-process deployment requires codecs for every
/// multicast type).
struct PayloadCodec {
  std::function<void(const void* payload, std::string* out)> encode;
  std::function<Result<std::shared_ptr<const void>>(const std::string& in)>
      decode;
};

struct GroupOptions {
  /// Emulated one-way multicast latency (ordering + network). The paper
  /// reports Spread's uniform reliable multicast at <= 3 ms in a LAN.
  /// Applied by the in-process backend only.
  std::chrono::microseconds multicast_delay{0};

  /// Which dissemination backend to run on.
  TransportKind transport = TransportKind::kInProcess;
};

/// Group communication endpoint providing the guarantees SI-Rep needs
/// from Spread (paper §5.2):
///
///  * **Total order**: all members deliver all messages in one global
///    order (sequencer-based).
///  * **Uniform reliable delivery**: once Multicast() has accepted a
///    message, a subsequent crash of the sender (or of any member)
///    cannot un-deliver it at survivors, and every survivor delivers it
///    *before* the crash notification (view change).
///  * **View synchrony**: membership changes are delivered as views,
///    totally ordered with messages.
///
/// How those guarantees are produced is the pluggable Transport's
/// business (gcs/transport.h): the in-process backend or the TCP
/// sequencer backend, selected by GroupOptions::transport. Group itself
/// handles everything above the frame: payload encode/decode (codecs +
/// stash), metrics, and listener fan-out. Each message is one frame and
/// one slot of the total order. Each member has a delivery thread;
/// listener callbacks run there, or on a lone member's own multicasting
/// thread (see GroupListener), strictly in order.
class Group {
 public:
  /// `first_member` is the id of the first member to join; later joins
  /// count up from it (see TransportOptions::first_member).
  explicit Group(GroupOptions options = {}, MemberId first_member = 0);
  ~Group();

  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  /// Adds a member. The new view is delivered to all members (including
  /// the new one, as its first event).
  MemberId Join(GroupListener* listener);

  /// Simulates a crash: the member stops receiving anything, its future
  /// multicasts are rejected, and survivors get a view change ordered
  /// after every message multicast before the crash. Called anywhere but
  /// inside one of the member's own callbacks, returns only once no
  /// callback of the member is running and none will start — also when
  /// the member had crashed already (its own callback may have crashed
  /// it and still be unwinding), so the caller may then destroy its
  /// listener. A callback that crashes its own member does not wait.
  void Crash(MemberId member);

  /// True if the member has not crashed (and the group is running).
  bool IsAlive(MemberId member) const;

  /// Multicasts to all members in total order. Returns kUnavailable if
  /// the sender has crashed or the group is shut down. In-process, when
  /// the sender is the only live member and idle and the caller is not
  /// inside a callback, the call runs the sender's own callback for this
  /// message before it returns.
  Status Multicast(MemberId sender, std::string type,
                   std::shared_ptr<const void> payload);

  /// Registers the wire codec for a payload type (idempotent; later
  /// registrations win). Byte-shipping transports use it to serialize
  /// payloads into frames; types without one fall back to the stash.
  void RegisterCodec(const std::string& type, PayloadCodec codec);

  View CurrentView() const;

  /// Blocks until every multicast message has been delivered everywhere
  /// (test helper).
  void WaitForQuiescence();

  /// Stops delivery threads. Pending events are dropped. Returns only
  /// after every callback in progress, on any thread, has returned.
  void Shutdown();

  /// Messages delivered so far, summed over members
  /// ("gcs.messages_delivered").
  uint64_t messages_delivered() const { return c_delivered_->Value(); }

  /// This group's metrics registry: multicast latency (enqueue to
  /// delivery, "gcs.multicast_us"), scheduler lag past the emulated
  /// network delay ("gcs.delivery_lag_us"), the undelivered-event
  /// backlog gauge ("gcs.queue_depth"), delivered-message and sent-frame
  /// counters ("gcs.messages_delivered", "gcs.frames_sent": one frame
  /// per accepted multicast), and, on the in-process transport, the
  /// frames delivered on their sender's own thread
  /// ("gcs.sender_deliveries").
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

 private:
  class MemberSink;

  /// Encodes `frame`'s entry into `frame->encoded` for byte-shipping
  /// transports: the codec's bytes, or, for a type without a codec, a
  /// handle to the payload parked in the stash.
  void EncodeFrame(Frame* frame);

  /// Delivery-side payload reconstruction (codec decode or stash fetch).
  std::shared_ptr<const void> ResolvePayload(const std::string& type,
                                             uint64_t stash_id,
                                             const std::string& bytes);

  obs::MetricsRegistry registry_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<MemberSink>> sinks_;
  std::mutex sinks_mu_;

  mutable std::mutex codec_mu_;
  std::unordered_map<std::string, PayloadCodec> codecs_;

  /// Payloads of types without a codec, parked so the wire only carries
  /// a handle. Capped FIFO: entries beyond kStashCapacity evict oldest.
  mutable std::mutex stash_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const void>> stash_;
  std::deque<uint64_t> stash_order_;
  uint64_t next_stash_id_ = 0;

  std::atomic<bool> shutdown_{false};

  obs::Histogram* h_multicast_us_ = nullptr;
  obs::Counter* c_delivered_ = nullptr;
  obs::Counter* c_frames_ = nullptr;
};

}  // namespace sirep::gcs

#endif  // SIREP_GCS_GROUP_H_
