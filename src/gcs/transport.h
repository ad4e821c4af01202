#ifndef SIREP_GCS_TRANSPORT_H_
#define SIREP_GCS_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace sirep::gcs {

/// Identifies a group member (one SI-Rep middleware replica).
using MemberId = uint32_t;
constexpr MemberId kInvalidMember = ~0u;

/// A membership view: delivered to surviving members after every
/// join/crash, in order with respect to messages (view synchrony).
struct View {
  uint64_t view_id = 0;
  std::vector<MemberId> members;

  bool Contains(MemberId m) const;
};

/// Which dissemination backend a Group runs on.
enum class TransportKind {
  /// Zero-copy in-process queues (the original single-process model).
  kInProcess,
  /// Loopback TCP with a sequencer process-role: real sockets, real
  /// serialized frames, ack-before-deliver uniform delivery.
  kTcp,
};

/// One application message in the pointer representation used by
/// transports that do not serialize.
struct FrameEntry {
  std::string type;
  std::shared_ptr<const void> payload;
  /// MonotonicNanos at Multicast() time, for end-to-end latency metrics.
  uint64_t enqueue_ns = 0;
};

/// A multicast unit: one message, occupying one slot of the total
/// order. Exactly one representation is populated: `entry` for
/// transports with needs_encoding() == false, `encoded` (a gcs/wire.h
/// frame) for transports that ship bytes.
struct Frame {
  MemberId sender = kInvalidMember;
  FrameEntry entry;
  std::string encoded;
};

/// Receives one member's totally ordered event stream. Callbacks run in
/// total order, one at a time, and never under a transport or Group
/// lock, so a callback may itself multicast. They run on the member's
/// delivery thread or, on the in-process transport, on a thread that is
/// multicasting from that member while it is the only live member.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// `seqno` is the frame's slot in the total order (1-based).
  virtual void OnFrame(uint64_t seqno, const Frame& frame) = 0;
  virtual void OnViewChange(const View& view) = 0;
};

struct TransportOptions {
  /// Emulated one-way multicast latency. Applied by the in-process
  /// backend; the TCP backend has real (loopback) network latency and
  /// ignores it.
  std::chrono::microseconds multicast_delay{0};
  /// Optional registry for transport-internal metrics
  /// ("gcs.delivery_lag_us", "gcs.queue_depth", and in-process
  /// "gcs.sender_deliveries"). May be null.
  obs::MetricsRegistry* registry = nullptr;
  /// Id of the first member; later joins count up from it. A cluster
  /// running several groups gives each a disjoint id range, so member
  /// ids (and the global transaction ids built from them) stay unique
  /// cluster-wide.
  MemberId first_member = 0;
};

/// The dissemination seam behind gcs::Group: assigns the global sequence
/// numbers and delivers frames + views to every member's sink with the
/// paper's §5.2 guarantees (total order, uniform reliable delivery,
/// view synchrony). Group handles everything above the frame: payload
/// encode/decode, metrics, listener fan-out.
class Transport {
 public:
  virtual ~Transport() = default;

  /// True if Multicast() requires Frame::encoded (wire bytes); false if
  /// the transport passes Frame::entry pointers through unserialized.
  virtual bool needs_encoding() const = 0;

  /// Adds a member; its first delivered event is the view containing it.
  /// Returns kInvalidMember after Shutdown().
  virtual MemberId AddMember(FrameSink* sink) = 0;

  /// Simulates the member's crash: no further deliveries to it, its
  /// future multicasts fail, survivors get an ordered view change after
  /// every frame multicast before the crash. Unless the caller is inside
  /// one of the member's own callbacks, returns only once no callback of
  /// the member is running, also when it had crashed already.
  virtual void Crash(MemberId member) = 0;

  virtual bool IsAlive(MemberId member) const = 0;

  /// Multicasts `frame` (frame.sender set) to all members in total
  /// order. kUnavailable if the sender crashed or the transport is shut
  /// down.
  virtual Status Multicast(Frame frame) = 0;

  virtual View CurrentView() const = 0;

  /// Blocks until every frame handed to Multicast() has been delivered
  /// at every live member (test helper).
  virtual void WaitForQuiescence() = 0;

  /// Stops delivery. Pending events are dropped.
  virtual void Shutdown() = 0;
};

std::unique_ptr<Transport> MakeInProcessTransport(
    const TransportOptions& options);
std::unique_ptr<Transport> MakeTcpSequencerTransport(
    const TransportOptions& options);

}  // namespace sirep::gcs

#endif  // SIREP_GCS_TRANSPORT_H_
