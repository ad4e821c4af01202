#ifndef SIREP_GCS_WIRE_H_
#define SIREP_GCS_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "gcs/transport.h"

namespace sirep::gcs {

/// Multicast frame wire format, built on the sql/serde.h primitives
/// (little-endian, length-prefixed). One frame carries one application
/// message, which occupies one slot of the total order:
///
///   u32     magic      "SIRW" (0x57524953)
///   u8      version    kWireVersion
///   u8      flags      reserved, must be 0
///   u32     sender     MemberId of the multicasting member
///   string  type       application tag ("writeset", "ddl", ...)
///   u64     stash_id   0 = payload bytes follow; non-zero = payload
///                      lives in the sender process' stash (types
///                      without a registered wire codec)
///   u64     enqueue_ns Multicast() timestamp (latency accounting)
///   string  payload    codec-encoded message body (empty if stashed)
///
/// Every member runs the same binary, so there is one version: decoders
/// accept kWireVersion only. They fail with kInvalidArgument on
/// truncation, bad magic, any other version, non-zero flags, a length
/// that overruns the frame, or trailing bytes — never by reading out of
/// bounds.

constexpr uint32_t kWireMagic = 0x57524953;  // "SIRW"
constexpr uint8_t kWireVersion = 5;

struct WireFrame {
  MemberId sender = kInvalidMember;
  std::string type;
  uint64_t stash_id = 0;
  uint64_t enqueue_ns = 0;
  std::string payload;
};

void EncodeWireFrame(const WireFrame& frame, std::string* out);
Status DecodeWireFrame(const std::string& in, WireFrame* out);

}  // namespace sirep::gcs

#endif  // SIREP_GCS_WIRE_H_
