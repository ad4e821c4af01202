#ifndef SIREP_MIDDLEWARE_MESSAGES_H_
#define SIREP_MIDDLEWARE_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "gcs/group.h"
#include "middleware/global_txn_id.h"
#include "storage/write_set.h"

namespace sirep::middleware {

/// Message type tag used on the group for writeset dissemination.
inline constexpr char kWriteSetMessageType[] = "writeset";

/// The payload multicast in total order when a local transaction asks to
/// commit (paper Fig. 4, I.2.g): the writeset, the sender's certification
/// watermark, and the global transaction id for outcome tracking. The
/// origin's clock reading for the cross-replica stages is the GCS's
/// multicast stamp (gcs::Message::enqueue_ns), not part of the payload.
struct WriteSetMessage {
  GlobalTxnId gid;
  /// `lastvalidated_tid` at the origin replica when the message was sent:
  /// global validation only needs to check writesets validated after this
  /// point (everything before was covered by local validation).
  uint64_t cert = 0;
  std::shared_ptr<const storage::WriteSet> ws;
};

/// Message type tag for replicated DDL.
inline constexpr char kDdlMessageType[] = "ddl";

/// DDL (CREATE TABLE / CREATE INDEX) is replicated by shipping the
/// statement text in total order; every replica executes it at the same
/// position relative to all writesets, so schema changes land before any
/// writeset that references them.
struct DdlMessage {
  GlobalTxnId gid;
  std::string sql;
};

/// Wire encodings for the middleware's multicast payloads, layered on the
/// sql/serde.h primitives (little-endian, length-prefixed, versioned;
/// kInvalidArgument on truncation — see DESIGN.md "Wire format &
/// transport"). WriteSetMessage:
///
///   u8   version   kMessageWireVersion
///   u32  gid.replica
///   u64  gid.seq
///   u64  cert
///   ...  writeset  (storage::EncodeWriteSet)
///
/// DdlMessage: u8 version, u32 gid.replica, u64 gid.seq, string sql.
///
/// Every replica runs the same binary, so there is one version:
/// decoders reject any other (versions 1-4 had other layouts).
inline constexpr uint8_t kMessageWireVersion = 5;

void EncodeWriteSetMessage(const WriteSetMessage& msg, std::string* out);
Status DecodeWriteSetMessage(const std::string& in, WriteSetMessage* out);

void EncodeDdlMessage(const DdlMessage& msg, std::string* out);
Status DecodeDdlMessage(const std::string& in, DdlMessage* out);

/// Registers the writeset + DDL codecs on `group` so byte-shipping
/// transports serialize them instead of falling back to the payload
/// stash. Idempotent; every replica calls it on Start().
void RegisterMessageCodecs(gcs::Group* group);

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_MESSAGES_H_
