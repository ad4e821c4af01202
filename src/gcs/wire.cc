#include "gcs/wire.h"

#include "sql/serde.h"

namespace sirep::gcs {

namespace {
/// Smallest possible encoded entry: empty type string (4), stash_id (8),
/// enqueue_ns (8), trace context (8 + 4 + 8 + 8), empty payload (4).
constexpr size_t kMinEntryBytes = 52;
}  // namespace

void EncodeWireFrame(const WireFrame& frame, std::string* out) {
  sql::EncodeU32(kWireMagic, out);
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(0);  // flags
  sql::EncodeU32(frame.sender, out);
  sql::EncodeU32(static_cast<uint32_t>(frame.entries.size()), out);
  for (const auto& entry : frame.entries) {
    sql::EncodeString(entry.type, out);
    sql::EncodeU64(entry.stash_id, out);
    sql::EncodeU64(entry.enqueue_ns, out);
    sql::EncodeU64(entry.trace.trace_id, out);
    sql::EncodeU32(entry.trace.origin_replica, out);
    sql::EncodeU64(entry.trace.origin_mono_ns, out);
    sql::EncodeU64(entry.trace.origin_wall_ns, out);
    sql::EncodeString(entry.payload, out);
  }
}

Status DecodeWireFrame(const std::string& in, WireFrame* out) {
  size_t pos = 0;
  uint32_t magic = 0;
  SIREP_RETURN_IF_ERROR(sql::DecodeU32(in, &pos, &magic));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (pos + 2 > in.size()) {
    return Status::InvalidArgument("truncated frame header");
  }
  const uint8_t version = static_cast<uint8_t>(in[pos++]);
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported frame version " +
                                   std::to_string(version));
  }
  if (in[pos++] != 0) {
    return Status::InvalidArgument("unsupported frame flags");
  }
  uint32_t sender = 0;
  SIREP_RETURN_IF_ERROR(sql::DecodeU32(in, &pos, &sender));
  uint32_t count = 0;
  SIREP_RETURN_IF_ERROR(sql::DecodeU32(in, &pos, &count));
  if (static_cast<size_t>(count) * kMinEntryBytes > in.size() - pos) {
    return Status::InvalidArgument("frame entry count exceeds frame size");
  }
  out->sender = sender;
  out->entries.clear();
  out->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireEntry entry;
    SIREP_RETURN_IF_ERROR(sql::DecodeString(in, &pos, &entry.type));
    SIREP_RETURN_IF_ERROR(sql::DecodeU64(in, &pos, &entry.stash_id));
    SIREP_RETURN_IF_ERROR(sql::DecodeU64(in, &pos, &entry.enqueue_ns));
    SIREP_RETURN_IF_ERROR(sql::DecodeU64(in, &pos, &entry.trace.trace_id));
    SIREP_RETURN_IF_ERROR(
        sql::DecodeU32(in, &pos, &entry.trace.origin_replica));
    SIREP_RETURN_IF_ERROR(
        sql::DecodeU64(in, &pos, &entry.trace.origin_mono_ns));
    SIREP_RETURN_IF_ERROR(
        sql::DecodeU64(in, &pos, &entry.trace.origin_wall_ns));
    SIREP_RETURN_IF_ERROR(sql::DecodeString(in, &pos, &entry.payload));
    out->entries.push_back(std::move(entry));
  }
  if (pos != in.size()) {
    return Status::InvalidArgument("trailing bytes after frame");
  }
  return Status::OK();
}

}  // namespace sirep::gcs
