#include "gcs/wire.h"

#include "sql/serde.h"

namespace sirep::gcs {

void EncodeWireFrame(const WireFrame& frame, std::string* out) {
  sql::EncodeU32(kWireMagic, out);
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(0);  // flags
  sql::EncodeU32(frame.sender, out);
  sql::EncodeString(frame.type, out);
  sql::EncodeU64(frame.stash_id, out);
  sql::EncodeU64(frame.enqueue_ns, out);
  sql::EncodeString(frame.payload, out);
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
  SIREP_RETURN_IF_ERROR(sql::DecodeU32(in, &pos, &out->sender));
  SIREP_RETURN_IF_ERROR(sql::DecodeString(in, &pos, &out->type));
  SIREP_RETURN_IF_ERROR(sql::DecodeU64(in, &pos, &out->stash_id));
  SIREP_RETURN_IF_ERROR(sql::DecodeU64(in, &pos, &out->enqueue_ns));
  SIREP_RETURN_IF_ERROR(sql::DecodeString(in, &pos, &out->payload));
  if (pos != in.size()) {
    return Status::InvalidArgument("trailing bytes after frame");
  }
  return Status::OK();
}

}  // namespace sirep::gcs
