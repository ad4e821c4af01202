#include "middleware/messages.h"

#include "sql/serde.h"

namespace sirep::middleware {

namespace {

Status DecodeHeader(const std::string& in, size_t* pos, GlobalTxnId* gid) {
  if (*pos >= in.size()) {
    return Status::InvalidArgument("truncated message: missing version");
  }
  const uint8_t version = static_cast<uint8_t>(in[(*pos)++]);
  if (version != kMessageWireVersion) {
    return Status::InvalidArgument("unsupported message version " +
                                   std::to_string(version));
  }
  SIREP_RETURN_IF_ERROR(sql::DecodeU32(in, pos, &gid->replica));
  SIREP_RETURN_IF_ERROR(sql::DecodeU64(in, pos, &gid->seq));
  return Status::OK();
}

}  // namespace

void EncodeWriteSetMessage(const WriteSetMessage& msg, std::string* out) {
  out->push_back(static_cast<char>(kMessageWireVersion));
  sql::EncodeU32(msg.gid.replica, out);
  sql::EncodeU64(msg.gid.seq, out);
  sql::EncodeU64(msg.cert, out);
  static const storage::WriteSet kEmpty;
  storage::EncodeWriteSet(msg.ws != nullptr ? *msg.ws : kEmpty, out);
}

Status DecodeWriteSetMessage(const std::string& in, WriteSetMessage* out) {
  size_t pos = 0;
  SIREP_RETURN_IF_ERROR(DecodeHeader(in, &pos, &out->gid));
  SIREP_RETURN_IF_ERROR(sql::DecodeU64(in, &pos, &out->cert));
  auto ws = std::make_shared<storage::WriteSet>();
  SIREP_RETURN_IF_ERROR(storage::DecodeWriteSet(in, &pos, ws.get()));
  if (pos != in.size()) {
    return Status::InvalidArgument("trailing bytes after writeset message");
  }
  out->ws = std::move(ws);
  return Status::OK();
}

void EncodeDdlMessage(const DdlMessage& msg, std::string* out) {
  out->push_back(static_cast<char>(kMessageWireVersion));
  sql::EncodeU32(msg.gid.replica, out);
  sql::EncodeU64(msg.gid.seq, out);
  sql::EncodeString(msg.sql, out);
}

Status DecodeDdlMessage(const std::string& in, DdlMessage* out) {
  size_t pos = 0;
  SIREP_RETURN_IF_ERROR(DecodeHeader(in, &pos, &out->gid));
  SIREP_RETURN_IF_ERROR(sql::DecodeString(in, &pos, &out->sql));
  if (pos != in.size()) {
    return Status::InvalidArgument("trailing bytes after ddl message");
  }
  return Status::OK();
}

void RegisterMessageCodecs(gcs::Group* group) {
  gcs::PayloadCodec writeset_codec;
  writeset_codec.encode = [](const void* payload, std::string* out) {
    EncodeWriteSetMessage(*static_cast<const WriteSetMessage*>(payload), out);
  };
  writeset_codec.decode =
      [](const std::string& in) -> Result<std::shared_ptr<const void>> {
    auto msg = std::make_shared<WriteSetMessage>();
    SIREP_RETURN_IF_ERROR(DecodeWriteSetMessage(in, msg.get()));
    return std::shared_ptr<const void>(std::move(msg));
  };
  group->RegisterCodec(kWriteSetMessageType, std::move(writeset_codec));

  gcs::PayloadCodec ddl_codec;
  ddl_codec.encode = [](const void* payload, std::string* out) {
    EncodeDdlMessage(*static_cast<const DdlMessage*>(payload), out);
  };
  ddl_codec.decode =
      [](const std::string& in) -> Result<std::shared_ptr<const void>> {
    auto msg = std::make_shared<DdlMessage>();
    SIREP_RETURN_IF_ERROR(DecodeDdlMessage(in, msg.get()));
    return std::shared_ptr<const void>(std::move(msg));
  };
  group->RegisterCodec(kDdlMessageType, std::move(ddl_codec));
}

}  // namespace sirep::middleware
