// Round-trip and corruption tests for the wire formats introduced with
// the byte-shipping transport: writeset encoding (storage/write_set.h),
// the middleware message payloads (middleware/messages.h), and the GCS
// frame (gcs/wire.h). Malformed input of any shape must come back
// as kInvalidArgument — never a crash or an out-of-bounds read.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gcs/wire.h"
#include "middleware/messages.h"
#include "sql/value.h"
#include "storage/write_set.h"

namespace sirep {
namespace {

using middleware::DdlMessage;
using middleware::GlobalTxnId;
using middleware::WriteSetMessage;
using sql::Value;
using storage::WriteOp;
using storage::WriteSet;

storage::TupleId Tuple(std::string table, Value key) {
  storage::TupleId id;
  id.table = std::move(table);
  id.key.parts = {std::move(key)};
  return id;
}

/// A writeset exercising every value type and every op.
WriteSet SampleWriteSet() {
  WriteSet ws;
  ws.Record(Tuple("accounts", Value::Int(1)), WriteOp::kInsert,
            {Value::Int(1), Value::String("alice"), Value::Double(99.5),
             Value::Bool(true), Value::Null()});
  ws.Record(Tuple("accounts", Value::Int(2)), WriteOp::kUpdate,
            {Value::Int(2), Value::String("bob"), Value::Double(-3.25),
             Value::Bool(false), Value::Null()});
  ws.Record(Tuple("audit", Value::String(std::string("k\0y", 3))),
            WriteOp::kDelete, {});
  return ws;
}

void ExpectWriteSetsEqual(const WriteSet& a, const WriteSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.entries().size(); ++i) {
    const auto& ea = a.entries()[i];
    const auto& eb = b.entries()[i];
    EXPECT_EQ(ea.tuple, eb.tuple) << "entry " << i;
    EXPECT_EQ(ea.op, eb.op) << "entry " << i;
    EXPECT_EQ(ea.after, eb.after) << "entry " << i;
  }
}

// --- WriteSet ---------------------------------------------------------

TEST(WriteSetSerdeTest, RoundTripsAllValueTypesAndOps) {
  const WriteSet ws = SampleWriteSet();
  std::string encoded;
  storage::EncodeWriteSet(ws, &encoded);

  WriteSet decoded;
  size_t pos = 0;
  ASSERT_TRUE(storage::DecodeWriteSet(encoded, &pos, &decoded).ok());
  EXPECT_EQ(pos, encoded.size());
  ExpectWriteSetsEqual(ws, decoded);
}

TEST(WriteSetSerdeTest, RoundTripsEmpty) {
  WriteSet ws;
  std::string encoded;
  storage::EncodeWriteSet(ws, &encoded);
  WriteSet decoded;
  // Pre-populate to prove decode clears.
  decoded.Record(Tuple("junk", Value::Int(9)), WriteOp::kInsert,
                 {Value::Int(9)});
  size_t pos = 0;
  ASSERT_TRUE(storage::DecodeWriteSet(encoded, &pos, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(WriteSetSerdeTest, RoundTripPreservesCoalescing) {
  WriteSet ws;
  ws.Record(Tuple("t", Value::Int(1)), WriteOp::kInsert, {Value::Int(10)});
  ws.Record(Tuple("t", Value::Int(1)), WriteOp::kUpdate, {Value::Int(20)});
  ws.Record(Tuple("t", Value::Int(2)), WriteOp::kUpdate, {Value::Int(30)});
  ws.Record(Tuple("t", Value::Int(2)), WriteOp::kDelete, {});
  ASSERT_EQ(ws.size(), 2u);  // coalesced before encoding

  std::string encoded;
  storage::EncodeWriteSet(ws, &encoded);
  WriteSet decoded;
  size_t pos = 0;
  ASSERT_TRUE(storage::DecodeWriteSet(encoded, &pos, &decoded).ok());
  ExpectWriteSetsEqual(ws, decoded);
  // Intersection semantics survive the trip.
  WriteSet probe;
  probe.Record(Tuple("t", Value::Int(2)), WriteOp::kUpdate, {Value::Int(0)});
  EXPECT_TRUE(decoded.Intersects(probe));
}

TEST(WriteSetSerdeTest, EveryTruncationFailsCleanly) {
  std::string encoded;
  storage::EncodeWriteSet(SampleWriteSet(), &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::string truncated = encoded.substr(0, len);
    WriteSet decoded;
    size_t pos = 0;
    const Status status = storage::DecodeWriteSet(truncated, &pos, &decoded);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "prefix length " << len;
  }
}

TEST(WriteSetSerdeTest, RejectsBadVersion) {
  std::string encoded;
  storage::EncodeWriteSet(SampleWriteSet(), &encoded);
  encoded[0] = static_cast<char>(0xEE);
  WriteSet decoded;
  size_t pos = 0;
  EXPECT_EQ(storage::DecodeWriteSet(encoded, &pos, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(WriteSetSerdeTest, RejectsOverlongCount) {
  std::string encoded;
  storage::EncodeWriteSet(SampleWriteSet(), &encoded);
  // Claim 2^32-1 entries in a buffer that can't possibly hold them.
  for (size_t i = 1; i <= 4; ++i) encoded[i] = static_cast<char>(0xFF);
  WriteSet decoded;
  size_t pos = 0;
  EXPECT_EQ(storage::DecodeWriteSet(encoded, &pos, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(WriteSetSerdeTest, RejectsOutOfRangeOp) {
  // Single delete entry with table "t" and key [Int(7)]:
  //   ver(1) count(4) table(4+1) keyrow(4 + tag(1)+int(8)) op(1) after(4)
  // puts the op byte at offset 23.
  WriteSet ws;
  ws.Record(Tuple("t", Value::Int(7)), WriteOp::kDelete, {});
  std::string encoded;
  storage::EncodeWriteSet(ws, &encoded);
  ASSERT_EQ(encoded[23], static_cast<char>(WriteOp::kDelete));
  encoded[23] = 0x7F;
  WriteSet decoded;
  size_t pos = 0;
  EXPECT_EQ(storage::DecodeWriteSet(encoded, &pos, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(WriteSetSerdeTest, RejectsCorruptValueTag) {
  WriteSet ws;
  ws.Record(Tuple("t", Value::Int(7)), WriteOp::kDelete, {});
  std::string encoded;
  storage::EncodeWriteSet(ws, &encoded);
  // First key value's serde type tag sits at offset 14 (see layout
  // above); the INT wire tag is 2 (sql/serde.cc, independent of the
  // ValueType enum).
  ASSERT_EQ(encoded[14], 2);
  encoded[14] = static_cast<char>(0xFD);
  WriteSet decoded;
  size_t pos = 0;
  EXPECT_EQ(storage::DecodeWriteSet(encoded, &pos, &decoded).code(),
            StatusCode::kInvalidArgument);
}

// --- WriteSetMessage / DdlMessage -------------------------------------

TEST(MessageSerdeTest, WriteSetMessageRoundTrips) {
  WriteSetMessage msg;
  msg.gid = GlobalTxnId{3, 41};
  msg.cert = 17;
  msg.ws = std::make_shared<const WriteSet>(SampleWriteSet());

  std::string encoded;
  middleware::EncodeWriteSetMessage(msg, &encoded);
  WriteSetMessage decoded;
  ASSERT_TRUE(middleware::DecodeWriteSetMessage(encoded, &decoded).ok());
  EXPECT_EQ(decoded.gid, msg.gid);
  EXPECT_EQ(decoded.cert, 17u);
  ASSERT_NE(decoded.ws, nullptr);
  ExpectWriteSetsEqual(*msg.ws, *decoded.ws);
  // u8 version, u32 gid.replica, u64 gid.seq, u64 cert, then the
  // writeset: nothing else rides in the message.
  std::string ws_only;
  storage::EncodeWriteSet(*msg.ws, &ws_only);
  EXPECT_EQ(encoded.size(), 1 + 4 + 8 + 8 + ws_only.size());
}

TEST(MessageSerdeTest, WriteSetMessageWithNullWriteSetRoundTrips) {
  WriteSetMessage msg;
  msg.gid = GlobalTxnId{1, 1};
  std::string encoded;
  middleware::EncodeWriteSetMessage(msg, &encoded);
  WriteSetMessage decoded;
  ASSERT_TRUE(middleware::DecodeWriteSetMessage(encoded, &decoded).ok());
  ASSERT_NE(decoded.ws, nullptr);
  EXPECT_TRUE(decoded.ws->empty());
}

TEST(MessageSerdeTest, WriteSetMessageTruncationAndTrailingBytesFail) {
  WriteSetMessage msg;
  msg.gid = GlobalTxnId{2, 7};
  msg.cert = 5;
  msg.ws = std::make_shared<const WriteSet>(SampleWriteSet());
  std::string encoded;
  middleware::EncodeWriteSetMessage(msg, &encoded);

  for (size_t len = 0; len < encoded.size(); ++len) {
    WriteSetMessage decoded;
    EXPECT_EQ(
        middleware::DecodeWriteSetMessage(encoded.substr(0, len), &decoded)
            .code(),
        StatusCode::kInvalidArgument)
        << "prefix length " << len;
  }
  WriteSetMessage decoded;
  EXPECT_EQ(middleware::DecodeWriteSetMessage(encoded + "x", &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(MessageSerdeTest, RejectsAnyOtherVersion) {
  // One wire version: the previous layout (and anything else) is refused
  // instead of misparsed.
  WriteSetMessage msg;
  msg.gid = GlobalTxnId{2, 7};
  msg.ws = std::make_shared<const WriteSet>(SampleWriteSet());
  std::string ws_encoded;
  middleware::EncodeWriteSetMessage(msg, &ws_encoded);
  DdlMessage ddl;
  ddl.sql = "CREATE TABLE t (id INT PRIMARY KEY)";
  std::string ddl_encoded;
  middleware::EncodeDdlMessage(ddl, &ddl_encoded);
  for (const int version : {0, 1, 2, 3, 4, 0xEE}) {
    std::string bad = ws_encoded;
    bad[0] = static_cast<char>(version);
    WriteSetMessage decoded;
    EXPECT_EQ(middleware::DecodeWriteSetMessage(bad, &decoded).code(),
              StatusCode::kInvalidArgument)
        << "version " << version;
    bad = ddl_encoded;
    bad[0] = static_cast<char>(version);
    DdlMessage decoded_ddl;
    EXPECT_EQ(middleware::DecodeDdlMessage(bad, &decoded_ddl).code(),
              StatusCode::kInvalidArgument)
        << "version " << version;
  }
}

TEST(MessageSerdeTest, DdlMessageRoundTrips) {
  DdlMessage msg;
  msg.gid = GlobalTxnId{9, 1000};
  msg.sql = "CREATE TABLE t (id INT PRIMARY KEY, name STRING)";
  std::string encoded;
  middleware::EncodeDdlMessage(msg, &encoded);
  DdlMessage decoded;
  ASSERT_TRUE(middleware::DecodeDdlMessage(encoded, &decoded).ok());
  EXPECT_EQ(decoded.gid, msg.gid);
  EXPECT_EQ(decoded.sql, msg.sql);
}

TEST(MessageSerdeTest, DdlMessageTruncationFails) {
  DdlMessage msg;
  msg.gid = GlobalTxnId{1, 2};
  msg.sql = "CREATE INDEX i ON t (name)";
  std::string encoded;
  middleware::EncodeDdlMessage(msg, &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    DdlMessage decoded;
    EXPECT_EQ(
        middleware::DecodeDdlMessage(encoded.substr(0, len), &decoded).code(),
        StatusCode::kInvalidArgument)
        << "prefix length " << len;
  }
}

// --- GCS wire frames ---------------------------------------------------

/// One frame per entry kind: a codec-encoded writeset, a stash handle
/// (payload parked in-process, nothing on the wire) and a DDL message.
std::vector<gcs::WireFrame> SampleFrames() {
  gcs::WireFrame ws;
  ws.sender = 4;
  ws.type = "writeset";
  ws.enqueue_ns = 123456789;
  middleware::WriteSetMessage msg;
  msg.gid = GlobalTxnId{4, 10};
  msg.ws = std::make_shared<const WriteSet>(SampleWriteSet());
  middleware::EncodeWriteSetMessage(msg, &ws.payload);
  gcs::WireFrame stashed;
  stashed.sender = 4;
  stashed.type = "recovery";
  stashed.stash_id = 42;
  stashed.enqueue_ns = 123456790;
  gcs::WireFrame ddl;
  ddl.sender = 4;
  ddl.type = "ddl";
  ddl.enqueue_ns = 123456791;
  middleware::DdlMessage dm;
  dm.gid = GlobalTxnId{4, 11};
  dm.sql = "CREATE TABLE x (id INT PRIMARY KEY)";
  middleware::EncodeDdlMessage(dm, &ddl.payload);
  return {ws, stashed, ddl};
}

TEST(WireFrameTest, FrameRoundTrips) {
  for (const gcs::WireFrame& frame : SampleFrames()) {
    std::string encoded;
    gcs::EncodeWireFrame(frame, &encoded);
    gcs::WireFrame decoded;
    ASSERT_TRUE(gcs::DecodeWireFrame(encoded, &decoded).ok())
        << frame.type;
    EXPECT_EQ(decoded.sender, frame.sender);
    EXPECT_EQ(decoded.type, frame.type);
    EXPECT_EQ(decoded.stash_id, frame.stash_id);
    EXPECT_EQ(decoded.enqueue_ns, frame.enqueue_ns);
    EXPECT_EQ(decoded.payload, frame.payload);
  }
}

TEST(WireFrameTest, EveryTruncationFailsCleanly) {
  for (const gcs::WireFrame& frame : SampleFrames()) {
    std::string encoded;
    gcs::EncodeWireFrame(frame, &encoded);
    for (size_t len = 0; len < encoded.size(); ++len) {
      gcs::WireFrame decoded;
      EXPECT_EQ(gcs::DecodeWireFrame(encoded.substr(0, len), &decoded).code(),
                StatusCode::kInvalidArgument)
          << frame.type << " prefix length " << len;
    }
  }
}

TEST(WireFrameTest, RejectsCorruptHeader) {
  std::string good;
  gcs::EncodeWireFrame(SampleFrames()[0], &good);

  {  // bad magic
    std::string bad = good;
    bad[0] = static_cast<char>(bad[0] ^ 0x01);
    gcs::WireFrame decoded;
    EXPECT_EQ(gcs::DecodeWireFrame(bad, &decoded).code(),
              StatusCode::kInvalidArgument);
  }
  {  // unknown version (offset 4)
    std::string bad = good;
    bad[4] = static_cast<char>(0xEE);
    gcs::WireFrame decoded;
    EXPECT_EQ(gcs::DecodeWireFrame(bad, &decoded).code(),
              StatusCode::kInvalidArgument);
  }
  {  // reserved flags must be zero (offset 5)
    std::string bad = good;
    bad[5] = 0x01;
    gcs::WireFrame decoded;
    EXPECT_EQ(gcs::DecodeWireFrame(bad, &decoded).code(),
              StatusCode::kInvalidArgument);
  }
  {  // type length larger than the buffer can hold (offsets 10..13)
    std::string bad = good;
    for (size_t i = 10; i <= 13; ++i) bad[i] = static_cast<char>(0xFF);
    gcs::WireFrame decoded;
    EXPECT_EQ(gcs::DecodeWireFrame(bad, &decoded).code(),
              StatusCode::kInvalidArgument);
  }
  {  // trailing garbage
    gcs::WireFrame decoded;
    EXPECT_EQ(gcs::DecodeWireFrame(good + "zz", &decoded).code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace sirep
