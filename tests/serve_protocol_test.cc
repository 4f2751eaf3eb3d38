/// \file serve_protocol_test.cc
/// \brief Pins the serving wire protocol's robustness contract: frames and
/// tables round-trip bit-exactly, every corrupt envelope decodes to a typed
/// error (never a crash, never an over-allocation), and a live daemon fed
/// garbage, truncated, or hostile-length frames keeps serving fresh
/// connections.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/plan_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace featlib {
namespace serve {
namespace {

using serve_test::ExpectTablesBitIdentical;
using serve_test::MakeBatch;
using serve_test::TempDir;
using serve_test::WritePlanPair;

std::string SmallRequestFrame() {
  TransformRequest req;
  req.request_id = 7;
  req.plan = "demo";
  req.deadline_us = 1234;
  req.batch = MakeBatch(5, 3);
  return EncodeFrame(MessageType::kTransformRequest,
                     EncodeTransformRequest(req));
}

TEST(ServeProtocolTest, FrameRoundTripAndIncrementalDecode) {
  const std::string payload = "hello frames";
  const std::string wire = EncodeFrame(MessageType::kPing, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

  // Byte-at-a-time arrival: every strict prefix is "need more", the full
  // buffer decodes, and trailing bytes of a following frame are untouched.
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    EXPECT_EQ(TryDecodeFrame(wire.substr(0, len), 0, &frame, &consumed, &error),
              DecodeOutcome::kNeedMore)
        << "prefix " << len;
  }
  const std::string two = wire + EncodeFrame(MessageType::kPong, "x");
  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(two, 0, &frame, &consumed, &error),
            DecodeOutcome::kFrame);
  EXPECT_EQ(frame.type, MessageType::kPing);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(consumed, wire.size());
  ASSERT_EQ(TryDecodeFrame(two, consumed, &frame, &consumed, &error),
            DecodeOutcome::kFrame);
  EXPECT_EQ(frame.type, MessageType::kPong);
  EXPECT_EQ(frame.payload, "x");
}

TEST(ServeProtocolTest, WriteToAHungUpPeerIsIOErrorNotSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const Status st = WriteFrame(fds[0], MessageType::kPong, "late reply");
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  ::close(fds[0]);
}

TEST(ServeProtocolTest, CorruptEnvelopesAreTypedErrors) {
  const std::string good = EncodeFrame(MessageType::kPing, "payload");
  auto expect_corrupt = [](std::string wire, StatusCode code,
                           const std::string& what) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    EXPECT_EQ(TryDecodeFrame(wire, 0, &frame, &consumed, &error),
              DecodeOutcome::kCorrupt)
        << what;
    EXPECT_EQ(error.code(), code) << what << ": " << error.ToString();
  };

  std::string bad = good;
  bad[0] = 'X';
  expect_corrupt(bad, StatusCode::kInvalidArgument, "bad magic");

  bad = good;
  bad[4] = static_cast<char>(kProtocolVersion + 1);
  expect_corrupt(bad, StatusCode::kInvalidArgument, "bad version");

  bad = good;
  bad[5] = 0;  // below the valid MessageType range
  expect_corrupt(bad, StatusCode::kInvalidArgument, "type underflow");
  bad[5] = static_cast<char>(200);
  expect_corrupt(bad, StatusCode::kInvalidArgument, "type overflow");

  bad = good;
  bad[6] = 1;  // reserved must be zero
  expect_corrupt(bad, StatusCode::kInvalidArgument, "reserved bytes");

  // A hostile length prefix is rejected from the header alone — before any
  // payload allocation — even though only 16 bytes arrived.
  bad = good.substr(0, kFrameHeaderBytes);
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&bad[8], &huge, sizeof(huge));
  expect_corrupt(bad, StatusCode::kInvalidArgument, "oversized length");

  // Payload bit flip: the envelope is fine, the checksum catches it.
  bad = good;
  bad[kFrameHeaderBytes + 2] ^= 0x40;
  expect_corrupt(bad, StatusCode::kDataLoss, "payload bit flip");
}

TEST(ServeProtocolTest, BitFlipSweepNeverCrashes) {
  const std::string wire = SmallRequestFrame();
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = wire;
      flipped[i] = static_cast<char>(flipped[i] ^ (1u << bit));
      Frame frame;
      size_t consumed = 0;
      Status error;
      const DecodeOutcome outcome =
          TryDecodeFrame(flipped, 0, &frame, &consumed, &error);
      if (outcome == DecodeOutcome::kCorrupt) {
        EXPECT_FALSE(error.ok());
      } else if (outcome == DecodeOutcome::kFrame) {
        // A flip the CRC missed is impossible for single bits, but the
        // payload decoder must not rely on that: it is bounds-checked too.
        auto decoded = DecodeTransformRequest(frame.payload);
        (void)decoded;
      }
    }
  }
}

TEST(ServeProtocolTest, TableCodecRoundTripsBitExact) {
  Table table;
  Column d(DataType::kDouble), i(DataType::kInt64), b(DataType::kBool),
      t(DataType::kDatetime), s(DataType::kString);
  d.AppendDouble(1.5);
  d.AppendDouble(-0.0);
  d.AppendDouble(std::numeric_limits<double>::denorm_min());
  d.AppendNull();
  d.AppendDouble(-std::numeric_limits<double>::infinity());
  for (int64_t v : {int64_t{-1}, int64_t{1} << 62}) i.AppendInt(v);
  i.AppendNull();
  i.AppendInt(0);
  i.AppendInt(42);
  b.AppendInt(1);
  b.AppendInt(0);
  b.AppendNull();
  b.AppendInt(1);
  b.AppendInt(0);
  t.AppendInt(1700000000);
  t.AppendNull();
  t.AppendInt(0);
  t.AppendInt(-86400);
  t.AppendInt(1);
  // Dictionary in first-seen storage order; codes must survive verbatim
  // (AsDouble maps a string cell to its code).
  s.AppendString("b");
  s.AppendString("a");
  s.AppendNull();
  s.AppendString("b");
  s.AppendString("c");
  ASSERT_TRUE(table.AddColumn("d", std::move(d)).ok());
  ASSERT_TRUE(table.AddColumn("i", std::move(i)).ok());
  ASSERT_TRUE(table.AddColumn("b", std::move(b)).ok());
  ASSERT_TRUE(table.AddColumn("t", std::move(t)).ok());
  ASSERT_TRUE(table.AddColumn("s", std::move(s)).ok());

  const std::string wire = EncodeTable(table);
  size_t cursor = 0;
  auto decoded = DecodeTable(wire, &cursor);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(cursor, wire.size());

  const Table& got = decoded.value();
  ASSERT_EQ(got.num_rows(), table.num_rows());
  ASSERT_EQ(got.num_columns(), table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(got.NameAt(c), table.NameAt(c));
    EXPECT_EQ(got.ColumnAt(c).type(), table.ColumnAt(c).type());
  }
  // -0.0 survives as -0.0 (sign bit set), not canonicalized to +0.0.
  EXPECT_TRUE(std::signbit(got.ColumnAt(0).AsDouble(1)));
  // String codes verbatim: "b"=0, "a"=1, "c"=2 in first-seen order.
  EXPECT_EQ(got.ColumnAt(4).raw_codes()[0], 0);
  EXPECT_EQ(got.ColumnAt(4).raw_codes()[1], 1);
  EXPECT_EQ(got.ColumnAt(4).raw_codes()[4], 2);
  // The decoded table re-encodes to the exact same bytes.
  EXPECT_EQ(EncodeTable(got), wire);
}

TEST(ServeProtocolTest, MessageRoundTrips) {
  TransformRequest req;
  req.request_id = 99;
  req.plan = "fraud_v2";
  req.deadline_us = 250000;
  req.batch = MakeBatch(9, 21);
  auto req2 = DecodeTransformRequest(EncodeTransformRequest(req));
  ASSERT_TRUE(req2.ok()) << req2.status().ToString();
  EXPECT_EQ(req2.value().request_id, 99u);
  EXPECT_EQ(req2.value().plan, "fraud_v2");
  EXPECT_EQ(req2.value().deadline_us, 250000u);
  ExpectTablesBitIdentical(req2.value().batch, req.batch, "request batch");

  TransformResponse ok_resp;
  ok_resp.request_id = 99;
  ok_resp.status = Status::OK();
  ok_resp.table = MakeBatch(4, 8);
  auto ok2 = DecodeTransformResponse(EncodeTransformResponse(ok_resp));
  ASSERT_TRUE(ok2.ok()) << ok2.status().ToString();
  ExpectTablesBitIdentical(ok2.value().table, ok_resp.table, "response table");

  TransformResponse err_resp;
  err_resp.request_id = 100;
  err_resp.status = Status::DeadlineExceeded("too slow");
  auto err2 = DecodeTransformResponse(EncodeTransformResponse(err_resp));
  ASSERT_TRUE(err2.ok()) << err2.status().ToString();
  EXPECT_EQ(err2.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(err2.value().status.message(), "too slow");

  PlanList list;
  list.plans.push_back({"alpha", true, 1024});
  list.plans.push_back({"beta", false, 0});
  auto list2 = DecodePlanList(EncodePlanList(list));
  ASSERT_TRUE(list2.ok());
  ASSERT_EQ(list2.value().plans.size(), 2u);
  EXPECT_EQ(list2.value().plans[0].name, "alpha");
  EXPECT_TRUE(list2.value().plans[0].loaded);
  EXPECT_EQ(list2.value().plans[1].warm_bytes, 0u);
}

TEST(ServeProtocolTest, TruncatedPayloadsDecodeToTypedErrors) {
  TransformRequest req;
  req.request_id = 5;
  req.plan = "p";
  req.batch = MakeBatch(6, 2);
  const std::string enc_req = EncodeTransformRequest(req);
  for (size_t len = 0; len < enc_req.size(); ++len) {
    auto decoded = DecodeTransformRequest(enc_req.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix " << len << " decoded";
  }

  TransformResponse resp;
  resp.request_id = 5;
  resp.status = Status::OK();
  resp.table = MakeBatch(3, 4);
  const std::string enc_resp = EncodeTransformResponse(resp);
  for (size_t len = 0; len < enc_resp.size(); ++len) {
    auto decoded = DecodeTransformResponse(enc_resp.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix " << len << " decoded";
  }
}

// ---- Live daemon robustness -------------------------------------------------

int RawConnect(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Sends raw bytes, then reads until the server closes; returns what came
// back (empty if the server closed without a best-effort error frame).
std::string SendRawAndDrain(const std::string& socket_path,
                            const std::string& bytes) {
  const int fd = RawConnect(socket_path);
  EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(ServeProtocolTest, DaemonSurvivesGarbageAndKeepsServing) {
  const TempDir tmp("feataug_proto_");
  const std::string& dir = tmp.path();
  ASSERT_FALSE(dir.empty());
  WritePlanPair(dir, "demo");

  PlanRegistry registry;
  size_t num_found = 0;
  ASSERT_TRUE(registry.DiscoverPlans(dir, &num_found).ok());
  ASSERT_EQ(num_found, 1u);

  ServerOptions options;
  options.unix_socket_path = dir + "/daemon.sock";
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  // (1) Plain garbage: not even a magic. Expect a typed kError frame (best
  // effort) and a clean close — never a crash.
  const std::string reply =
      SendRawAndDrain(options.unix_socket_path, "GET / HTTP/1.1\r\n\r\n");
  if (!reply.empty()) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    ASSERT_EQ(TryDecodeFrame(reply, 0, &frame, &consumed, &error),
              DecodeOutcome::kFrame);
    EXPECT_EQ(frame.type, MessageType::kError);
    auto msg = DecodeErrorMessage(frame.payload);
    ASSERT_TRUE(msg.ok());
    EXPECT_FALSE(msg.value().message.empty());
  }

  // (2) Truncated frame: a valid header promising 100 payload bytes, then
  // the connection dies after 10. The reader must give up cleanly.
  {
    std::string partial = EncodeFrame(MessageType::kPing, std::string(100, 'p'));
    partial.resize(kFrameHeaderBytes + 10);
    SendRawAndDrain(options.unix_socket_path, partial);
  }

  // (3) Hostile length prefix: 512MB claimed. Rejected from the header —
  // the daemon must not try to allocate or read it.
  {
    std::string hostile = EncodeFrame(MessageType::kPing, "x");
    const uint32_t huge = 512u << 20;
    std::memcpy(&hostile[8], &huge, sizeof(huge));
    const std::string r = SendRawAndDrain(options.unix_socket_path, hostile);
    if (!r.empty()) {
      Frame frame;
      size_t consumed = 0;
      Status error;
      EXPECT_EQ(TryDecodeFrame(r, 0, &frame, &consumed, &error),
                DecodeOutcome::kFrame);
      EXPECT_EQ(frame.type, MessageType::kError);
    }
  }

  // (4) A bit-flipped payload on an otherwise valid frame.
  {
    std::string flipped = SmallRequestFrame();
    flipped[kFrameHeaderBytes + 3] ^= 0x10;
    SendRawAndDrain(options.unix_socket_path, flipped);
  }

  EXPECT_GE(server.num_protocol_errors(), 3u);

  // After all of that, a fresh connection still gets full service.
  auto client = ServeClient::ConnectUnix(options.unix_socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value().Ping().ok());
  auto transformed = client.value().Transform("demo", MakeBatch(10, 17));
  ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
  EXPECT_GT(transformed.value().num_columns(), 3u);

  // Unknown plan fails that request only; the connection stays usable.
  auto unknown = client.value().Transform("nope", MakeBatch(2, 1));
  EXPECT_FALSE(unknown.ok());
  EXPECT_TRUE(client.value().Ping().ok());

  server.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace featlib
