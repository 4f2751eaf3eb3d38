#pragma once

/// \file protocol.h
/// \brief The serving daemon's wire protocol: versioned, CRC32-enveloped
/// binary frames over a stream socket, carrying typed request/response
/// messages and a byte-exact columnar table encoding.
///
/// Every frame is a fixed 16-byte header followed by the payload:
///
///   offset  size  field
///   0       4     magic "FAUG"
///   4       1     protocol version (kProtocolVersion)
///   5       1     message type (MessageType)
///   6       2     reserved (must be zero)
///   8       4     payload length, little-endian
///   12      4     CRC-32 of the payload (common/file_io.h Crc32)
///   16      ...   payload
///
/// The envelope makes corruption detectable before any payload parsing: a
/// bad magic/version/reserved field or an oversized length prefix rejects
/// the frame as kInvalidArgument (the stream is unsynchronized — the peer
/// must close), a checksum mismatch rejects it as kDataLoss, and a short
/// buffer is simply "need more bytes" (TryDecodeFrame). Payload decoding is
/// bounds-checked end to end, so a truncated or bit-flipped payload that
/// slips past the CRC (it cannot, but the decoder does not rely on that)
/// yields a typed error, never undefined behavior — the robustness contract
/// tests/serve_protocol_test.cc pins byte by byte.
///
/// Tables travel in a columnar little-endian encoding that round-trips
/// bit-exactly: doubles are copied as raw bit patterns (NaN payloads, -0.0
/// preserved), string dictionaries are shipped in storage order with codes
/// verbatim, and null rows are canonicalized to placeholder zeros so equal
/// tables always encode to equal bytes. Responses decoded by the client are
/// therefore byte-identical to the in-process Transform output they mirror.
///
/// Status travels as (StatusCode byte, message); the numeric code values
/// are frozen by kProtocolVersion — bumping either side's enum requires a
/// version bump.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace featlib {
namespace serve {

inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr char kMagic[4] = {'F', 'A', 'U', 'G'};
inline constexpr size_t kFrameHeaderBytes = 16;
/// Upper bound on a payload; a length prefix past this is rejected before
/// any allocation, so a hostile or corrupt 4GB length cannot OOM the
/// daemon.
inline constexpr uint32_t kMaxPayloadBytes = 256u << 20;

enum class MessageType : uint8_t {
  kTransformRequest = 1,
  kTransformResponse = 2,
  /// Connection-level protocol error report, sent by the server before it
  /// closes a connection whose stream it can no longer trust.
  kError = 3,
  kPing = 4,
  kPong = 5,
  kListPlans = 6,
  kPlanList = 7,
};

/// One decoded frame: the message type and its raw payload (still to be
/// parsed by the matching Decode* function).
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// \name Framing
/// @{

/// Renders the 16-byte envelope + payload.
std::string EncodeFrame(MessageType type, const std::string& payload);

enum class DecodeOutcome {
  kFrame,     ///< *out holds a verified frame; *consumed bytes were eaten.
  kNeedMore,  ///< the buffer holds a valid prefix; read more and retry.
  kCorrupt,   ///< unrecoverable: *error holds the typed reason, close.
};

/// Attempts to decode one frame from buf[offset..). Never throws, never
/// reads out of bounds, never allocates more than the (validated) payload
/// length.
DecodeOutcome TryDecodeFrame(const std::string& buf, size_t offset,
                             Frame* out, size_t* consumed, Status* error);

/// Blocking socket variants used by the server's reader threads and the
/// client. WriteFrame returns kIOError when the peer has hung up (never
/// SIGPIPE). ReadFrame returns kIOError("connection closed") on clean EOF at
/// a frame boundary, kDataLoss/kInvalidArgument on a corrupt envelope, and
/// retries EINTR internally.
Status WriteFrame(int fd, MessageType type, const std::string& payload);
Result<Frame> ReadFrame(int fd);
/// @}

/// \name Table wire codec (byte-exact round trip)
/// @{
void AppendTable(std::string* out, const Table& table);
std::string EncodeTable(const Table& table);
/// Decodes a table starting at *cursor; advances *cursor past it.
Result<Table> DecodeTable(const std::string& payload, size_t* cursor);
/// @}

/// \name Messages
/// @{

struct TransformRequest {
  uint64_t request_id = 0;
  std::string plan;
  /// Relative deadline in microseconds from server receipt; 0 = none. The
  /// server arms an ExecContext deadline and also refuses to start work on
  /// a request that already expired while queued.
  uint64_t deadline_us = 0;
  Table batch;
};

struct TransformResponse {
  uint64_t request_id = 0;
  Status status;   // non-OK => `table` is empty and meaningless
  Table table;
};

struct ErrorMessage {
  std::string message;
};

struct PlanInfo {
  std::string name;
  bool loaded = false;
  uint64_t warm_bytes = 0;
};

struct PlanList {
  std::vector<PlanInfo> plans;
};

std::string EncodeTransformRequest(const TransformRequest& req);
Result<TransformRequest> DecodeTransformRequest(const std::string& payload);

std::string EncodeTransformResponse(const TransformResponse& resp);
Result<TransformResponse> DecodeTransformResponse(const std::string& payload);

std::string EncodeErrorMessage(const ErrorMessage& msg);
Result<ErrorMessage> DecodeErrorMessage(const std::string& payload);

std::string EncodePlanList(const PlanList& list);
Result<PlanList> DecodePlanList(const std::string& payload);
/// @}

}  // namespace serve
}  // namespace featlib
