#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/file_io.h"

namespace featlib {
namespace serve {

namespace {

// ---- Little-endian scalar append/read ------------------------------------
// memcpy-based so the encoding is defined regardless of alignment; every
// supported host (x86-64, aarch64) is little-endian, which the protocol
// freezes as the on-wire order.

template <typename T>
void AppendScalar(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void AppendString(std::string* out, const std::string& s) {
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over a payload: every read validates the remaining
/// byte count first, so arbitrarily corrupt payloads decode to a typed
/// kDataLoss, never an out-of-bounds read.
class ByteReader {
 public:
  ByteReader(const std::string& data, size_t cursor)
      : data_(data), cursor_(cursor) {}

  template <typename T>
  Status Read(T* out) {
    if (data_.size() - cursor_ < sizeof(T)) return Truncated();
    std::memcpy(out, data_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return Status::OK();
  }

  Status ReadString(std::string* out) {
    uint32_t len = 0;
    FEAT_RETURN_NOT_OK(Read(&len));
    if (data_.size() - cursor_ < len) return Truncated();
    out->assign(data_.data() + cursor_, len);
    cursor_ += len;
    return Status::OK();
  }

  /// Raw byte run of known length (validity vectors, typed column arrays).
  Status ReadBytes(void* out, size_t n) {
    if (n == 0) return Status::OK();
    if (data_.size() - cursor_ < n) return Truncated();
    std::memcpy(out, data_.data() + cursor_, n);
    cursor_ += n;
    return Status::OK();
  }

  size_t cursor() const { return cursor_; }
  size_t remaining() const { return data_.size() - cursor_; }

 private:
  static Status Truncated() {
    return Status::DataLoss("truncated message payload");
  }

  const std::string& data_;
  size_t cursor_;
};

}  // namespace

// ---- Framing --------------------------------------------------------------

std::string EncodeFrame(MessageType type, const std::string& payload) {
  FEAT_CHECK(payload.size() <= kMaxPayloadBytes, "oversized frame payload");
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(0);  // reserved
  out.push_back(0);
  AppendScalar<uint32_t>(&out, static_cast<uint32_t>(payload.size()));
  AppendScalar<uint32_t>(&out, Crc32(payload));
  out.append(payload);
  return out;
}

DecodeOutcome TryDecodeFrame(const std::string& buf, size_t offset,
                             Frame* out, size_t* consumed, Status* error) {
  const size_t available = buf.size() - offset;
  if (available < kFrameHeaderBytes) return DecodeOutcome::kNeedMore;
  const char* h = buf.data() + offset;
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    *error = Status::InvalidArgument("bad frame magic");
    return DecodeOutcome::kCorrupt;
  }
  const uint8_t version = static_cast<uint8_t>(h[4]);
  if (version != kProtocolVersion) {
    *error = Status::InvalidArgument(
        "unsupported protocol version " + std::to_string(version));
    return DecodeOutcome::kCorrupt;
  }
  const uint8_t raw_type = static_cast<uint8_t>(h[5]);
  if (raw_type < static_cast<uint8_t>(MessageType::kTransformRequest) ||
      raw_type > static_cast<uint8_t>(MessageType::kPlanList)) {
    *error = Status::InvalidArgument("unknown message type " +
                                     std::to_string(raw_type));
    return DecodeOutcome::kCorrupt;
  }
  if (h[6] != 0 || h[7] != 0) {
    *error = Status::InvalidArgument("nonzero reserved frame bytes");
    return DecodeOutcome::kCorrupt;
  }
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  std::memcpy(&payload_len, h + 8, sizeof(payload_len));
  std::memcpy(&payload_crc, h + 12, sizeof(payload_crc));
  if (payload_len > kMaxPayloadBytes) {
    *error = Status::InvalidArgument(
        "frame payload length " + std::to_string(payload_len) +
        " exceeds the " + std::to_string(kMaxPayloadBytes) + "-byte cap");
    return DecodeOutcome::kCorrupt;
  }
  if (available < kFrameHeaderBytes + payload_len) {
    return DecodeOutcome::kNeedMore;
  }
  const char* payload = h + kFrameHeaderBytes;
  if (Crc32Update(0, payload, payload_len) != payload_crc) {
    *error = Status::DataLoss("frame payload checksum mismatch");
    return DecodeOutcome::kCorrupt;
  }
  out->type = static_cast<MessageType>(raw_type);
  out->payload.assign(payload, payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeOutcome::kFrame;
}

namespace {

/// Writes all `len` bytes to a socket. MSG_NOSIGNAL turns a write to a
/// peer that has hung up into EPIPE instead of a process-killing SIGPIPE.
Status WriteAll(int fd, const char* data, size_t len) {
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::send(fd, data + written, len - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("socket write failed: " +
                             std::string(std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `len` bytes. `eof_ok_at_start`: a clean EOF before the
/// first byte is the peer hanging up between frames — reported distinctly so
/// reader loops can exit quietly.
Status ReadAll(int fd, char* data, size_t len, bool eof_ok_at_start) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, data + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("socket read failed: " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0 && eof_ok_at_start) {
        return Status::IOError("connection closed");
      }
      return Status::DataLoss("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, MessageType type, const std::string& payload) {
  const std::string frame = EncodeFrame(type, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Result<Frame> ReadFrame(int fd) {
  std::string buf(kFrameHeaderBytes, '\0');
  FEAT_RETURN_NOT_OK(ReadAll(fd, buf.data(), kFrameHeaderBytes,
                             /*eof_ok_at_start=*/true));
  // Validate the envelope before trusting the length prefix.
  Frame frame;
  size_t consumed = 0;
  Status error;
  DecodeOutcome outcome = TryDecodeFrame(buf, 0, &frame, &consumed, &error);
  if (outcome == DecodeOutcome::kCorrupt) return error;
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, buf.data() + 8, sizeof(payload_len));
  buf.resize(kFrameHeaderBytes + payload_len);
  FEAT_RETURN_NOT_OK(ReadAll(fd, buf.data() + kFrameHeaderBytes, payload_len,
                             /*eof_ok_at_start=*/false));
  outcome = TryDecodeFrame(buf, 0, &frame, &consumed, &error);
  if (outcome != DecodeOutcome::kFrame) return error;
  return frame;
}

// ---- Table wire codec ------------------------------------------------------

void AppendTable(std::string* out, const Table& table) {
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(table.num_columns()));
  AppendScalar<uint64_t>(out, static_cast<uint64_t>(table.num_rows()));
  const size_t rows = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.ColumnAt(c);
    AppendString(out, table.NameAt(c));
    out->push_back(static_cast<char>(col.type()));
    if (rows > 0) {
      out->append(reinterpret_cast<const char*>(col.raw_validity()), rows);
    }
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kDatetime:
      case DataType::kBool:
        // Null rows are canonicalized so equal tables encode to equal
        // bytes regardless of how their placeholders were produced.
        for (size_t r = 0; r < rows; ++r) {
          AppendScalar<int64_t>(out, col.IsNull(r) ? 0 : col.raw_ints()[r]);
        }
        break;
      case DataType::kDouble:
        for (size_t r = 0; r < rows; ++r) {
          const double v = col.IsNull(r) ? 0.0 : col.raw_doubles()[r];
          AppendScalar<double>(out, v);  // raw bit pattern
        }
        break;
      case DataType::kString: {
        const std::vector<std::string>& dict = col.dictionary();
        AppendScalar<uint32_t>(out, static_cast<uint32_t>(dict.size()));
        for (const std::string& s : dict) AppendString(out, s);
        for (size_t r = 0; r < rows; ++r) {
          AppendScalar<int32_t>(out, col.IsNull(r) ? -1 : col.raw_codes()[r]);
        }
        break;
      }
    }
  }
}

std::string EncodeTable(const Table& table) {
  std::string out;
  AppendTable(&out, table);
  return out;
}

Result<Table> DecodeTable(const std::string& payload, size_t* cursor) {
  ByteReader reader(payload, *cursor);
  uint32_t num_columns = 0;
  uint64_t num_rows = 0;
  FEAT_RETURN_NOT_OK(reader.Read(&num_columns));
  FEAT_RETURN_NOT_OK(reader.Read(&num_rows));
  // A corrupt count cannot claim more cells than bytes remain (each row of
  // each column costs at least one validity byte).
  if (num_columns > reader.remaining() ||
      (num_columns > 0 && num_rows > reader.remaining() / num_columns)) {
    return Status::DataLoss("table header claims more cells than the payload holds");
  }
  Table table;
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string name;
    FEAT_RETURN_NOT_OK(reader.ReadString(&name));
    uint8_t raw_type = 0;
    FEAT_RETURN_NOT_OK(reader.Read(&raw_type));
    if (raw_type > static_cast<uint8_t>(DataType::kBool)) {
      return Status::DataLoss("unknown column type " + std::to_string(raw_type));
    }
    const DataType type = static_cast<DataType>(raw_type);
    std::vector<uint8_t> validity(num_rows);
    FEAT_RETURN_NOT_OK(reader.ReadBytes(validity.data(), num_rows));
    Column col(type);
    col.Reserve(num_rows);
    switch (type) {
      case DataType::kInt64:
      case DataType::kDatetime:
      case DataType::kBool:
        for (uint64_t r = 0; r < num_rows; ++r) {
          int64_t v = 0;
          FEAT_RETURN_NOT_OK(reader.Read(&v));
          if (validity[r]) {
            col.AppendInt(v);
          } else {
            col.AppendNull();
          }
        }
        break;
      case DataType::kDouble:
        for (uint64_t r = 0; r < num_rows; ++r) {
          double v = 0;
          FEAT_RETURN_NOT_OK(reader.Read(&v));
          if (validity[r] && !std::isnan(v)) {
            col.AppendDouble(v);
          } else {
            col.AppendNull();
          }
        }
        break;
      case DataType::kString: {
        uint32_t dict_size = 0;
        FEAT_RETURN_NOT_OK(reader.Read(&dict_size));
        if (dict_size > reader.remaining()) {
          return Status::DataLoss("string dictionary larger than payload");
        }
        // Seed the dictionary in storage order so decoded codes are
        // verbatim — AsDouble (which maps strings to their code) stays
        // byte-identical across the wire.
        std::vector<std::string> dict(dict_size);
        for (uint32_t i = 0; i < dict_size; ++i) {
          FEAT_RETURN_NOT_OK(reader.ReadString(&dict[i]));
        }
        for (uint32_t i = 0; i < dict_size; ++i) {
          const int32_t code = col.GetOrAddCode(dict[i]);
          if (code != static_cast<int32_t>(i)) {
            return Status::DataLoss("duplicate string dictionary entry");
          }
        }
        for (uint64_t r = 0; r < num_rows; ++r) {
          int32_t code = 0;
          FEAT_RETURN_NOT_OK(reader.Read(&code));
          if (!validity[r]) {
            col.AppendNull();
          } else if (code < 0 || code >= static_cast<int32_t>(dict_size)) {
            return Status::DataLoss("string code out of dictionary range");
          } else {
            col.AppendCode(code);
          }
        }
        break;
      }
    }
    FEAT_RETURN_NOT_OK(table.AddColumn(name, std::move(col)));
  }
  *cursor = reader.cursor();
  return table;
}

// ---- Messages --------------------------------------------------------------

std::string EncodeTransformRequest(const TransformRequest& req) {
  std::string out;
  AppendScalar<uint64_t>(&out, req.request_id);
  AppendString(&out, req.plan);
  AppendScalar<uint64_t>(&out, req.deadline_us);
  AppendTable(&out, req.batch);
  return out;
}

Result<TransformRequest> DecodeTransformRequest(const std::string& payload) {
  TransformRequest req;
  ByteReader reader(payload, 0);
  FEAT_RETURN_NOT_OK(reader.Read(&req.request_id));
  FEAT_RETURN_NOT_OK(reader.ReadString(&req.plan));
  FEAT_RETURN_NOT_OK(reader.Read(&req.deadline_us));
  size_t cursor = reader.cursor();
  FEAT_ASSIGN_OR_RETURN(req.batch, DecodeTable(payload, &cursor));
  if (cursor != payload.size()) {
    return Status::DataLoss("trailing bytes after transform request");
  }
  return req;
}

std::string EncodeTransformResponse(const TransformResponse& resp) {
  std::string out;
  AppendScalar<uint64_t>(&out, resp.request_id);
  out.push_back(static_cast<char>(resp.status.code()));
  AppendString(&out, resp.status.message());
  if (resp.status.ok()) AppendTable(&out, resp.table);
  return out;
}

Result<TransformResponse> DecodeTransformResponse(const std::string& payload) {
  TransformResponse resp;
  ByteReader reader(payload, 0);
  FEAT_RETURN_NOT_OK(reader.Read(&resp.request_id));
  uint8_t raw_code = 0;
  FEAT_RETURN_NOT_OK(reader.Read(&raw_code));
  if (raw_code > static_cast<uint8_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss("unknown status code " + std::to_string(raw_code));
  }
  std::string message;
  FEAT_RETURN_NOT_OK(reader.ReadString(&message));
  resp.status = Status(static_cast<StatusCode>(raw_code), std::move(message));
  if (resp.status.ok()) {
    size_t cursor = reader.cursor();
    FEAT_ASSIGN_OR_RETURN(resp.table, DecodeTable(payload, &cursor));
    if (cursor != payload.size()) {
      return Status::DataLoss("trailing bytes after transform response");
    }
  } else if (reader.remaining() != 0) {
    return Status::DataLoss("trailing bytes after error response");
  }
  return resp;
}

std::string EncodeErrorMessage(const ErrorMessage& msg) {
  std::string out;
  AppendString(&out, msg.message);
  return out;
}

Result<ErrorMessage> DecodeErrorMessage(const std::string& payload) {
  ErrorMessage msg;
  ByteReader reader(payload, 0);
  FEAT_RETURN_NOT_OK(reader.ReadString(&msg.message));
  if (reader.remaining() != 0) {
    return Status::DataLoss("trailing bytes after error message");
  }
  return msg;
}

std::string EncodePlanList(const PlanList& list) {
  std::string out;
  AppendScalar<uint32_t>(&out, static_cast<uint32_t>(list.plans.size()));
  for (const PlanInfo& info : list.plans) {
    AppendString(&out, info.name);
    out.push_back(info.loaded ? 1 : 0);
    AppendScalar<uint64_t>(&out, info.warm_bytes);
  }
  return out;
}

Result<PlanList> DecodePlanList(const std::string& payload) {
  PlanList list;
  ByteReader reader(payload, 0);
  uint32_t count = 0;
  FEAT_RETURN_NOT_OK(reader.Read(&count));
  if (count > reader.remaining()) {
    return Status::DataLoss("plan list count exceeds payload");
  }
  list.plans.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    FEAT_RETURN_NOT_OK(reader.ReadString(&list.plans[i].name));
    uint8_t loaded = 0;
    FEAT_RETURN_NOT_OK(reader.Read(&loaded));
    list.plans[i].loaded = loaded != 0;
    FEAT_RETURN_NOT_OK(reader.Read(&list.plans[i].warm_bytes));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("trailing bytes after plan list");
  }
  return list;
}

}  // namespace serve
}  // namespace featlib
