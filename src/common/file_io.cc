#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/fault_injection.h"
#include "common/str_util.h"

namespace featlib {

namespace {

/// Table for the reflected IEEE polynomial 0xEDB88320 (zlib's crc32).
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IOError(
      StrFormat("%s failed for %s: %s", op.c_str(), path.c_str(),
                std::strerror(errno)));
}

/// Writes all of `data`, retrying short writes (signals, pipe semantics).
Status WriteAll(int fd, const char* data, size_t len, const std::string& path) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const char* data, size_t len) {
  const uint32_t* table = Crc32Table();
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(const std::string& data) {
  return Crc32Update(0, data.data(), data.size());
}

void AppendCrcFooter(std::string* contents) {
  *contents += StrFormat("%s%08x\n", kCrcFooterPrefix, Crc32(*contents));
}

Status CheckCrcFooter(const std::string& text) {
  // The footer must be the final line. Find the last newline-prefixed
  // occurrence (a headered file never puts the footer at offset 0).
  const size_t pos = text.rfind(std::string("\n") + kCrcFooterPrefix);
  if (pos == std::string::npos) {
    return Status::DataLoss("no crc32 footer (torn or truncated file)");
  }
  const size_t line_start = pos + 1;
  const size_t line_end = text.find('\n', line_start);
  const std::string footer =
      StrTrim(line_end == std::string::npos
                  ? text.substr(line_start)
                  : text.substr(line_start, line_end - line_start));
  // Nothing but whitespace may follow the footer line.
  if (line_end != std::string::npos &&
      !StrTrim(text.substr(line_end)).empty()) {
    return Status::DataLoss("content after the crc32 footer (corrupt file)");
  }
  const size_t prefix_len = std::string(kCrcFooterPrefix).size();
  const std::string hex =
      footer.size() > prefix_len ? StrTrim(footer.substr(prefix_len)) : "";
  uint32_t expected = 0;
  {
    std::istringstream in(hex);
    in >> std::hex >> expected;
    if (in.fail() || hex.size() != 8) {
      return Status::DataLoss("crc32 footer is malformed: " + footer);
    }
  }
  const uint32_t actual = Crc32Update(0, text.data(), line_start);
  if (actual != expected) {
    return Status::DataLoss(
        StrFormat("crc32 mismatch: footer %08x, computed %08x "
                  "(bit-flipped or truncated file)",
                  expected, actual));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open: " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  // A directory opens fine and would read as empty; a pipe or device has no
  // size to read up to. Either way its bytes are not the file's contents.
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("cannot stat " + path + ": " + std::strerror(errno));
  }
  if (!S_ISREG(st.st_mode)) return Status::IOError("not a regular file: " + path);
  // One buffer of the file's size, filled in place; a read error or an early
  // end is reported, never returned as a shorter file.
  std::string contents(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < contents.size()) {
    const ssize_t n = ::read(fd, contents.data() + done, contents.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IOError("read failed: " + path + ": " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError(StrFormat("short read: %s: %zu of %zu bytes",
                                       path.c_str(), done, contents.size()));
    }
    done += static_cast<size_t>(n);
  }
  return contents;
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  // The temp file must live in the destination directory: rename() is only
  // atomic within a filesystem, and the directory fsync below must cover
  // both the old and the new name.
  const std::filesystem::path dest(path);
  const std::string dir =
      dest.has_parent_path() ? dest.parent_path().string() : std::string(".");
  const std::string tmp = path + ".tmp";

  Status fault = FaultPoint("file_io.open");
  int fd = -1;
  if (fault.ok()) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) fault = ErrnoStatus("open", tmp);
  } else {
    fault = Status::IOError("injected open failure: " + tmp + " (" +
                            fault.message() + ")");
  }
  if (!fault.ok()) return fault;

  // Simulated ENOSPC / short write: flush a partial prefix into the temp
  // file before failing, so tests can prove a torn temp never reaches the
  // destination name.
  Status write_status = FaultPoint("file_io.write");
  if (!write_status.ok()) {
    const size_t partial = contents.size() / 2;
    (void)WriteAll(fd, contents.data(), partial, tmp);
    write_status = Status::IOError("injected short write (ENOSPC): " + tmp +
                                   " (" + write_status.message() + ")");
  } else {
    write_status = WriteAll(fd, contents.data(), contents.size(), tmp);
  }

  if (write_status.ok()) {
    Status fsync_status = FaultPoint("file_io.fsync");
    if (fsync_status.ok()) {
      if (::fsync(fd) != 0) fsync_status = ErrnoStatus("fsync", tmp);
    } else {
      fsync_status = Status::IOError("injected fsync failure: " + tmp + " (" +
                                     fsync_status.message() + ")");
    }
    write_status = fsync_status;
  }
  ::close(fd);

  if (write_status.ok()) {
    write_status = FaultPoint("file_io.rename");
    if (write_status.ok()) {
      if (::rename(tmp.c_str(), path.c_str()) != 0) {
        write_status = ErrnoStatus("rename", tmp + " -> " + path);
      }
    } else {
      write_status = Status::IOError("injected rename failure: " + tmp +
                                     " -> " + path + " (" +
                                     write_status.message() + ")");
    }
  }

  if (!write_status.ok()) {
    ::unlink(tmp.c_str());  // never leave a torn temp behind
    return write_status;
  }

  // Durability of the rename itself: fsync the containing directory. Best
  // effort — some filesystems refuse O_RDONLY directory fds; the rename has
  // already happened, so failure here cannot tear anything.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace featlib
