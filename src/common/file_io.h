#pragma once

/// \file file_io.h
/// \brief Crash-safe file primitives shared by plan and checkpoint
/// persistence.
///
/// AtomicWriteFile implements the classic durable-write protocol: write the
/// full contents to a temp file in the destination directory, fsync the
/// file, rename() it over the destination, then fsync the directory so the
/// rename itself is durable. A reader therefore observes either the old
/// complete file or the new complete file — never a torn mix — and a crash
/// mid-save leaves the previous file intact. Integrity across media faults
/// (bit flips, truncation by other writers) is handled one level up by the
/// CRC32 footer the plan/checkpoint formats embed; Crc32 here is the shared
/// checksum.

#include <cstdint>
#include <string>

#include "common/status.h"

namespace featlib {

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `data`. Table-driven; the
/// checksum of the empty string is 0.
uint32_t Crc32(const std::string& data);

/// Incremental form: feed `crc` = 0 for the first chunk, then chain.
uint32_t Crc32Update(uint32_t crc, const char* data, size_t len);

/// Reads an entire file into a string with one buffer sized from fstat.
/// Returns kNotFound when the file cannot be opened, kIOError when the path
/// is not a regular file (a directory, pipe or device) and on a failed or
/// short read.
Result<std::string> ReadFileToString(const std::string& path);

/// Atomically replaces `path` with `contents` via temp file + fsync +
/// rename + directory fsync. On any failure the temp file is unlinked and
/// the previous `path` (if any) is left untouched.
///
/// Fault-injection sites (see fault_injection.h): "file_io.open",
/// "file_io.write" (simulated ENOSPC/short write: a partial prefix reaches
/// the temp file before the failure), "file_io.fsync", "file_io.rename".
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// The shared integrity-footer convention of plan and checkpoint files: the
/// last line is "-- crc32: <8 hex digits>" checksumming every byte before
/// it. AppendCrcFooter stamps it; CheckCrcFooter verifies it and returns
/// kDataLoss on a missing/malformed footer, trailing content, or a checksum
/// mismatch.
void AppendCrcFooter(std::string* contents);
Status CheckCrcFooter(const std::string& text);

/// The footer line prefix, exposed for format probing ("does this file
/// carry an envelope at all?").
inline constexpr const char* kCrcFooterPrefix = "-- crc32: ";

}  // namespace featlib
