// Byte- and file-level primitives shared by every storage format (the WAL,
// the checkpoint, the replication snapshot and shipped batches): the
// little-endian integer codec, whole-file reads, retried writes, directory
// fsync, and the atomic temp → fsync → rename → dir-fsync file write.
// Naked file I/O lives in src/storage/ only (docs/STATIC_ANALYSIS.md, R2).
#ifndef SKYCUBE_STORAGE_FILE_IO_H_
#define SKYCUBE_STORAGE_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace skycube {

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

inline uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// The whole file at `path`; kNotFound when it cannot be opened.
[[nodiscard]] Result<std::string> ReadFileBytes(const std::string& path);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
[[nodiscard]] Status WriteAll(int fd, std::string_view bytes);

/// fsyncs directory `dir`, so the names created or removed in it survive a
/// crash.
[[nodiscard]] Status SyncDir(const std::string& dir);

/// Makes `dir/name` hold exactly `bytes`, atomically: writes `name.tmp`,
/// fsyncs it, renames it into place and fsyncs `dir` (created if missing).
/// A crash at any point leaves either the old file set or the old set plus
/// the complete new file; only a stray `.tmp` can be left behind.
[[nodiscard]] Status WriteFileAtomically(const std::string& dir,
                                         const std::string& name,
                                         std::string_view bytes);

}  // namespace skycube

#endif  // SKYCUBE_STORAGE_FILE_IO_H_
