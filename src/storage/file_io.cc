#include "storage/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/fault_injection.h"

namespace skycube {

Result<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open: " + path);
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("read failed: " + path);
    }
    if (n == 0) break;
    bytes.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return bytes;
}

Status WriteAll(int fd, std::string_view bytes) {
  const char* data = bytes.data();
  size_t size = bytes.size();
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write failed: ") +
                              std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SyncDir(const std::string& dir) {
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd < 0) {
    return Status::Internal("cannot open dir for fsync: " + dir);
  }
  const int rc = ::fsync(dirfd);
  ::close(dirfd);
  if (rc != 0) return Status::Internal("fsync of dir failed: " + dir);
  return Status::Ok();
}

Status WriteFileAtomically(const std::string& dir, const std::string& name,
                           std::string_view bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create dir: " + dir);
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal("cannot create temp file: " + tmp_path);
  Status wrote = WriteAll(fd, bytes);
  // Crash-test hook: die mid-write — the visible state must still be the
  // previous file set (a .tmp is ignored on recovery).
  if (wrote.ok() && SKYCUBE_FAULT_POINT("checkpoint.crash_mid_write")) {
    std::_Exit(42);
  }
  if (wrote.ok() && ::fsync(fd) != 0) {
    wrote = Status::Internal("fsync failed: " + tmp_path);
  }
  ::close(fd);
  if (!wrote.ok()) {
    std::filesystem::remove(tmp_path, ec);
    return wrote;
  }
  // Crash-test hook: die between fsync and rename — same invariant.
  if (SKYCUBE_FAULT_POINT("checkpoint.crash_before_rename")) std::_Exit(42);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::filesystem::remove(tmp_path, ec);
    return Status::Internal("cannot rename into place: " + final_path);
  }
  return SyncDir(dir);
}

}  // namespace skycube
