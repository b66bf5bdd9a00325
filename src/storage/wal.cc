#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "storage/file_io.h"

namespace skycube {

namespace {

constexpr char kSegmentMagic[8] = {'S', 'K', 'Y', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderBytes = 4 + 8 + 8;  // len, lsn, checksum
/// Sanity bound: a corrupt length field must not drive a giant read.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// The record checksum: FNV-1a over the len and lsn fields, continued over
/// the payload, so a flip anywhere in the record (header included) is
/// caught.
uint64_t RecordChecksum(std::string_view len_and_lsn,
                        std::string_view payload) {
  return Fnv1a64(payload, Fnv1a64(len_and_lsn));
}

/// Serializes one record.
std::string EncodeRecord(uint64_t lsn, std::string_view payload) {
  std::string record;
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU64(&record, lsn);
  PutU64(&record, RecordChecksum(record, payload));
  record.append(payload);
  return record;
}

bool HasMagic(std::string_view bytes) {
  return bytes.size() >= sizeof(kSegmentMagic) &&
         std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) == 0;
}

/// One record frame read at a byte offset of a segment.
struct Frame {
  /// False when fewer than a header's bytes remain (a torn header); the
  /// fields below are then unset.
  bool has_header = false;
  /// The header's fields, untrusted unless `valid`.
  uint32_t payload_len = 0;
  uint64_t lsn = 0;
  /// The length is in bounds, fits the segment, and the checksum matches.
  bool valid = false;
  std::string_view payload;  // set iff valid
};

/// The one parser of the record framing (len | lsn | checksum | payload).
Frame ParseFrame(std::string_view bytes, size_t offset) {
  Frame frame;
  if (bytes.size() - offset < kHeaderBytes) return frame;
  frame.has_header = true;
  const char* header = bytes.data() + offset;
  frame.payload_len = GetU32(header);
  frame.lsn = GetU64(header + 4);
  if (frame.payload_len > kMaxPayloadBytes ||
      bytes.size() - offset - kHeaderBytes < frame.payload_len) {
    return frame;  // a corrupt or torn length: nothing after it is framed
  }
  const std::string_view payload =
      bytes.substr(offset + kHeaderBytes, frame.payload_len);
  if (RecordChecksum(std::string_view(header, 12), payload) !=
      GetU64(header + 12)) {
    return frame;
  }
  frame.valid = true;
  frame.payload = payload;
  return frame;
}

std::string SegmentName(uint64_t start_lsn) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return buffer;
}

/// Lists wal-*.log segments in `dir` as (start_lsn, filename), ascending.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long lsn = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "wal-%16llx.log%n", &lsn, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      segments.emplace_back(lsn, name);
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Scans one segment's bytes. Appends records with after_lsn < lsn <
/// end_lsn to `out`; `*expected_lsn` is the contiguity cursor (0 = adopt
/// the segment's declared start). Returns the byte offset where the scan
/// stopped: the end of the valid prefix, or the start of the first record
/// at or past end_lsn. `*valid` reports whether it stopped there without
/// damage (at the physical end, or at end_lsn).
size_t ScanSegment(std::string_view bytes, uint64_t declared_start,
                   uint64_t after_lsn, uint64_t end_lsn, uint64_t* expected_lsn,
                   std::vector<WalRecord>* out, bool* valid) {
  *valid = false;
  if (bytes.empty()) {
    // A crash between segment creation and its magic write leaves a
    // zero-byte file. It holds no records, so it is not damage — but only
    // when its declared start lines up with the contiguity cursor (a
    // mismatched empty segment still implies missing records).
    if (*expected_lsn == 0) *expected_lsn = declared_start;
    *valid = declared_start == *expected_lsn;
    return 0;
  }
  if (!HasMagic(bytes)) return 0;
  if (*expected_lsn == 0) *expected_lsn = declared_start;
  if (declared_start != *expected_lsn) {
    return sizeof(kSegmentMagic);  // inter-segment gap: damaged suffix
  }
  size_t offset = sizeof(kSegmentMagic);
  for (;;) {
    if (offset == bytes.size()) {
      *valid = true;  // clean end of segment
      return offset;
    }
    const Frame frame = ParseFrame(bytes, offset);
    if (!frame.valid) return offset;  // torn or damaged
    if (frame.lsn != *expected_lsn) return offset;  // checksummed, misplaced
    if (frame.lsn >= end_lsn) {
      *valid = true;
      return offset;
    }
    if (frame.lsn > after_lsn && out != nullptr) {
      out->push_back(WalRecord{frame.lsn, std::string(frame.payload)});
    }
    ++*expected_lsn;
    offset += kHeaderBytes + frame.payload_len;
  }
}

}  // namespace

Result<FsyncPolicy> FsyncPolicyFromName(const std::string& name) {
  if (name == "always") return FsyncPolicy::kEveryRecord;
  if (name == "every") return FsyncPolicy::kEveryN;
  if (name == "timer") return FsyncPolicy::kInterval;
  return Status::InvalidArgument(
      "unknown fsync policy '" + name + "' (want: always, every, timer)");
}

const char* WalOpName(WalOp op) {
  switch (op) {
    case WalOp::kInsert:
      return "insert";
    case WalOp::kDelete:
      return "delete";
  }
  return "unknown";
}

std::string EncodeInsertPayload(const std::vector<double>& values,
                                uint32_t row, uint64_t timestamp_ms) {
  std::string payload;
  payload.push_back(static_cast<char>(WalOp::kInsert));
  PutU64(&payload, timestamp_ms);
  PutU32(&payload, row);
  PutU32(&payload, static_cast<uint32_t>(values.size()));
  for (double value : values) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    PutU64(&payload, bits);
  }
  return payload;
}

std::string EncodeDeletePayload(uint32_t row, uint64_t timestamp_ms) {
  std::string payload;
  payload.push_back(static_cast<char>(WalOp::kDelete));
  PutU64(&payload, timestamp_ms);
  PutU32(&payload, row);
  return payload;
}

Result<WalOpRecord> DecodeOpPayload(std::string_view payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty WAL op payload");
  }
  const uint8_t tag = static_cast<unsigned char>(payload[0]);
  if (tag == static_cast<uint8_t>(WalOp::kInsert)) {
    if (payload.size() < 1 + 8 + 4 + 4) {
      return Status::InvalidArgument("insert payload shorter than header");
    }
    WalOpRecord record;
    record.op = WalOp::kInsert;
    record.timestamp_ms = GetU64(payload.data() + 1);
    record.row = GetU32(payload.data() + 9);
    const uint32_t n = GetU32(payload.data() + 13);
    if (payload.size() != 17 + static_cast<size_t>(n) * 8) {
      return Status::InvalidArgument("insert payload size mismatch");
    }
    record.values.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t bits = GetU64(payload.data() + 17 + i * 8);
      std::memcpy(&record.values[i], &bits, sizeof(double));
    }
    return record;
  }
  if (tag == static_cast<uint8_t>(WalOp::kDelete)) {
    if (payload.size() != 1 + 8 + 4) {
      return Status::InvalidArgument("delete payload size mismatch");
    }
    WalOpRecord record;
    record.op = WalOp::kDelete;
    record.timestamp_ms = GetU64(payload.data() + 1);
    record.row = GetU32(payload.data() + 9);
    return record;
  }
  return Status::InvalidArgument("unknown WAL op tag");
}

Result<std::vector<WalDumpSegment>> DumpWal(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    return Status::NotFound("no such WAL directory: " + dir);
  }
  std::vector<WalDumpSegment> segments;
  for (const auto& [start, name] : ListSegments(dir)) {
    Result<std::string> bytes = ReadFileBytes(dir + "/" + name);
    if (!bytes.ok()) return bytes.status();
    const std::string_view b = bytes.value();
    WalDumpSegment segment;
    segment.file = name;
    segment.declared_start = start;
    segment.magic_ok = HasMagic(b);
    segment.empty = b.empty();
    if (!segment.magic_ok) {
      segment.trailing_bytes = b.size();
      segments.push_back(std::move(segment));
      continue;
    }
    size_t offset = sizeof(kSegmentMagic);
    while (offset < b.size()) {
      const Frame frame = ParseFrame(b, offset);
      if (!frame.has_header) break;  // torn header
      WalDumpRecord record;
      record.lsn = frame.lsn;
      record.payload_bytes = frame.payload_len;
      record.checksum_ok = frame.valid;
      if (frame.valid) {
        if (Result<WalOpRecord> decoded = DecodeOpPayload(frame.payload);
            decoded.ok()) {
          record.decode_ok = true;
          record.record = std::move(decoded.value());
        }
      }
      segment.records.push_back(std::move(record));
      // A failed checksum covers the length field too; walking past it
      // would be guesswork.
      if (!frame.valid) break;
      offset += kHeaderBytes + frame.payload_len;
    }
    segment.trailing_bytes = b.size() - offset;
    segments.push_back(std::move(segment));
  }
  return segments;
}

uint64_t WalOldestStart(const std::string& dir) {
  const auto segments = ListSegments(dir);
  return segments.empty() ? 0 : segments.front().first;
}

Result<WalReadResult> ReadWal(const std::string& dir, uint64_t after_lsn) {
  WalReadResult result;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return result;
  const auto segments = ListSegments(dir);
  if (segments.empty()) return result;
  // Start at the last segment that can contain after_lsn + 1; everything
  // before it holds only records the caller already has.
  size_t first = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first <= after_lsn + 1) first = i;
  }
  if (segments[first].first > after_lsn + 1) {
    // The log no longer reaches back to after_lsn + 1 (e.g. it was
    // truncated past the checkpoint being recovered from). Replaying the
    // later records would silently skip a gap; surface it instead.
    result.damaged_suffix = true;
    for (const auto& [start, name] : segments) {
      std::error_code size_ec;
      result.discarded_bytes +=
          std::filesystem::file_size(dir + "/" + name, size_ec);
    }
    return result;
  }
  uint64_t expected_lsn = 0;
  for (size_t i = first; i < segments.size(); ++i) {
    const std::string path = dir + "/" + segments[i].second;
    Result<std::string> bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    ++result.segments_scanned;
    bool valid = false;
    const size_t end = ScanSegment(bytes.value(), segments[i].first, after_lsn,
                                   std::numeric_limits<uint64_t>::max(),
                                   &expected_lsn, &result.records, &valid);
    if (!valid) {
      result.damaged_suffix = true;
      result.discarded_bytes += bytes.value().size() - end;
      for (size_t j = i + 1; j < segments.size(); ++j) {
        std::error_code size_ec;
        result.discarded_bytes += std::filesystem::file_size(
            dir + "/" + segments[j].second, size_ec);
      }
      break;
    }
  }
  result.last_valid_lsn = expected_lsn == 0 ? 0 : expected_lsn - 1;
  return result;
}

WriteAheadLog::WriteAheadLog(std::string dir, uint64_t next_lsn,
                             WalOptions options)
    : dir_(std::move(dir)),
      options_(options),
      next_lsn_(next_lsn),
      last_sync_(std::chrono::steady_clock::now()) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    // Best effort: a destructor cannot report failure. Callers that need
    // the durability guarantee call Sync()/Drain() first.
    if (sync_pending_) (void)::fdatasync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, uint64_t next_lsn, WalOptions options) {
  if (next_lsn == 0) {
    return Status::InvalidArgument("WAL LSNs start at 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create WAL dir: " + dir);
  }
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(dir, next_lsn, options));

  // Discard everything at or beyond next_lsn: whole segments first, then
  // the suffix of the segment containing it.
  auto segments = ListSegments(dir);
  while (!segments.empty() && segments.back().first >= next_lsn) {
    const std::string path = dir + "/" + segments.back().second;
    std::error_code size_ec;
    wal->stats_.open_discarded_bytes +=
        std::filesystem::file_size(path, size_ec);
    if (!std::filesystem::remove(path, ec)) {
      return Status::Internal("cannot remove WAL segment: " + path);
    }
    segments.pop_back();
  }
  if (!segments.empty()) {
    // Find where the valid prefix below next_lsn ends in the last segment
    // and physically truncate there: torn tails go, and so do records at
    // or beyond next_lsn, which are untrusted.
    const std::string path = dir + "/" + segments.back().second;
    Result<std::string> bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    wal->segments_.assign(segments.begin(), segments.end());
    if (!HasMagic(bytes.value())) {
      // Records appended here would sit behind no magic, and the next
      // recovery would discard them. Leave the damaged file for
      // skycube_waldump and start a segment at next_lsn, where ReadWal
      // begins once a checkpoint covers the damaged one.
      if (Status rotate = wal->RotateSegment(); !rotate.ok()) return rotate;
      return wal;
    }
    uint64_t expected = 0;
    bool valid = false;
    const size_t end =
        ScanSegment(bytes.value(), segments.back().first, /*after_lsn=*/0,
                    /*end_lsn=*/next_lsn, &expected, nullptr, &valid);
    if (end < bytes.value().size()) {
      wal->stats_.open_discarded_bytes += bytes.value().size() - end;
      std::filesystem::resize_file(path, end, ec);
      if (ec) {
        return Status::Internal("cannot truncate WAL segment: " + path);
      }
    }
    // Re-open the trimmed segment for appending.
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      return Status::Internal("cannot open WAL segment for append: " + path);
    }
    wal->fd_ = fd;
    wal->segment_start_lsn_ = segments.back().first;
    wal->segment_size_ = end;
    wal->sync_pending_ = true;  // the truncation itself must reach disk
    if (Status sync = wal->Sync(); !sync.ok()) return sync;
    if (Status dir_sync = SyncDir(dir); !dir_sync.ok()) return dir_sync;
  } else {
    if (Status rotate = wal->RotateSegment(); !rotate.ok()) return rotate;
  }
  return wal;
}

Status WriteAheadLog::RotateSegment() {
  if (fd_ >= 0) {
    if (sync_pending_) {
      if (Status sync = Sync(); !sync.ok()) return sync;
    }
    ::close(fd_);
    fd_ = -1;
  }
  const std::string name = SegmentName(next_lsn_);
  const std::string path = dir_ + "/" + name;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create WAL segment: " + path);
  }
  if (Status write =
          WriteAll(fd, std::string_view(kSegmentMagic, sizeof(kSegmentMagic)));
      !write.ok()) {
    ::close(fd);
    return write;
  }
  if (::fdatasync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fdatasync failed on new segment: " + path);
  }
  fd_ = fd;
  segment_start_lsn_ = next_lsn_;
  segment_size_ = sizeof(kSegmentMagic);
  records_since_sync_ = 0;
  sync_pending_ = false;
  segments_.emplace_back(next_lsn_, name);
  ++stats_.segments_created;
  last_sync_ = std::chrono::steady_clock::now();
  return SyncDir(dir_);  // the new name must survive a crash
}

Result<uint64_t> WriteAheadLog::Append(std::string_view payload) {
  if (failed_) {
    return Status::Internal("WAL is failed after a prior I/O error");
  }
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("WAL payload too large");
  }
  if (segment_size_ >= options_.segment_bytes) {
    if (Status rotate = RotateSegment(); !rotate.ok()) {
      failed_ = true;
      return rotate;
    }
  }
  const uint64_t lsn = next_lsn_;
  const std::string record = EncodeRecord(lsn, payload);
  // Crash-test hook: die after writing only half the record — a torn tail
  // the next open must truncate.
  if (SKYCUBE_FAULT_POINT("wal.append_torn")) {
    (void)WriteAll(fd_, std::string_view(record).substr(0, record.size() / 2));
    (void)::fdatasync(fd_);  // make the torn half durable, then die
    std::_Exit(42);
  }
  if (Status write = WriteAll(fd_, record); !write.ok()) {
    failed_ = true;
    return write;
  }
  // Crash-test hook: die after the full write but before the policy sync —
  // the record may or may not survive, and either outcome must recover.
  if (SKYCUBE_FAULT_POINT("wal.append_crash")) std::_Exit(42);
  ++next_lsn_;
  segment_size_ += record.size();
  ++records_since_sync_;
  sync_pending_ = true;
  ++stats_.records_appended;
  stats_.bytes_appended += record.size();

  bool want_sync = false;
  switch (options_.fsync_policy) {
    case FsyncPolicy::kEveryRecord:
      want_sync = true;
      break;
    case FsyncPolicy::kEveryN:
      want_sync = records_since_sync_ >= options_.fsync_every_n;
      break;
    case FsyncPolicy::kInterval:
      want_sync = std::chrono::steady_clock::now() - last_sync_ >=
                  options_.fsync_interval;
      break;
  }
  if (want_sync) {
    if (Status sync = Sync(); !sync.ok()) {
      failed_ = true;
      return sync;
    }
  }
  return lsn;
}

Status WriteAheadLog::Sync() {
  if (!sync_pending_ || fd_ < 0) return Status::Ok();
  if (::fdatasync(fd_) != 0) {
    return Status::Internal("WAL fdatasync failed");
  }
  sync_pending_ = false;
  records_since_sync_ = 0;
  ++stats_.fsyncs;
  last_sync_ = std::chrono::steady_clock::now();
  return Status::Ok();
}

Status WriteAheadLog::TruncateThrough(uint64_t lsn) {
  // Segment i covers [start_i, start_{i+1} - 1]; deletable iff that whole
  // range is <= lsn and it is not the active segment.
  bool deleted = false;
  while (segments_.size() > 1 && segments_[1].first <= lsn + 1) {
    const std::string path = dir_ + "/" + segments_.front().second;
    std::error_code ec;
    if (!std::filesystem::remove(path, ec)) {
      return Status::Internal("cannot remove WAL segment: " + path);
    }
    segments_.erase(segments_.begin());
    ++stats_.segments_deleted;
    deleted = true;
  }
  return deleted ? SyncDir(dir_) : Status::Ok();
}

WalStats WriteAheadLog::stats() const {
  WalStats stats = stats_;
  stats.next_lsn = next_lsn_;
  stats.live_segments = segments_.size();
  return stats;
}

}  // namespace skycube
