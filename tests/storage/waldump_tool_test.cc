// Exit-status contract of skycube_waldump: scripts gate WAL integrity on
// it, so 0 must mean "every record valid and every LSN in place" and 1
// must cover each damage class — checksum corruption, truncation, trailing
// garbage, hole segments, and LSN discontinuities (records individually
// valid but spliced or gapped, which recovery would refuse to replay
// past). The tool is run as a real subprocess via SKYCUBE_WALDUMP_BIN.
#include <stdlib.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "gtest/gtest.h"
#include "storage/file_io.h"
#include "storage/wal.h"

namespace skycube {
namespace {

std::string MakeTempDir() {
  std::string tmpl = "/tmp/skycube-waldump-test-XXXXXX";
  const char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// One wire-exact WAL record (mirrors storage/wal.cc's framing) — built by
/// hand so tests can place records at arbitrary LSNs, which the real
/// appender never does.
std::string RecordBytes(uint64_t lsn, std::string_view payload) {
  std::string record;
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU64(&record, lsn);
  PutU64(&record, Fnv1a64(payload, Fnv1a64(record)));
  record.append(payload);
  return record;
}

std::string SegmentPath(const std::string& dir, uint64_t start_lsn) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return dir + "/" + name;
}

void WriteSegment(const std::string& dir, uint64_t start_lsn,
                  const std::vector<uint64_t>& lsns,
                  std::string_view extra_tail = {}) {
  std::string blob = "SKYWAL01";
  for (uint64_t lsn : lsns) {
    blob += RecordBytes(lsn, EncodeDeletePayload(
                                 static_cast<uint32_t>(lsn), 1700000000000));
  }
  blob.append(extra_tail);
  std::FILE* file = std::fopen(SegmentPath(dir, start_lsn).c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fwrite(blob.data(), 1, blob.size(), file);
  std::fclose(file);
}

int RunWaldump(const std::string& dir, const std::string& extra_flags = "") {
  const std::string command = std::string(SKYCUBE_WALDUMP_BIN) +
                              " --dir=" + dir + " " + extra_flags +
                              " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(status));
  return WEXITSTATUS(status);
}

class WaldumpToolTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(WaldumpToolTest, CleanLogExitsZero) {
  WriteSegment(dir_, 1, {1, 2, 3});
  EXPECT_EQ(RunWaldump(dir_), 0);
}

TEST_F(WaldumpToolTest, RealAppenderLogExitsZero) {
  {
    Result<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(dir_, 1);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          wal.value()
              ->Append(EncodeInsertPayload({1.0, 2.0}, i, 1700000000000 + i))
              .ok());
    }
  }
  EXPECT_EQ(RunWaldump(dir_), 0);
}

TEST_F(WaldumpToolTest, ChecksumCorruptionExitsOne) {
  WriteSegment(dir_, 1, {1, 2, 3});
  const std::string path = SegmentPath(dir_, 1);
  // Flip one payload bit of the middle record.
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  std::fseek(file, -3, SEEK_END);
  const int c = std::fgetc(file);
  std::fseek(file, -3, SEEK_END);
  std::fputc(c ^ 0x10, file);
  std::fclose(file);
  EXPECT_EQ(RunWaldump(dir_), 1);
}

TEST_F(WaldumpToolTest, TruncatedTailExitsOne) {
  WriteSegment(dir_, 1, {1, 2, 3});
  const std::string path = SegmentPath(dir_, 1);
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::filesystem::resize_file(path, size - 5, ec);
  ASSERT_FALSE(ec);
  EXPECT_EQ(RunWaldump(dir_), 1);
}

TEST_F(WaldumpToolTest, TrailingGarbageExitsOne) {
  WriteSegment(dir_, 1, {1, 2}, "garbage-tail-bytes");
  EXPECT_EQ(RunWaldump(dir_), 1);
}

TEST_F(WaldumpToolTest, IntraSegmentLsnGapExitsOne) {
  // Records 1, 2, 5: every checksum valid, but the sequence has a hole —
  // the splice case that used to exit 0.
  WriteSegment(dir_, 1, {1, 2, 5});
  EXPECT_EQ(RunWaldump(dir_), 1);
}

TEST_F(WaldumpToolTest, InterSegmentLsnGapExitsOne) {
  WriteSegment(dir_, 1, {1, 2});
  WriteSegment(dir_, 5, {5, 6});
  EXPECT_EQ(RunWaldump(dir_), 1);
}

TEST_F(WaldumpToolTest, MisnamedSegmentExitsOne) {
  WriteSegment(dir_, 1, {1, 2});
  // Contiguous records, but filed under a name claiming start LSN 4.
  WriteSegment(dir_, 4, {3, 4});
  EXPECT_EQ(RunWaldump(dir_), 1);
}

TEST_F(WaldumpToolTest, TruncatedPrefixStaysClean) {
  // A log whose old segments were retired by TruncateThrough legitimately
  // starts past LSN 1; that is not a gap.
  WriteSegment(dir_, 7, {7, 8, 9});
  EXPECT_EQ(RunWaldump(dir_), 0);
}

TEST_F(WaldumpToolTest, EmptyFinalSegmentStaysClean) {
  WriteSegment(dir_, 1, {1, 2});
  std::FILE* file = std::fopen(SegmentPath(dir_, 3).c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  EXPECT_EQ(RunWaldump(dir_), 0);
}

TEST_F(WaldumpToolTest, EmptyMiddleSegmentExitsOne) {
  WriteSegment(dir_, 1, {1, 2});
  // A zero-byte file that sorts between the two real segments: not the
  // final segment, so a crashed rotation cannot explain it — a hole.
  std::FILE* file = std::fopen(SegmentPath(dir_, 2).c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  WriteSegment(dir_, 3, {3, 4});
  EXPECT_EQ(RunWaldump(dir_), 1);
}

TEST_F(WaldumpToolTest, FromLsnWindowDoesNotMaskDamage) {
  WriteSegment(dir_, 1, {1, 2, 5});
  EXPECT_EQ(RunWaldump(dir_, "--from-lsn=5"), 1);
}

TEST_F(WaldumpToolTest, MissingDirExitsTwo) {
  EXPECT_EQ(RunWaldump(dir_ + "/does-not-exist"), 2);
}

}  // namespace
}  // namespace skycube
