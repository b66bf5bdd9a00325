// WAL unit tests: append/read round trips, fsync policies, torn-tail
// truncation at Open, segment rotation + truncation, and the corruption
// matrix (bit flips and truncations must cost exactly the damaged suffix,
// never a silent wrong read).
#include "storage/wal.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace skycube {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::string> Payloads(int n) {
  std::vector<std::string> payloads;
  for (int i = 0; i < n; ++i) {
    payloads.push_back("row-" + std::to_string(i) +
                       std::string(static_cast<size_t>(i % 7), 'x'));
  }
  return payloads;
}

Result<std::unique_ptr<WriteAheadLog>> OpenAt(const std::string& dir,
                                              uint64_t next_lsn,
                                              WalOptions options = {}) {
  return WriteAheadLog::Open(dir, next_lsn, options);
}

TEST(WalTest, AppendReadRoundTrip) {
  const std::string dir = FreshDir("wal_roundtrip");
  auto wal = OpenAt(dir, 1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const std::vector<std::string> payloads = Payloads(20);
  for (size_t i = 0; i < payloads.size(); ++i) {
    Result<uint64_t> lsn = wal.value()->Append(payloads[i]);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(lsn.value(), i + 1);  // contiguous from next_lsn
  }
  EXPECT_EQ(wal.value()->next_lsn(), payloads.size() + 1);
  wal.value().reset();  // close

  Result<WalReadResult> read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read.value().damaged_suffix);
  ASSERT_EQ(read.value().records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(read.value().records[i].lsn, i + 1);
    EXPECT_EQ(read.value().records[i].payload, payloads[i]);
  }
  // after_lsn skips the prefix.
  Result<WalReadResult> suffix = ReadWal(dir, 15);
  ASSERT_TRUE(suffix.ok());
  ASSERT_EQ(suffix.value().records.size(), 5u);
  EXPECT_EQ(suffix.value().records.front().lsn, 16u);
}

TEST(WalTest, EmptyOrAbsentDirectoryReadsEmpty) {
  const std::string dir = FreshDir("wal_absent");
  Result<WalReadResult> read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().records.empty());
  EXPECT_FALSE(read.value().damaged_suffix);
}

TEST(WalTest, FsyncPolicies) {
  for (const char* name : {"always", "every", "timer"}) {
    Result<FsyncPolicy> policy = FsyncPolicyFromName(name);
    ASSERT_TRUE(policy.ok()) << name;
    WalOptions options;
    options.fsync_policy = policy.value();
    options.fsync_every_n = 4;
    const std::string dir = FreshDir(std::string("wal_policy_") + name);
    auto wal = OpenAt(dir, 1, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(wal.value()->Append("p").ok());
    }
    const WalStats stats = wal.value()->stats();
    EXPECT_EQ(stats.records_appended, 10u);
    if (policy.value() == FsyncPolicy::kEveryRecord) {
      EXPECT_EQ(stats.fsyncs, 10u);
    } else if (policy.value() == FsyncPolicy::kEveryN) {
      EXPECT_LT(stats.fsyncs, 10u);
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
    wal.value().reset();
    Result<WalReadResult> read = ReadWal(dir, 0);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().records.size(), 10u);
  }
  EXPECT_FALSE(FsyncPolicyFromName("bogus").ok());
}

TEST(WalTest, TimerPolicySyncsOnlyWhenAppending) {
  // The interval is checked at append time; no background thread syncs, so
  // a quiet log keeps its unsynced tail until the next append.
  WalOptions options;
  options.fsync_policy = FsyncPolicy::kInterval;
  options.fsync_interval = std::chrono::milliseconds(5);
  auto wal = OpenAt(FreshDir("wal_policy_timer_quiet"), 1, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append("first").ok());
  const uint64_t fsyncs = wal.value()->stats().fsyncs;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(wal.value()->stats().fsyncs, fsyncs);
  ASSERT_TRUE(wal.value()->Append("second").ok());
  EXPECT_EQ(wal.value()->stats().fsyncs, fsyncs + 1);
}

TEST(WalTest, OpenTruncatesBeyondNextLsn) {
  const std::string dir = FreshDir("wal_open_trunc");
  {
    auto wal = OpenAt(dir, 1);
    ASSERT_TRUE(wal.ok());
    for (const std::string& payload : Payloads(10)) {
      ASSERT_TRUE(wal.value()->Append(payload).ok());
    }
  }
  // Reopen claiming only 6 records are trusted: 7.. must be discarded.
  {
    auto wal = OpenAt(dir, 7);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value()->next_lsn(), 7u);
    EXPECT_GT(wal.value()->stats().open_discarded_bytes, 0u);
    ASSERT_TRUE(wal.value()->Append("replacement").ok());
  }
  Result<WalReadResult> read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), 7u);
  EXPECT_EQ(read.value().records.back().payload, "replacement");
  EXPECT_EQ(read.value().records.back().lsn, 7u);
}

TEST(WalTest, SegmentRotationAndTruncateThrough) {
  const std::string dir = FreshDir("wal_rotate");
  WalOptions options;
  options.segment_bytes = 128;  // force frequent rotation
  auto wal = OpenAt(dir, 1, options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(wal.value()->Append("payload-" + std::to_string(i)).ok());
  }
  ASSERT_GT(wal.value()->stats().segments_created, 3u);

  // Truncating through lsn 20 removes only whole segments fully <= 20.
  ASSERT_TRUE(wal.value()->TruncateThrough(20).ok());
  EXPECT_GT(wal.value()->stats().segments_deleted, 0u);
  Result<WalReadResult> read = ReadWal(dir, 20);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), 20u);
  EXPECT_EQ(read.value().records.front().lsn, 21u);
  EXPECT_FALSE(read.value().damaged_suffix);

  // Records after truncation continue the same LSN sequence.
  Result<uint64_t> lsn = wal.value()->Append("after-truncate");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 41u);
}

// --- Corruption matrix ----------------------------------------------------
// Damage byte-by-byte shapes; every case must surface as a damaged suffix
// whose boundary is exactly the last intact record.

struct Damage {
  const char* name;
  // Applies damage to the (single) segment file; returns the number of
  // records expected to survive out of 10.
  size_t (*apply)(const std::string& file);
};

size_t FileSize(const std::string& file) {
  return static_cast<size_t>(fs::file_size(file));
}

void FlipByteAt(const std::string& file, size_t offset) {
  std::fstream stream(file,
                      std::ios::in | std::ios::out | std::ios::binary);
  stream.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  stream.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  stream.seekp(static_cast<std::streamoff>(offset));
  stream.write(&byte, 1);
}

TEST(WalTest, CorruptionMatrix) {
  // Build a reference log once to learn record offsets.
  const std::string ref_dir = FreshDir("wal_corrupt_ref");
  {
    auto wal = OpenAt(ref_dir, 1);
    ASSERT_TRUE(wal.ok());
    for (const std::string& payload : Payloads(10)) {
      ASSERT_TRUE(wal.value()->Append(payload).ok());
    }
  }
  const std::string segment =
      (fs::directory_iterator(ref_dir)->path()).string();
  const size_t full_size = FileSize(segment);

  struct Case {
    std::string name;
    size_t damage_offset;  // byte to flip (or npos = truncate instead)
    size_t truncate_to;    // only when damage_offset == npos
    size_t expect_records;
  };
  // Offsets: 8-byte magic, then records of 20-byte header + payload. Record
  // i's payload is "row-i" + (i%7) 'x' → length 5 + i%7 for one-digit i.
  const size_t kNpos = static_cast<size_t>(-1);
  std::vector<Case> cases;
  // Flip a byte in record 5's payload → records 0..4 survive.
  size_t offset = 8;
  for (int i = 0; i < 5; ++i) {
    offset += 20 + 5 + static_cast<size_t>(i % 7);
  }
  cases.push_back({"payload-bit-flip", offset + 20 + 2, 0, 5});
  // Flip a byte in record 0's header (lsn field) → nothing survives.
  cases.push_back({"first-header-flip", 8 + 4, 0, 0});
  // Truncate mid-final-record (torn tail) → 9 survive.
  cases.push_back({"torn-tail", kNpos, full_size - 3, 9});
  // Truncate inside the magic → empty log, damaged.
  cases.push_back({"torn-magic", kNpos, 4, 0});
  // Flip the last record's checksum field (record is 20 + 7 bytes; the
  // checksum sits at record_start + 12).
  cases.push_back({"checksum-flip", full_size - 27 + 12, 0, 9});

  for (const Case& damage : cases) {
    const std::string dir = FreshDir("wal_corrupt_" + damage.name);
    fs::create_directories(dir);
    const std::string copy = dir + "/" + fs::path(segment).filename().string();
    fs::copy_file(segment, copy);
    if (damage.damage_offset == kNpos) {
      fs::resize_file(copy, damage.truncate_to);
    } else {
      FlipByteAt(copy, damage.damage_offset);
    }
    Result<WalReadResult> read = ReadWal(dir, 0);
    ASSERT_TRUE(read.ok()) << damage.name;
    EXPECT_EQ(read.value().records.size(), damage.expect_records)
        << damage.name;
    EXPECT_TRUE(read.value().damaged_suffix) << damage.name;
    // The surviving prefix is byte-exact, not merely counted.
    for (size_t i = 0; i < read.value().records.size(); ++i) {
      EXPECT_EQ(read.value().records[i].payload, Payloads(10)[i])
          << damage.name;
    }
  }
}

// --- Op-typed (v3) payloads ----------------------------------------------

TEST(WalTest, OpPayloadRoundTrip) {
  const std::vector<double> row = {0.125, -7.5, 1e300, 0.0};
  Result<WalOpRecord> insert =
      DecodeOpPayload(EncodeInsertPayload(row, /*row=*/317, /*ts=*/123456));
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert.value().op, WalOp::kInsert);
  EXPECT_EQ(insert.value().values, row);
  EXPECT_EQ(insert.value().row, 317u);
  EXPECT_EQ(insert.value().timestamp_ms, 123456u);

  Result<WalOpRecord> del =
      DecodeOpPayload(EncodeDeletePayload(/*row=*/42, /*ts=*/99));
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del.value().op, WalOp::kDelete);
  EXPECT_EQ(del.value().row, 42u);
  EXPECT_EQ(del.value().timestamp_ms, 99u);
  EXPECT_TRUE(del.value().values.empty());
}

TEST(WalTest, RejectsPayloadBelowOpTags) {
  // Format v2 logged a bare row: a u32 dimension count, then the doubles.
  // Its first byte (the count's low byte) is below every v3 op tag, and
  // v2 payloads are no longer read.
  std::string row_payload("\x03\x00\x00\x00", 4);
  row_payload.append(3 * sizeof(double), '\0');
  Result<WalOpRecord> row = DecodeOpPayload(row_payload);
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kInvalidArgument);
  // Every leading byte below 0x80, on an otherwise valid insert payload.
  std::string insert = EncodeInsertPayload({1.5, 2.5, 3.5}, 4, 1000);
  for (int tag = 0; tag < 0x80; ++tag) {
    insert[0] = static_cast<char>(tag);
    Result<WalOpRecord> decoded = DecodeOpPayload(insert);
    ASSERT_FALSE(decoded.ok()) << tag;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << tag;
  }
}

TEST(WalTest, OpPayloadDecodeRejectsDamage) {
  // Unknown op tag.
  EXPECT_FALSE(DecodeOpPayload("\xFFgarbage").ok());
  EXPECT_FALSE(DecodeOpPayload("").ok());
  // Truncations of valid payloads at every length must fail cleanly, never
  // read out of bounds (the checksum normally catches these; the decoder
  // must still be safe against a checksummed-but-misframed record).
  const std::string insert = EncodeInsertPayload({4.0, 5.0}, 7, 1000);
  for (size_t len = 1; len < insert.size(); ++len) {
    EXPECT_FALSE(DecodeOpPayload(insert.substr(0, len)).ok()) << len;
  }
  const std::string del = EncodeDeletePayload(7, 1000);
  for (size_t len = 1; len < del.size(); ++len) {
    EXPECT_FALSE(DecodeOpPayload(del.substr(0, len)).ok()) << len;
  }
  // Trailing bytes after a complete payload are format drift, not valid.
  EXPECT_FALSE(DecodeOpPayload(del + "x").ok());
}

TEST(WalTest, MixedOpTailStraddlesSegmentBoundary) {
  // Interleaved insert/delete records with a segment size small enough that
  // the mixed tail crosses at least one rotation — recovery must read the
  // whole sequence back in order regardless of which segment holds what.
  const std::string dir = FreshDir("wal_mixed_rotate");
  WalOptions options;
  options.segment_bytes = 96;  // a few records per segment
  auto wal = OpenAt(dir, 1, options);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> payloads;
  for (uint32_t i = 0; i < 30; ++i) {
    payloads.push_back(
        i % 3 == 2 ? EncodeDeletePayload(i / 3, 1000 + i)
                   : EncodeInsertPayload({0.1 * i, 0.2 * i}, i, 1000 + i));
    ASSERT_TRUE(wal.value()->Append(payloads.back()).ok());
  }
  ASSERT_GT(wal.value()->stats().segments_created, 2u);
  wal.value().reset();

  Result<WalReadResult> read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().damaged_suffix);
  ASSERT_EQ(read.value().records.size(), payloads.size());
  for (uint32_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(read.value().records[i].payload, payloads[i]) << i;
    Result<WalOpRecord> op = DecodeOpPayload(read.value().records[i].payload);
    ASSERT_TRUE(op.ok()) << i;
    EXPECT_EQ(op.value().op, i % 3 == 2 ? WalOp::kDelete : WalOp::kInsert);
    EXPECT_EQ(op.value().timestamp_ms, 1000u + i);
  }
}

// --- DumpWal (the skycube_waldump view) ----------------------------------

TEST(WalTest, DumpWalReportsEveryRecordAcrossSegments) {
  const std::string dir = FreshDir("wal_dump_clean");
  WalOptions options;
  options.segment_bytes = 96;
  auto wal = OpenAt(dir, 1, options);
  ASSERT_TRUE(wal.ok());
  for (uint32_t i = 0; i < 12; ++i) {
    const std::string payload =
        i % 2 ? EncodeDeletePayload(i, 10 * i)
              : EncodeInsertPayload({1.0 * i}, i, 10 * i);
    ASSERT_TRUE(wal.value()->Append(payload).ok());
  }
  wal.value().reset();

  Result<std::vector<WalDumpSegment>> dump = DumpWal(dir);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  ASSERT_GT(dump.value().size(), 1u);  // rotation happened
  uint64_t expect_lsn = 1;
  for (const WalDumpSegment& segment : dump.value()) {
    EXPECT_TRUE(segment.magic_ok) << segment.file;
    EXPECT_EQ(segment.declared_start, expect_lsn) << segment.file;
    EXPECT_EQ(segment.trailing_bytes, 0u) << segment.file;
    for (const WalDumpRecord& record : segment.records) {
      EXPECT_EQ(record.lsn, expect_lsn);
      EXPECT_TRUE(record.checksum_ok);
      ASSERT_TRUE(record.decode_ok);
      EXPECT_EQ(record.record.op,
                (expect_lsn - 1) % 2 ? WalOp::kDelete : WalOp::kInsert);
      ++expect_lsn;
    }
  }
  EXPECT_EQ(expect_lsn, 13u);  // every appended record was reported
}

TEST(WalTest, DumpWalSurfacesDamageInsteadOfHidingIt) {
  const std::string dir = FreshDir("wal_dump_damaged");
  {
    auto wal = OpenAt(dir, 1);
    ASSERT_TRUE(wal.ok());
    for (const std::string& payload : Payloads(10)) {
      ASSERT_TRUE(wal.value()->Append(payload).ok());
    }
  }
  const std::string segment =
      (fs::directory_iterator(dir)->path()).string();
  // Flip a byte in record 5's payload (offsets as in CorruptionMatrix).
  size_t offset = 8;
  for (int i = 0; i < 5; ++i) {
    offset += 20 + 5 + static_cast<size_t>(i % 7);
  }
  FlipByteAt(segment, offset + 20 + 2);

  Result<std::vector<WalDumpSegment>> dump = DumpWal(dir);
  ASSERT_TRUE(dump.ok());
  ASSERT_EQ(dump.value().size(), 1u);
  const WalDumpSegment& seg = dump.value()[0];
  // Records 0..4 intact, record 5 reported with a failed checksum (unlike
  // ReadWal, which would just stop), and the rest counted as trailing.
  ASSERT_GE(seg.records.size(), 6u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(seg.records[i].checksum_ok) << i;
  }
  EXPECT_FALSE(seg.records[5].checksum_ok);
  EXPECT_GT(seg.trailing_bytes, 0u);
}

TEST(WalTest, EmptyFinalSegmentIsGracefulNotDamage) {
  // A rotation that crashed after creating the new segment file but before
  // writing its magic leaves a zero-byte final segment. Recovery and the
  // dump view must both treat it as a clean tail, not damage.
  const std::string dir = FreshDir("wal_empty_final");
  {
    auto wal = OpenAt(dir, 1);
    ASSERT_TRUE(wal.ok());
    for (const std::string& payload : Payloads(6)) {
      ASSERT_TRUE(wal.value()->Append(payload).ok());
    }
  }
  {
    std::ofstream create(dir + "/wal-0000000000000007.log",
                         std::ios::binary);
  }

  Result<WalReadResult> read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().records.size(), 6u);
  EXPECT_EQ(read.value().last_valid_lsn, 6u);
  EXPECT_FALSE(read.value().damaged_suffix);

  Result<std::vector<WalDumpSegment>> dump = DumpWal(dir);
  ASSERT_TRUE(dump.ok());
  ASSERT_EQ(dump.value().size(), 2u);
  EXPECT_FALSE(dump.value()[0].empty);
  EXPECT_TRUE(dump.value()[1].empty);
  EXPECT_EQ(dump.value()[1].declared_start, 7u);
  EXPECT_TRUE(dump.value()[1].records.empty());
  EXPECT_EQ(dump.value()[1].trailing_bytes, 0u);

  // Reopening for append continues at lsn 7 cleanly.
  auto reopened = OpenAt(dir, 7);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Result<uint64_t> lsn = reopened.value()->Append("after-crash");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 7u);
}

TEST(WalTest, OpenOverDamagedMagicStartsAFreshSegment) {
  // The last segment lies below next_lsn (a checkpoint covers its records)
  // but its magic is damaged. Appending into it would put the new records
  // behind no magic, where the next read discards them.
  const std::string dir = FreshDir("wal_damaged_magic");
  {
    auto wal = OpenAt(dir, 1);
    ASSERT_TRUE(wal.ok());
    for (const std::string& payload : Payloads(5)) {
      ASSERT_TRUE(wal.value()->Append(payload).ok());
    }
  }
  FlipByteAt(dir + "/wal-0000000000000001.log", 0);
  {
    auto wal = OpenAt(dir, 6);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(wal.value()->Append("after-6").value(), 6u);
    ASSERT_EQ(wal.value()->Append("after-7").value(), 7u);
  }
  Result<WalReadResult> read = ReadWal(dir, 5);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read.value().damaged_suffix);
  ASSERT_EQ(read.value().records.size(), 2u);
  EXPECT_EQ(read.value().records[0].payload, "after-6");
  EXPECT_EQ(read.value().records[1].lsn, 7u);
  // The damaged segment stays on disk for the dump view.
  Result<std::vector<WalDumpSegment>> dump = DumpWal(dir);
  ASSERT_TRUE(dump.ok());
  ASSERT_EQ(dump.value().size(), 2u);
  EXPECT_FALSE(dump.value()[0].magic_ok);
  EXPECT_TRUE(dump.value()[1].magic_ok);
  EXPECT_EQ(dump.value()[1].declared_start, 6u);
}

TEST(WalTest, EmptyMiddleSegmentIsAHole) {
  // The same zero-byte file anywhere but the end hides records behind it —
  // ReadWal must stop (damaged suffix), never skip the gap.
  const std::string dir = FreshDir("wal_empty_middle");
  WalOptions options;
  options.segment_bytes = 64;
  {
    auto wal = OpenAt(dir, 1, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(wal.value()->Append("abcdefgh").ok());
    }
  }
  Result<std::vector<WalDumpSegment>> before = DumpWal(dir);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before.value().size(), 1u);
  // Hollow out a middle segment.
  const std::string victim = dir + "/" + before.value()[1].file;
  {
    std::ofstream truncate(victim,
                           std::ios::binary | std::ios::trunc);
  }
  Result<WalReadResult> read = ReadWal(dir, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().damaged_suffix);
  EXPECT_LT(read.value().records.size(), 12u);
  Result<std::vector<WalDumpSegment>> dump = DumpWal(dir);
  ASSERT_TRUE(dump.ok());
  EXPECT_TRUE(dump.value()[1].empty);
}

TEST(WalTest, ReadAfterLsnBeyondTruncatedPrefixReportsDamage) {
  const std::string dir = FreshDir("wal_missing_prefix");
  WalOptions options;
  options.segment_bytes = 64;
  auto wal = OpenAt(dir, 1, options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wal.value()->Append("abcdefgh").ok());
  }
  ASSERT_TRUE(wal.value()->TruncateThrough(15).ok());
  // Asking for records after lsn 2 when the log starts later than 3 is a
  // gap — must be reported, never silently skipped.
  Result<WalReadResult> read = ReadWal(dir, 2);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().records.empty());
  EXPECT_TRUE(read.value().damaged_suffix);
}

}  // namespace
}  // namespace skycube
