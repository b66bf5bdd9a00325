// Replication tests (storage/replication.h): shipped-batch codec, WAL
// shipper semantics (truncation → re-bootstrap, ack tracking, semi-sync
// fencing), snapshot install/wipe/rewind utilities, and the follower apply
// loop — including a hand-written tail with an already-dead delete, whose
// replay on a follower must be byte-identical to local recovery of the
// primary's log.
#include "storage/replication.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "gtest/gtest.h"
#include "storage/durable_ingest.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace skycube {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

Dataset MakeData(size_t n, int dims, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_objects = n;
  spec.num_dims = dims;
  spec.seed = seed;
  spec.truncate_decimals = 3;
  return GenerateSynthetic(spec);
}

/// Bootstraps a primary over `bootstrap` and applies `inserts` rows (plus
/// one delete when requested). checkpoint_every=0 keeps the whole tail in
/// the WAL.
std::unique_ptr<DurableIngest> OpenPrimary(const std::string& dir,
                                           const Dataset& bootstrap,
                                           int inserts, bool with_delete) {
  DurableIngestOptions options;
  options.checkpoint_every = 0;
  Result<std::unique_ptr<DurableIngest>> opened =
      DurableIngest::Open(dir, &bootstrap, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return nullptr;
  std::unique_ptr<DurableIngest> primary = std::move(opened).value();
  for (int i = 0; i < inserts; ++i) {
    std::vector<double> row(
        static_cast<size_t>(bootstrap.num_dims()));
    for (size_t d = 0; d < row.size(); ++d) {
      row[d] = 0.05 + 0.013 * i + 0.002 * static_cast<double>(d);
    }
    Result<InsertHandler::Applied> applied =
        primary->ApplyInsert(row, /*timestamp_ms=*/1000 + 7 * i);
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
  }
  if (with_delete) {
    Result<InsertHandler::Applied> applied = primary->ApplyDelete(0);
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
  }
  return primary;
}

/// Bootstraps a follower directory from `source` (snapshot + open), the
/// same sequence the serve tool's --replica-of path runs.
std::unique_ptr<DurableIngest> BootstrapFollower(const std::string& dir,
                                                 ReplicationSource* source) {
  EXPECT_TRUE(WipeDurableState(dir).ok());
  Result<ReplicationSnapshot> snapshot = source->Snapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (!snapshot.ok()) return nullptr;
  Status installed =
      InstallSnapshot(dir, snapshot.value().lsn, snapshot.value().bytes);
  EXPECT_TRUE(installed.ok()) << installed.ToString();
  DurableIngestOptions options;
  options.checkpoint_every = 0;
  Result<std::unique_ptr<DurableIngest>> opened =
      DurableIngest::Open(dir, nullptr, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return nullptr;
  return std::move(opened).value();
}

bool WaitApplied(const WalFollower& follower, uint64_t target_lsn,
                 std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (follower.applied_lsn() >= target_lsn) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(ReplicationTest, ShippedRecordsCodecRoundTrip) {
  std::vector<WalRecord> records;
  records.push_back({1, "alpha"});
  records.push_back({2, std::string("\x00\x81\xff", 3)});
  records.push_back({7, ""});
  const std::string encoded = EncodeShippedRecords(records);
  Result<std::vector<WalRecord>> decoded = DecodeShippedRecords(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].lsn, records[i].lsn);
    EXPECT_EQ(decoded.value()[i].payload, records[i].payload);
  }
  // Mid-record truncations must fail cleanly, never read out of bounds. A
  // cut exactly on a record boundary is indistinguishable from a shorter
  // batch (the codec is self-delimiting per record) and decodes to the
  // prefix.
  size_t boundary = 0;
  std::vector<size_t> boundaries;
  for (const WalRecord& record : records) {
    boundary += 12 + record.payload.size();
    boundaries.push_back(boundary);
  }
  for (size_t len = 1; len < encoded.size(); ++len) {
    const bool on_boundary = std::find(boundaries.begin(), boundaries.end(),
                                       len) != boundaries.end();
    EXPECT_EQ(DecodeShippedRecords(encoded.substr(0, len)).ok(),
              on_boundary)
        << len;
  }
  EXPECT_FALSE(DecodeShippedRecords(encoded + "x").ok());
  EXPECT_TRUE(DecodeShippedRecords("").ok());
}

TEST(ReplicationTest, FollowerConvergesFromSnapshotAndTail) {
  const std::string primary_dir = FreshDir("repl_primary");
  const std::string follower_dir = FreshDir("repl_follower");
  const Dataset bootstrap = MakeData(30, 3, 11);
  std::unique_ptr<DurableIngest> primary =
      OpenPrimary(primary_dir, bootstrap, /*inserts=*/9,
                  /*with_delete=*/true);
  ASSERT_NE(primary, nullptr);
  const uint64_t tip = primary->stats().wal.next_lsn - 1;
  ASSERT_EQ(tip, 10u);

  DirReplicationSource source(primary_dir);
  std::unique_ptr<DurableIngest> follower =
      BootstrapFollower(follower_dir, &source);
  ASSERT_NE(follower, nullptr);

  std::atomic<uint64_t> reloads{0};
  WalFollower tail(follower.get(), &source,
                   [&reloads](const InsertHandler::Applied& applied) {
                     if (applied.cube != nullptr) {
                       reloads.fetch_add(1, std::memory_order_relaxed);
                     }
                   });
  tail.Start();
  ASSERT_TRUE(WaitApplied(tail, tip, std::chrono::seconds(20)));
  tail.Stop();

  // Semantic identity: the follower's maintainer groups equal the
  // primary's.
  SkylineGroupSet primary_groups = primary->maintainer().groups();
  SkylineGroupSet follower_groups = follower->maintainer().groups();
  NormalizeGroups(&primary_groups);
  NormalizeGroups(&follower_groups);
  EXPECT_EQ(primary_groups, follower_groups);
  EXPECT_EQ(follower->maintainer().data().num_objects(),
            primary->maintainer().data().num_objects());

  // Byte identity: the follower's WAL holds the same records (same LSNs,
  // same payload bytes — row ids and timestamps included) as the
  // primary's.
  Result<WalReadResult> primary_wal = ReadWal(primary_dir, 0);
  Result<WalReadResult> follower_wal = ReadWal(follower_dir, 0);
  ASSERT_TRUE(primary_wal.ok());
  ASSERT_TRUE(follower_wal.ok());
  ASSERT_EQ(follower_wal.value().records.size(),
            primary_wal.value().records.size());
  for (size_t i = 0; i < primary_wal.value().records.size(); ++i) {
    EXPECT_EQ(follower_wal.value().records[i].lsn,
              primary_wal.value().records[i].lsn);
    EXPECT_EQ(follower_wal.value().records[i].payload,
              primary_wal.value().records[i].payload);
  }
  EXPECT_GT(reloads.load(std::memory_order_relaxed), 0u);
}

TEST(ReplicationTest, HandWrittenTailMatchesLocalRecovery) {
  // A primary whose WAL tail is written by hand: timestamped inserts, a
  // delete of a base row, and a second delete of that now-dead row (which
  // ApplyDelete never logs, but replay must take as a no-op). A follower
  // replaying the shipped tail must end up byte-identical to what local
  // recovery of that log produces — same row ids, same timestamps.
  const std::string primary_dir = FreshDir("repl_handwritten_primary");
  const std::string follower_dir = FreshDir("repl_handwritten_follower");
  const Dataset bootstrap = MakeData(20, 3, 5);
  const uint32_t base = static_cast<uint32_t>(bootstrap.num_objects());
  {
    DurableIngestOptions options;
    options.checkpoint_every = 0;
    Result<std::unique_ptr<DurableIngest>> opened =
        DurableIngest::Open(primary_dir, &bootstrap, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(primary_dir, /*next_lsn=*/1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const std::vector<std::string> tail = {
        EncodeInsertPayload({0.5, 0.4, 0.3}, base, /*ts=*/5555),
        EncodeInsertPayload({0.2, 0.9, 0.8}, base + 1, /*ts=*/7777),
        EncodeDeletePayload(3, /*ts=*/8888),
        EncodeInsertPayload({0.1, 0.1, 0.95}, base + 2, /*ts=*/9000),
        EncodeDeletePayload(3, /*ts=*/9500),
        EncodeInsertPayload({0.6, 0.2, 0.2}, base + 3, /*ts=*/9999)};
    for (const std::string& payload : tail) {
      ASSERT_TRUE(wal.value()->Append(payload).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }

  // The local-recovery oracle over the primary's log.
  Result<RecoveredState> local = RecoverFromDir(primary_dir);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local.value().stats.wal_records_replayed, 6u);
  EXPECT_EQ(local.value().stats.wal_deletes_replayed, 1u);
  EXPECT_EQ(local.value().stats.wal_deletes_ignored, 1u);

  DirReplicationSource source(primary_dir);
  std::unique_ptr<DurableIngest> follower =
      BootstrapFollower(follower_dir, &source);
  ASSERT_NE(follower, nullptr);
  WalFollower tail(follower.get(), &source,
                   [](const InsertHandler::Applied&) {});
  tail.Start();
  ASSERT_TRUE(WaitApplied(tail, 6, std::chrono::seconds(20)));
  tail.Stop();
  EXPECT_EQ(tail.stats().apply_errors, 0u);

  SkylineGroupSet recovered_groups = local.value().maintainer->groups();
  SkylineGroupSet follower_groups = follower->maintainer().groups();
  NormalizeGroups(&recovered_groups);
  NormalizeGroups(&follower_groups);
  EXPECT_EQ(follower_groups, recovered_groups);
  EXPECT_EQ(follower->maintainer().data().num_objects(),
            local.value().maintainer->data().num_objects());
  EXPECT_EQ(follower->maintainer().live(), local.value().maintainer->live());
  EXPECT_EQ(follower->maintainer().timestamps(),
            local.value().maintainer->timestamps());

  // Byte identity of the replicated log: same payload bytes at the same
  // LSNs.
  Result<WalReadResult> primary_wal = ReadWal(primary_dir, 0);
  Result<WalReadResult> follower_wal = ReadWal(follower_dir, 0);
  ASSERT_TRUE(primary_wal.ok());
  ASSERT_TRUE(follower_wal.ok());
  ASSERT_EQ(follower_wal.value().records.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(follower_wal.value().records[i].lsn,
              primary_wal.value().records[i].lsn);
    EXPECT_EQ(follower_wal.value().records[i].payload,
              primary_wal.value().records[i].payload);
  }
}

TEST(ReplicationTest, FetchPastTruncationDemandsRebootstrap) {
  const std::string dir = FreshDir("repl_truncated");
  const Dataset bootstrap = MakeData(15, 3, 3);
  {
    // checkpoint_every=4 + tiny segments → whole WAL prefix segments are
    // deleted as checkpoints land; an ack of 0 then predates the oldest
    // surviving segment.
    DurableIngestOptions options;
    options.checkpoint_every = 4;
    options.wal.segment_bytes = 96;
    Result<std::unique_ptr<DurableIngest>> opened =
        DurableIngest::Open(dir, &bootstrap, options);
    ASSERT_TRUE(opened.ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          opened.value()->ApplyInsert({0.3 + 0.01 * i, 0.4, 0.5}).ok());
    }
  }
  ASSERT_GT(WalOldestStart(dir), 1u);
  WalShipper shipper(dir);
  Result<ShippedBatch> batch =
      shipper.Fetch(0, 64, std::chrono::milliseconds(0));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kNotFound);
  // An ack inside the surviving log still ships.
  Result<ShippedBatch> tail = shipper.Fetch(
      WalOldestStart(dir) - 1, 64, std::chrono::milliseconds(0));
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_FALSE(tail.value().records.empty());
}

TEST(ReplicationTest, WipeDurableStateRemovesEverything) {
  const std::string dir = FreshDir("repl_wipe");
  EXPECT_TRUE(WipeDurableState(dir).ok());  // missing dir is fine
  const Dataset bootstrap = MakeData(10, 3, 9);
  std::unique_ptr<DurableIngest> primary =
      OpenPrimary(dir, bootstrap, /*inserts=*/3, /*with_delete=*/false);
  ASSERT_NE(primary, nullptr);
  primary.reset();
  ASSERT_TRUE(DirHasDurableState(dir));
  ASSERT_TRUE(WipeDurableState(dir).ok());
  EXPECT_FALSE(DirHasDurableState(dir));
}

TEST(ReplicationTest, SemiSyncFenceDegradesWithoutFollowersAndAcksWithOne) {
  const std::string dir = FreshDir("repl_fence");
  const Dataset bootstrap = MakeData(10, 3, 13);
  std::unique_ptr<DurableIngest> primary =
      OpenPrimary(dir, bootstrap, /*inserts=*/0, /*with_delete=*/false);
  ASSERT_NE(primary, nullptr);
  WalShipper shipper(dir);
  // No follower has ever fetched: the fence must degrade immediately, not
  // burn the timeout (an unreplicated durable server pays ~nothing).
  ReplicatedInsertHandler handler(primary.get(), &shipper,
                                  std::chrono::milliseconds(10000));
  const auto start = std::chrono::steady_clock::now();
  Result<InsertHandler::Applied> applied =
      handler.ApplyInsert({0.5, 0.5, 0.5});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  EXPECT_EQ(shipper.stats().tip_lsn, applied.value().lsn);

  // With a live follower acking, the fence holds until the ack arrives.
  std::atomic<bool> stop{false};
  std::thread follower([&shipper, &stop] {
    uint64_t ack = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Result<ShippedBatch> batch =
          shipper.Fetch(ack, 64, std::chrono::milliseconds(100));
      if (batch.ok() && !batch.value().records.empty()) {
        ack = batch.value().records.back().lsn;
      }
    }
  });
  Result<InsertHandler::Applied> fenced =
      handler.ApplyInsert({0.4, 0.4, 0.4});
  ASSERT_TRUE(fenced.ok()) << fenced.status().ToString();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shipper.stats().acked_lsn < fenced.value().lsn &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(shipper.stats().acked_lsn, fenced.value().lsn);
  stop.store(true, std::memory_order_release);
  follower.join();
}

TEST(ReplicationTest, ConcurrentApplyAndStatsReads) {
  // The TSan target: a primary ingesting through the replicated handler, a
  // follower applying the shipped tail, and a reader hammering both stats
  // surfaces — concurrently.
  const std::string primary_dir = FreshDir("repl_tsan_primary");
  const std::string follower_dir = FreshDir("repl_tsan_follower");
  const Dataset bootstrap = MakeData(20, 3, 17);
  std::unique_ptr<DurableIngest> primary =
      OpenPrimary(primary_dir, bootstrap, /*inserts=*/0,
                  /*with_delete=*/false);
  ASSERT_NE(primary, nullptr);
  DirReplicationSource source(primary_dir);
  std::unique_ptr<DurableIngest> follower =
      BootstrapFollower(follower_dir, &source);
  ASSERT_NE(follower, nullptr);
  WalFollower tail(follower.get(), &source,
                   [](const InsertHandler::Applied&) {});
  tail.Start();

  ReplicatedInsertHandler handler(primary.get(), source.shipper(),
                                  std::chrono::milliseconds(0));
  constexpr int kInserts = 64;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)source.shipper()->stats();
      (void)tail.stats();
      (void)tail.applied_lsn();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  uint64_t tip = 0;
  for (int i = 0; i < kInserts; ++i) {
    Result<InsertHandler::Applied> applied =
        handler.ApplyInsert({0.2 + 0.005 * i, 0.7, 0.6},
                            /*timestamp_ms=*/100 + i);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    tip = applied.value().lsn;
  }
  EXPECT_TRUE(WaitApplied(tail, tip, std::chrono::seconds(30)));
  stop.store(true, std::memory_order_release);
  reader.join();
  tail.Stop();
  EXPECT_EQ(tail.stats().apply_errors, 0u);
  EXPECT_EQ(follower->stats().wal.next_lsn, primary->stats().wal.next_lsn);
}

TEST(ReplicationTest, CoalescedFollowerBatchesFetchesAndStillConverges) {
  const std::string primary_dir = FreshDir("repl_coalesce_primary");
  const std::string follower_dir = FreshDir("repl_coalesce_follower");
  const Dataset bootstrap = MakeData(20, 3, 13);
  std::unique_ptr<DurableIngest> primary =
      OpenPrimary(primary_dir, bootstrap, /*inserts=*/0,
                  /*with_delete=*/false);
  ASSERT_NE(primary, nullptr);
  DirReplicationSource source(primary_dir);
  std::unique_ptr<DurableIngest> follower =
      BootstrapFollower(follower_dir, &source);
  ASSERT_NE(follower, nullptr);

  WalFollowerOptions options;
  options.coalesce = std::chrono::milliseconds(100);
  WalFollower tail(follower.get(), &source, /*on_applied=*/nullptr,
                   options);
  tail.Start();

  // A paced append stream: with a 100 ms coalesce window the records must
  // land in batches, never one fetch per record.
  ReplicatedInsertHandler handler(primary.get(), source.shipper(),
                                  std::chrono::milliseconds(0));
  constexpr int kInserts = 24;
  uint64_t tip = 0;
  for (int i = 0; i < kInserts; ++i) {
    Result<InsertHandler::Applied> applied =
        handler.ApplyInsert({0.3 + 0.004 * i, 0.5, 0.8},
                            /*timestamp_ms=*/500 + i);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    tip = applied.value().lsn;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(WaitApplied(tail, tip, std::chrono::seconds(20)));
  tail.Stop();  // must interrupt a pending coalesce pause, not ride it out

  // ~120 ms of appends / 100 ms windows, plus the catch-up fetch and a
  // trailing empty long poll — kInserts/2 is a generous ceiling that a
  // wake-per-append loop (kInserts fetches) blows through.
  EXPECT_LE(source.shipper()->stats().fetches,
            static_cast<uint64_t>(kInserts) / 2 + 3);
  EXPECT_EQ(tail.stats().apply_errors, 0u);
  EXPECT_EQ(follower->stats().wal.next_lsn, primary->stats().wal.next_lsn);
}

}  // namespace
}  // namespace skycube
