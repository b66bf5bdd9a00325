// Recovery tests: checkpoint + WAL replay round trips through
// DurableIngest, checkpoint fallback on corruption, cross-check rejection,
// and damaged-WAL-suffix handling — nothing damaged is ever silently
// loaded, and what loads always equals ComputeStellar over the recovered
// rows.
#include "storage/recovery.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "gtest/gtest.h"
#include "storage/checkpointer.h"
#include "storage/durable_ingest.h"
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

std::vector<double> Row(double a, double b, double c) { return {a, b, c}; }

/// Applies `rows` through a fresh DurableIngest over `bootstrap`.
void Ingest(const std::string& dir, const Dataset& bootstrap,
            const std::vector<std::vector<double>>& rows,
            uint64_t checkpoint_every) {
  DurableIngestOptions options;
  options.checkpoint_every = checkpoint_every;
  Result<std::unique_ptr<DurableIngest>> ingest =
      DurableIngest::Open(dir, &bootstrap, options);
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  for (const std::vector<double>& row : rows) {
    Result<InsertHandler::Applied> applied =
        ingest.value()->ApplyInsert(row);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_GT(applied.value().lsn, 0u);
  }
}

/// Golden expectation: bootstrap + rows run through plain Stellar.
SkylineGroupSet Golden(const Dataset& bootstrap,
                       const std::vector<std::vector<double>>& rows,
                       size_t prefix) {
  Dataset data = bootstrap;
  for (size_t i = 0; i < prefix; ++i) data.AddRow(rows[i]);
  SkylineGroupSet groups = ComputeStellar(data);
  NormalizeGroups(&groups);
  return groups;
}

TEST(RecoveryTest, EmptyDirHasNoDurableState) {
  const std::string dir = FreshDir("rec_empty");
  EXPECT_FALSE(DirHasDurableState(dir));
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(RecoveryTest, CheckpointPlusWalReplayRoundTrip) {
  const std::string dir = FreshDir("rec_roundtrip");
  const Dataset bootstrap = MakeData(40, 3, 2);
  const std::vector<std::vector<double>> rows = {
      Row(0.9, 0.8, 0.7), Row(0.1, 0.2, 0.3), Row(0.1, 0.2, 0.3),
      Row(0.05, 0.9, 0.9), Row(0.5, 0.5, 0.5), Row(0.01, 0.01, 0.01),
      Row(0.6, 0.6, 0.6)};
  // checkpoint_every=3 → checkpoints at lsn 3 and 6; records 7 replay.
  Ingest(dir, bootstrap, rows, 3);
  EXPECT_TRUE(DirHasDurableState(dir));

  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryStats& stats = recovered.value().stats;
  EXPECT_EQ(stats.checkpoint_lsn, 6u);
  EXPECT_EQ(stats.checkpoint_rows, 46u);
  EXPECT_EQ(stats.wal_records_replayed, 1u);
  EXPECT_FALSE(stats.wal_suffix_discarded);
  EXPECT_EQ(stats.next_lsn, 8u);
  EXPECT_EQ(stats.checkpoints_rejected, 0u);
  EXPECT_EQ(recovered.value().maintainer->data().num_objects(),
            bootstrap.num_objects() + rows.size());
  EXPECT_EQ(recovered.value().maintainer->groups(),
            Golden(bootstrap, rows, rows.size()));
}

TEST(RecoveryTest, FallsBackWhenNewestCheckpointCorrupt) {
  const std::string dir = FreshDir("rec_fallback");
  const Dataset bootstrap = MakeData(30, 3, 4);
  const std::vector<std::vector<double>> rows = {
      Row(0.4, 0.4, 0.4), Row(0.2, 0.7, 0.7), Row(0.9, 0.1, 0.9),
      Row(0.3, 0.3, 0.3), Row(0.02, 0.02, 0.02), Row(0.8, 0.2, 0.5)};
  Ingest(dir, bootstrap, rows, 2);  // checkpoints at 2, 4, 6; keep=2: 4 & 6

  // Flip one byte of the newest checkpoint — recovery must fall back to
  // lsn 4 and replay records 5 and 6 from the (untruncated) WAL.
  const std::string newest = dir + "/checkpoint-0000000000000006.ckpt";
  ASSERT_TRUE(fs::exists(newest));
  {
    std::fstream stream(newest,
                        std::ios::in | std::ios::out | std::ios::binary);
    stream.seekp(80);
    stream.write("#", 1);
  }
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().stats.checkpoints_rejected, 1u);
  EXPECT_EQ(recovered.value().stats.checkpoint_lsn, 4u);
  EXPECT_EQ(recovered.value().stats.wal_records_replayed, 2u);
  EXPECT_EQ(recovered.value().stats.next_lsn, 7u);
  EXPECT_EQ(recovered.value().maintainer->groups(),
            Golden(bootstrap, rows, rows.size()));
}

TEST(RecoveryTest, AllCheckpointsDamagedFallsBackToWalOnlyRebuild) {
  // Every checkpoint damaged, but the WAL still reaches back to LSN 1: the
  // acked WAL ops are rebuilt from the log alone. The 20 bootstrap rows
  // predate the log — they come back only as tombstoned placeholders (ids
  // stay exact) and are reported lost.
  const std::string dir = FreshDir("rec_all_bad");
  const Dataset bootstrap = MakeData(20, 3, 6);
  const std::vector<std::vector<double>> rows = {
      Row(0.5, 0.5, 0.5), Row(0.1, 0.8, 0.3), Row(0.5, 0.5, 0.5)};
  Ingest(dir, bootstrap, rows, 0);
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ckpt") continue;
    fs::resize_file(entry.path(), fs::file_size(entry.path()) / 2);
  }
  EXPECT_TRUE(DirHasDurableState(dir));  // listed, but never silently loaded
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryStats& stats = recovered.value().stats;
  EXPECT_TRUE(stats.wal_only_rebuild);
  EXPECT_EQ(stats.base_rows_lost, 20u);
  EXPECT_EQ(stats.checkpoints_rejected, stats.checkpoints_found);
  const IncrementalCubeMaintainer& m = *recovered.value().maintainer;
  EXPECT_EQ(m.data().num_objects(), 23u);  // 20 placeholders + 3 replayed
  EXPECT_EQ(m.num_live(), 3u);
  EXPECT_EQ(m.groups(), StellarOverLive(m.data(), m.live()));
  EXPECT_EQ(stats.next_lsn, 4u);
}

TEST(RecoveryTest, AllCheckpointsDamagedAndTruncatedWalIsAnError) {
  // When checkpoints are damaged AND the WAL was already truncated past
  // LSN 1 (so the log cannot seed a rebuild), recovery must fail rather
  // than serve a silently incomplete state.
  const std::string dir = FreshDir("rec_all_bad_no_wal");
  const Dataset bootstrap = MakeData(20, 3, 6);
  Ingest(dir, bootstrap, {Row(0.5, 0.5, 0.5)}, 0);
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") {
      fs::resize_file(entry.path(), fs::file_size(entry.path()) / 2);
    } else if (entry.path().extension() == ".log") {
      fs::remove(entry.path());
    }
  }
  EXPECT_TRUE(DirHasDurableState(dir));
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInternal);
}

TEST(RecoveryTest, CrossCheckRejectsInconsistentCheckpoint) {
  // A checkpoint whose checksums verify but whose groups do not match its
  // own dataset (e.g. a writer bug) must be rejected by the rebuild
  // cross-check, exactly like a corrupt one.
  const std::string dir = FreshDir("rec_crosscheck");
  const Dataset data = MakeData(25, 3, 8);
  const Dataset other = MakeData(25, 3, 9);
  Checkpointer checkpointer(dir, 1);
  ASSERT_TRUE(checkpointer.Write(0, data, ComputeStellar(other)).ok());
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInternal);
}

TEST(RecoveryTest, DamagedWalSuffixIsSkippedExactly) {
  const std::string dir = FreshDir("rec_torn_wal");
  const Dataset bootstrap = MakeData(30, 3, 12);
  const std::vector<std::vector<double>> rows = {
      Row(0.5, 0.6, 0.7), Row(0.2, 0.2, 0.9), Row(0.03, 0.5, 0.5),
      Row(0.7, 0.7, 0.7)};
  Ingest(dir, bootstrap, rows, 0);  // no checkpoints beyond bootstrap's lsn 0

  // Tear the final WAL record: recovery must keep exactly rows[0..2].
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".log") continue;
    fs::resize_file(entry.path(), fs::file_size(entry.path()) - 5);
  }
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().stats.checkpoint_lsn, 0u);
  EXPECT_EQ(recovered.value().stats.wal_records_replayed, 3u);
  EXPECT_TRUE(recovered.value().stats.wal_suffix_discarded);
  EXPECT_GT(recovered.value().stats.wal_bytes_discarded, 0u);
  EXPECT_EQ(recovered.value().stats.next_lsn, 4u);
  EXPECT_EQ(recovered.value().maintainer->groups(),
            Golden(bootstrap, rows, 3));
}

TEST(RecoveryTest, ReopenAfterTornTailContinuesCleanly) {
  // End-to-end: tear the WAL, recover, reopen DurableIngest at the
  // recovered next_lsn (discarding the torn tail), and keep ingesting.
  const std::string dir = FreshDir("rec_reopen");
  const Dataset bootstrap = MakeData(20, 3, 14);
  const std::vector<std::vector<double>> rows = {Row(0.4, 0.5, 0.6),
                                                 Row(0.6, 0.5, 0.4)};
  Ingest(dir, bootstrap, rows, 0);
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".log") continue;
    fs::resize_file(entry.path(), fs::file_size(entry.path()) - 3);
  }
  Result<std::unique_ptr<DurableIngest>> reopened =
      DurableIngest::Open(dir, nullptr, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const DurableIngestStats before = reopened.value()->stats();
  EXPECT_TRUE(before.recovered);
  EXPECT_EQ(before.recovery.wal_records_replayed, 1u);
  Result<InsertHandler::Applied> applied =
      reopened.value()->ApplyInsert(Row(0.1, 0.9, 0.1));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value().lsn, 2u);  // reuses the torn record's lsn
  reopened.value().reset();

  Result<RecoveredState> final_state = RecoverFromDir(dir);
  ASSERT_TRUE(final_state.ok());
  const std::vector<std::vector<double>> survivors = {rows[0],
                                                      Row(0.1, 0.9, 0.1)};
  EXPECT_EQ(final_state.value().maintainer->groups(),
            Golden(bootstrap, survivors, survivors.size()));
}

TEST(RecoveryTest, MixedOpRoundTripMatchesStellarOverLive) {
  // Inserts, deletes, and an expiry pass through DurableIngest; recovery
  // must land on exactly the live-set the handler acked — including the
  // per-row ingest timestamps, which the next expiry pass depends on.
  const std::string dir = FreshDir("rec_mixed");
  const Dataset bootstrap = MakeData(30, 3, 18);
  DurableIngestOptions options;
  options.checkpoint_every = 4;  // the mixed tail straddles a checkpoint
  Result<std::unique_ptr<DurableIngest>> ingest =
      DurableIngest::Open(dir, &bootstrap, options);
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.5, 0.5, 0.5), 100).ok());
  ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.1, 0.8, 0.3), 200).ok());
  ASSERT_TRUE(ingest.value()->ApplyDelete(30).ok());  // first insert dies
  ASSERT_TRUE(ingest.value()->ApplyDelete(5).ok());   // a bootstrap row dies
  ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.02, 0.02, 0.9), 300).ok());
  // Expiry tombstones the 200ms row; ts-0 bootstrap rows are immune.
  Result<InsertHandler::Applied> expired = ingest.value()->ApplyExpire(250);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired.value().num_expired, 1u);
  ingest.value().reset();

  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const IncrementalCubeMaintainer& m = *recovered.value().maintainer;
  EXPECT_EQ(m.data().num_objects(), 33u);
  EXPECT_EQ(m.num_live(), 30u);  // 30 + 3 inserted − 2 deleted − 1 expired
  EXPECT_FALSE(m.IsLive(5));
  EXPECT_FALSE(m.IsLive(30));
  EXPECT_FALSE(m.IsLive(31));  // expired
  EXPECT_TRUE(m.IsLive(32));
  EXPECT_EQ(m.timestamps()[32], 300u);
  EXPECT_EQ(m.groups(), StellarOverLive(m.data(), m.live()));
}

TEST(RecoveryTest, ReplayedDeleteOfNeverAckedRowIsANoOp) {
  // A WAL can legitimately hold a delete whose target insert was lost with
  // a damaged suffix of an *earlier* segment generation (the row was never
  // acked). Replay must treat it as a no-op, not an error — the dataset
  // simply never grew that far.
  const std::string dir = FreshDir("rec_orphan_delete");
  const Dataset bootstrap = MakeData(10, 3, 20);
  {
    DurableIngestOptions options;
    options.checkpoint_every = 0;
    Result<std::unique_ptr<DurableIngest>> ingest =
        DurableIngest::Open(dir, &bootstrap, options);
    ASSERT_TRUE(ingest.ok());
    ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.4, 0.4, 0.4), 50).ok());
    ingest.value().reset();
  }
  // Hand-append a delete record targeting row 99 — far past the 11 rows
  // that exist (as if the inserts between were torn away).
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(dir, 2);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(EncodeDeletePayload(99, 60)).ok());
    // A second delete of a row that DOES exist proves ordering still works.
    ASSERT_TRUE(wal.value()->Append(EncodeDeletePayload(3, 70)).ok());
  }
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const IncrementalCubeMaintainer& m = *recovered.value().maintainer;
  EXPECT_EQ(recovered.value().stats.wal_records_replayed, 3u);
  EXPECT_EQ(m.data().num_objects(), 11u);  // row 99 never materialized
  EXPECT_EQ(m.num_live(), 10u);            // only the row-3 delete landed
  EXPECT_FALSE(m.IsLive(3));
  EXPECT_EQ(m.groups(), StellarOverLive(m.data(), m.live()));
  // And the state stays serveable: reopening continues the LSN sequence.
  Result<std::unique_ptr<DurableIngest>> reopened =
      DurableIngest::Open(dir, nullptr, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Result<InsertHandler::Applied> applied =
      reopened.value()->ApplyInsert(Row(0.2, 0.2, 0.2), 80);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value().lsn, 4u);
}

TEST(RecoveryTest, MixedOpWalOnlyRebuildKeepsIdsExact) {
  // All checkpoints damaged with deletes in the log: the v3 insert records
  // carry their assigned row ids, so the rebuild lands every replayed row
  // at its original id and the deletes hit the right targets.
  const std::string dir = FreshDir("rec_mixed_walonly");
  const Dataset bootstrap = MakeData(15, 3, 22);
  {
    DurableIngestOptions options;
    options.checkpoint_every = 0;
    Result<std::unique_ptr<DurableIngest>> ingest =
        DurableIngest::Open(dir, &bootstrap, options);
    ASSERT_TRUE(ingest.ok());
    ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.5, 0.5, 0.5), 10).ok());
    ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.3, 0.3, 0.3), 20).ok());
    ASSERT_TRUE(ingest.value()->ApplyDelete(15).ok());
    ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.7, 0.2, 0.1), 30).ok());
    ingest.value().reset();
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ckpt") continue;
    fs::resize_file(entry.path(), fs::file_size(entry.path()) / 2);
  }
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryStats& stats = recovered.value().stats;
  EXPECT_TRUE(stats.wal_only_rebuild);
  EXPECT_EQ(stats.base_rows_lost, 15u);
  const IncrementalCubeMaintainer& m = *recovered.value().maintainer;
  ASSERT_EQ(m.data().num_objects(), 18u);  // 15 placeholders + 3 inserts
  EXPECT_EQ(m.num_live(), 2u);  // 3 replayed inserts − the delete of id 15
  EXPECT_FALSE(m.IsLive(15));
  EXPECT_TRUE(m.IsLive(16));
  EXPECT_TRUE(m.IsLive(17));
  EXPECT_EQ(m.timestamps()[17], 30u);
  EXPECT_EQ(m.groups(), StellarOverLive(m.data(), m.live()));
}

TEST(RecoveryTest, DrainThenRecoverReplaysNothing) {
  const std::string dir = FreshDir("rec_drain");
  const Dataset bootstrap = MakeData(20, 3, 16);
  DurableIngestOptions options;
  options.checkpoint_every = 0;
  Result<std::unique_ptr<DurableIngest>> ingest =
      DurableIngest::Open(dir, &bootstrap, options);
  ASSERT_TRUE(ingest.ok());
  ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.3, 0.3, 0.3)).ok());
  ASSERT_TRUE(ingest.value()->ApplyInsert(Row(0.9, 0.9, 0.9)).ok());
  ASSERT_TRUE(ingest.value()->Drain().ok());
  ingest.value().reset();

  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().stats.checkpoint_lsn, 2u);
  EXPECT_EQ(recovered.value().stats.wal_records_replayed, 0u);
  EXPECT_EQ(recovered.value().maintainer->data().num_objects(), 22u);
}

TEST(RecoveryTest, DamagedActiveSegmentMagicKeepsLaterAckedRecords) {
  // Drain checkpoints at LSN 3, so the active segment holds only records
  // the checkpoint covers; damaging its magic must not cost the inserts
  // acked after the next open.
  const std::string dir = FreshDir("rec_damaged_magic");
  const Dataset bootstrap = MakeData(50, 3, 18);
  DurableIngestOptions options;
  options.checkpoint_every = 0;
  {
    Result<std::unique_ptr<DurableIngest>> ingest =
        DurableIngest::Open(dir, &bootstrap, options);
    ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
    for (const auto& row :
         {Row(0.3, 0.3, 0.3), Row(0.9, 0.9, 0.9), Row(0.2, 0.6, 0.4)}) {
      ASSERT_TRUE(ingest.value()->ApplyInsert(row).ok());
    }
    ASSERT_TRUE(ingest.value()->Drain().ok());
  }
  {
    std::fstream stream(dir + "/wal-0000000000000001.log",
                        std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    stream.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    stream.seekp(0);
    stream.write(&byte, 1);
  }
  {
    Result<std::unique_ptr<DurableIngest>> ingest =
        DurableIngest::Open(dir, nullptr, options);
    ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
    Result<InsertHandler::Applied> fourth =
        ingest.value()->ApplyInsert(Row(0.5, 0.1, 0.7));
    ASSERT_TRUE(fourth.ok());
    EXPECT_EQ(fourth.value().lsn, 4u);
    Result<InsertHandler::Applied> fifth =
        ingest.value()->ApplyInsert(Row(0.05, 0.8, 0.2));
    ASSERT_TRUE(fifth.ok());
    EXPECT_EQ(fifth.value().lsn, 5u);
  }
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().stats.wal_suffix_discarded);
  EXPECT_EQ(recovered.value().stats.wal_records_replayed, 2u);
  const IncrementalCubeMaintainer& m = *recovered.value().maintainer;
  EXPECT_EQ(m.num_live(), 55u);
  EXPECT_EQ(m.groups(), StellarOverLive(m.data(), m.live()));
}

}  // namespace
}  // namespace skycube
