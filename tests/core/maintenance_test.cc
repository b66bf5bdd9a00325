// Tests for incremental cube maintenance: after every insert, the
// maintained cube must equal a from-scratch Stellar run, and the insert
// must take the cheapest admissible path.
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/maintenance.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

Dataset RunningExample() {
  return Dataset::FromRows({
                               {5, 6, 10, 7},  // P1
                               {2, 6, 8, 3},   // P2
                               {5, 4, 9, 3},   // P3
                               {6, 4, 8, 5},   // P4
                               {2, 4, 9, 3},   // P5
                           })
      .value();
}

void ExpectCubeCurrent(const IncrementalCubeMaintainer& maintainer) {
  EXPECT_EQ(maintainer.groups(), ComputeStellar(maintainer.data()));
}

TEST(MaintenanceTest, InitialBuildMatchesStellar) {
  IncrementalCubeMaintainer maintainer(RunningExample());
  ExpectCubeCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().full_recomputes, 1u);  // the initial build
}

TEST(MaintenanceTest, DuplicateInsertPatchesMemberships) {
  IncrementalCubeMaintainer maintainer(RunningExample());
  // Insert a duplicate of P5 — it must join every group P5 belongs to.
  EXPECT_EQ(maintainer.Insert({2, 4, 9, 3}), InsertPath::kDuplicate);
  ExpectCubeCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().duplicate_patches, 1u);
  size_t groups_with_new = 0;
  size_t groups_with_p5 = 0;
  for (const SkylineGroup& group : maintainer.groups()) {
    groups_with_new +=
        std::count(group.members.begin(), group.members.end(), 5u);
    groups_with_p5 +=
        std::count(group.members.begin(), group.members.end(), 4u);
  }
  EXPECT_EQ(groups_with_new, groups_with_p5);
  EXPECT_GT(groups_with_new, 0u);
}

TEST(MaintenanceTest, IrrelevantDominatedInsertIsNoOp) {
  IncrementalCubeMaintainer maintainer(RunningExample());
  const SkylineGroupSet before = maintainer.groups();
  // (7, 8, 11, 9): dominated by P2 everywhere, shares no value with any
  // group on any decisive subspace.
  EXPECT_EQ(maintainer.Insert({7, 8, 11, 9}), InsertPath::kNoOp);
  EXPECT_EQ(maintainer.groups(), before);
  ExpectCubeCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().noop_inserts, 1u);
}

TEST(MaintenanceTest, RelevantDominatedInsertRerunsExtensionOnly) {
  IncrementalCubeMaintainer maintainer(RunningExample());
  const uint64_t recomputes_before = maintainer.stats().full_recomputes;
  // (9, 9, 9, 3): dominated (e.g. by P5) but ties value 3 on D — D is a
  // decisive subspace of seed group P2P5, so the group P2P3P5 must grow.
  EXPECT_EQ(maintainer.Insert({9, 9, 9, 3}), InsertPath::kExtensionOnly);
  ExpectCubeCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().full_recomputes, recomputes_before);
  bool found = false;
  for (const SkylineGroup& group : maintainer.groups()) {
    if (group.members == std::vector<ObjectId>{1, 2, 4, 5}) {
      EXPECT_EQ(group.max_subspace, MaskFromLetters("D"));
      found = true;
    }
  }
  EXPECT_TRUE(found) << "P2P3P5 should have grown into P2P3P5P6";
}

TEST(MaintenanceTest, NewSkylineObjectForcesRecompute) {
  IncrementalCubeMaintainer maintainer(RunningExample());
  const uint64_t recomputes_before = maintainer.stats().full_recomputes;
  // (1, 1, 1, 1) dominates everything: it evicts all seeds.
  EXPECT_EQ(maintainer.Insert({1, 1, 1, 1}), InsertPath::kFullRecompute);
  ExpectCubeCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().full_recomputes, recomputes_before + 1);
}

TEST(MaintenanceTest, RandomInsertStreamStaysCurrent) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_objects = 80;
  spec.num_dims = 3;
  spec.truncate_decimals = 1;  // heavy ties → all paths exercised
  spec.seed = 21;
  IncrementalCubeMaintainer maintainer(GenerateSynthetic(spec));
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> row(3);
    for (double& v : row) {
      v = static_cast<double>(rng.NextBounded(11)) / 10.0;
    }
    maintainer.Insert(row);
    ASSERT_EQ(maintainer.groups(), ComputeStellar(maintainer.data()))
        << "insert " << i;
  }
  // The stream should have hit several distinct paths.
  const MaintenanceStats& stats = maintainer.stats();
  EXPECT_EQ(stats.inserts, 60u);
  EXPECT_GT(stats.duplicate_patches + stats.noop_inserts +
                stats.extension_reruns + stats.full_recomputes,
            0u);
}

TEST(MaintenanceTest, PathsActuallyDiversify) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = 120;
  spec.num_dims = 3;
  spec.truncate_decimals = 1;
  spec.seed = 8;
  IncrementalCubeMaintainer maintainer(GenerateSynthetic(spec));
  Rng rng(11);
  size_t path_counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 120; ++i) {
    std::vector<double> row(3);
    for (double& v : row) {
      v = static_cast<double>(rng.NextBounded(11)) / 10.0;
    }
    path_counts[static_cast<int>(maintainer.Insert(row))]++;
  }
  ExpectCubeCurrent(maintainer);
  // With heavy ties over an 11-value grid, all four paths occur.
  EXPECT_GT(path_counts[0], 0u) << "no duplicate path taken";
  EXPECT_GT(path_counts[1] + path_counts[2], 0u) << "no dominated path";
  EXPECT_GT(path_counts[3], 0u) << "no recompute path taken";
}

TEST(MaintenanceTest, DuplicateOfSeedPatchesWithoutRecompute) {
  // P5 = (2,4,9,3) is a full-space skyline point (a seed). Re-inserting a
  // seed verbatim must take the duplicate path, not recompute.
  IncrementalCubeMaintainer maintainer(RunningExample());
  const uint64_t recomputes_before = maintainer.stats().full_recomputes;
  EXPECT_EQ(maintainer.Insert({2, 4, 9, 3}), InsertPath::kDuplicate);
  EXPECT_EQ(maintainer.Insert({2, 4, 9, 3}), InsertPath::kDuplicate);
  ExpectCubeCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().full_recomputes, recomputes_before);
  EXPECT_EQ(maintainer.data().num_objects(), 7u);
}

TEST(MaintenanceTest, SeedEvictingInsertRecomputes) {
  // (2,4,8,3) strictly dominates seed P5=(2,4,9,3) while leaving the other
  // rows alone: a partial seed eviction, which must force a recompute and
  // still land on the from-scratch answer.
  IncrementalCubeMaintainer maintainer(RunningExample());
  EXPECT_EQ(maintainer.Insert({2, 4, 8, 3}), InsertPath::kFullRecompute);
  ExpectCubeCurrent(maintainer);
  // The evicted seed must no longer appear as a full-space skyline seed.
  const SkylineGroupSet recomputed = ComputeStellar(maintainer.data());
  EXPECT_EQ(maintainer.groups(), recomputed);
}

TEST(MaintenanceTest, AllTiesDatasetInsertIsDuplicate) {
  // Every object identical: any equal insert ties everything everywhere.
  Dataset data = Dataset::FromRows({{3, 3, 3}, {3, 3, 3}, {3, 3, 3}}).value();
  IncrementalCubeMaintainer maintainer(std::move(data));
  EXPECT_EQ(maintainer.Insert({3, 3, 3}), InsertPath::kDuplicate);
  ExpectCubeCurrent(maintainer);
  // A strictly better row then evicts the whole tied cohort.
  EXPECT_EQ(maintainer.Insert({2, 2, 2}), InsertPath::kFullRecompute);
  ExpectCubeCurrent(maintainer);
}

TEST(MaintenanceTest, TieOnEveryDimWithDistinctRowsStaysCurrent) {
  // Rows that tie pairwise on some dim but never dominate: inserts that tie
  // a seed on every dimension individually while being incomparable.
  Dataset data = Dataset::FromRows({{1, 2, 3}, {2, 3, 1}, {3, 1, 2}}).value();
  IncrementalCubeMaintainer maintainer(std::move(data));
  maintainer.Insert({1, 3, 2});  // ties each column's minimum somewhere
  ExpectCubeCurrent(maintainer);
  maintainer.Insert({2, 1, 3});
  ExpectCubeCurrent(maintainer);
}

void ExpectLiveCurrent(const IncrementalCubeMaintainer& maintainer) {
  EXPECT_EQ(maintainer.groups(),
            StellarOverLive(maintainer.data(), maintainer.live()));
}

TEST(MaintenanceTest, RemoveMatchesStellarOverLive) {
  IncrementalCubeMaintainer maintainer(RunningExample());
  // P5 = (2,4,9,3) is a seed: removing its only copy forces a recompute.
  EXPECT_EQ(maintainer.Remove(4), DeletePath::kFullRecompute);
  ExpectLiveCurrent(maintainer);
  EXPECT_EQ(maintainer.num_live(), 4u);
  // Ids are stable across deletes: the dataset still holds all five rows.
  EXPECT_EQ(maintainer.data().num_objects(), 5u);
  EXPECT_FALSE(maintainer.IsLive(4));
}

TEST(MaintenanceTest, RemoveAlreadyDeadOrOutOfRangeIsNoOp) {
  IncrementalCubeMaintainer maintainer(RunningExample());
  const uint64_t version = maintainer.version();
  // Out of range (a replayed delete of a never-acked row) — no-op.
  EXPECT_EQ(maintainer.Remove(99), DeletePath::kAlreadyDead);
  EXPECT_EQ(maintainer.version(), version);
  // Double delete — the second is a no-op.
  maintainer.Remove(0);
  const uint64_t after_first = maintainer.version();
  EXPECT_EQ(maintainer.Remove(0), DeletePath::kAlreadyDead);
  EXPECT_EQ(maintainer.version(), after_first);
  ExpectLiveCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().already_dead_deletes, 2u);
}

TEST(MaintenanceTest, RemoveDuplicateCopyPatchesMemberships) {
  // Two copies of seed P5: deleting one leaves the tuple alive through the
  // other copy, so only the member lists change.
  IncrementalCubeMaintainer maintainer(RunningExample());
  maintainer.Insert({2, 4, 9, 3});  // duplicate of P5 (id 5)
  const uint64_t recomputes = maintainer.stats().full_recomputes;
  EXPECT_EQ(maintainer.Remove(4), DeletePath::kMembershipPatch);
  ExpectLiveCurrent(maintainer);
  EXPECT_EQ(maintainer.stats().full_recomputes, recomputes);
  // The surviving copy now carries every membership the dead one had.
  EXPECT_TRUE(maintainer.IsLive(5));
}

TEST(MaintenanceTest, RandomMixedStreamStaysLiveCurrent) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_objects = 60;
  spec.num_dims = 3;
  spec.truncate_decimals = 1;  // heavy ties → all delete paths exercised
  spec.seed = 33;
  IncrementalCubeMaintainer maintainer(GenerateSynthetic(spec));
  Rng rng(17);
  for (int i = 0; i < 150; ++i) {
    if (rng.NextBounded(3) == 0) {
      maintainer.Remove(static_cast<ObjectId>(
          rng.NextBounded(maintainer.data().num_objects())));
    } else {
      std::vector<double> row(3);
      for (double& v : row) {
        v = static_cast<double>(rng.NextBounded(11)) / 10.0;
      }
      maintainer.Insert(row);
    }
    ASSERT_EQ(maintainer.groups(),
              StellarOverLive(maintainer.data(), maintainer.live()))
        << "diverged at op " << i;
  }
  // The mixed stream must have taken more than one delete path.
  const MaintenanceStats& stats = maintainer.stats();
  EXPECT_GT(stats.deletes, 0u);
  EXPECT_GT(stats.delete_patches + stats.delete_extension_reruns +
                stats.delete_recomputes,
            0u);
}

TEST(MaintenanceTest, ExpireOlderThanBatchesAndSkipsTimestampZero) {
  IncrementalCubeMaintainer maintainer(RunningExample());  // bootstrap: ts 0
  maintainer.Insert({7, 7, 11, 8}, /*timestamp_ms=*/100);
  maintainer.Insert({8, 7, 12, 8}, /*timestamp_ms=*/200);
  maintainer.Insert({9, 8, 12, 9}, /*timestamp_ms=*/300);
  const uint64_t version = maintainer.version();

  // One batch, one version bump, exactly the sub-cutoff rows die.
  EXPECT_EQ(maintainer.ExpireOlderThan(250), 2u);
  EXPECT_EQ(maintainer.version(), version + 1);
  EXPECT_FALSE(maintainer.IsLive(5));
  EXPECT_FALSE(maintainer.IsLive(6));
  EXPECT_TRUE(maintainer.IsLive(7));
  ExpectLiveCurrent(maintainer);

  // Timestamp-0 rows (bootstrap rows) never expire, and a pass
  // that expires nothing does not bump the version.
  const uint64_t after = maintainer.version();
  EXPECT_EQ(maintainer.ExpireOlderThan(250), 0u);
  EXPECT_EQ(maintainer.version(), after);
  for (ObjectId id = 0; id < 5; ++id) EXPECT_TRUE(maintainer.IsLive(id));
  EXPECT_EQ(maintainer.stats().expired_rows, 2u);
}

TEST(MaintenanceTest, CheckpointRestoreRoundTripsTombstones) {
  // The restore constructor must rebuild exactly the live-rows cube from a
  // gapped (tombstoned) dataset, ids preserved.
  IncrementalCubeMaintainer original(RunningExample());
  original.Insert({6, 7, 10, 8}, /*timestamp_ms=*/42);
  original.Remove(1);
  original.Remove(3);
  IncrementalCubeMaintainer restored(original.data(), original.live(),
                                     original.timestamps());
  EXPECT_EQ(restored.groups(), original.groups());
  EXPECT_EQ(restored.num_live(), original.num_live());
  EXPECT_EQ(restored.timestamps(), original.timestamps());
  ExpectLiveCurrent(restored);
}

TEST(MaintenanceTest, LongRandomStream500StaysEquivalent) {
  // 500 inserts over a coarse value grid, checking the cube against a
  // fresh ComputeStellar after every step. Slow but exhaustive: this is
  // the reference oracle the recovery path also relies on.
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_objects = 30;
  spec.num_dims = 3;
  spec.truncate_decimals = 1;
  spec.seed = 77;
  IncrementalCubeMaintainer maintainer(GenerateSynthetic(spec));
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(3);
    for (double& v : row) {
      // Mostly coarse grid values (ties), occasionally a fine value.
      v = rng.NextBounded(10) == 0
              ? static_cast<double>(rng.NextBounded(1000)) / 1000.0
              : static_cast<double>(rng.NextBounded(6)) / 5.0;
    }
    maintainer.Insert(row);
    ASSERT_EQ(maintainer.groups(), ComputeStellar(maintainer.data()))
        << "diverged at insert " << i;
  }
  EXPECT_EQ(maintainer.data().num_objects(), 530u);
  EXPECT_EQ(maintainer.stats().inserts, 500u);
}

}  // namespace
}  // namespace skycube
