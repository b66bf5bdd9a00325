// Direct unit tests for the non-seed accommodation step (Theorem 5),
// exercising each of its cases in isolation: unaffected groups, group
// splits, in-place extensions, and decisive-subspace adjustments.
#include <vector>

#include <gtest/gtest.h>

#include "core/nonseed_extension.h"
#include "core/seed_lattice.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"

namespace skycube {
namespace {

DimMask M(const char* letters) { return MaskFromLetters(letters); }

// Runs seeds → seed lattice → extension on `data` and returns the groups.
SkylineGroupSet Extend(const Dataset& data, NonSeedExtensionStats* stats,
                       int num_threads = 1) {
  const std::vector<ObjectId> seeds =
      ComputeSkyline(data, data.full_mask());
  const std::vector<SeedSkylineGroup> seed_groups =
      BuildSeedSkylineGroups(SeedRows(data, seeds));
  SkylineGroupSet groups =
      ExtendWithNonSeeds(data, seeds, seed_groups, stats, num_threads);
  NormalizeGroups(&groups);
  return groups;
}

const SkylineGroup* Find(const SkylineGroupSet& groups,
                         std::vector<ObjectId> members) {
  for (const SkylineGroup& group : groups) {
    if (group.members == members) return &group;
  }
  return nullptr;
}

TEST(NonSeedExtensionTest, NoRelevantNonSeedsLeavesSeedLattice) {
  // Non-seed (9,9) shares nothing with the seeds.
  const Dataset data = Dataset::FromRows({{1, 2}, {2, 1}, {9, 9}}).value();
  NonSeedExtensionStats stats;
  const SkylineGroupSet groups = Extend(data, &stats);
  EXPECT_EQ(stats.relevant_pairs, 0u);
  EXPECT_EQ(stats.derived_groups, 0u);
  EXPECT_EQ(groups.size(), 2u);  // the two seed singletons
}

TEST(NonSeedExtensionTest, InPlaceExtensionKeepsMaskAndDecisive) {
  // Paper Example 7, second half: P3 shares exactly the maximal subspace B
  // of seed group P4P5, so the group extends without splitting.
  const Dataset data = Dataset::FromRows({
                                             {5, 6, 10, 7},  // P1
                                             {2, 6, 8, 3},   // P2
                                             {5, 4, 9, 3},   // P3 (non-seed)
                                             {6, 4, 8, 5},   // P4
                                             {2, 4, 9, 3},   // P5
                                         })
                           .value();
  NonSeedExtensionStats stats;
  const SkylineGroupSet groups = Extend(data, &stats);
  EXPECT_GT(stats.relevant_pairs, 0u);
  const SkylineGroup* extended = Find(groups, {2, 3, 4});  // P3P4P5
  ASSERT_NE(extended, nullptr);
  EXPECT_EQ(extended->max_subspace, M("B"));
  EXPECT_EQ(extended->decisive_subspaces, (std::vector<DimMask>{M("B")}));
  // The unexpanded P4P5 must NOT appear.
  EXPECT_EQ(Find(groups, {3, 4}), nullptr);
}

TEST(NonSeedExtensionTest, SplitCreatesChildAndAdjustsParentDecisives) {
  // Paper Example 7, first half: P3 shares BCD ⊇ BD with P5 → child group
  // (P3P5, BCD, {BD}); the parent keeps AB only.
  const Dataset data = Dataset::FromRows({
                                             {5, 6, 10, 7},
                                             {2, 6, 8, 3},
                                             {5, 4, 9, 3},
                                             {6, 4, 8, 5},
                                             {2, 4, 9, 3},
                                         })
                           .value();
  const SkylineGroupSet groups = Extend(data, nullptr);
  const SkylineGroup* parent = Find(groups, {4});  // P5 alone
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->max_subspace, M("ABCD"));
  EXPECT_EQ(parent->decisive_subspaces, (std::vector<DimMask>{M("AB")}));
  const SkylineGroup* child = Find(groups, {2, 4});  // P3P5
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->max_subspace, M("BCD"));
  EXPECT_EQ(child->decisive_subspaces, (std::vector<DimMask>{M("BD")}));
}

TEST(NonSeedExtensionTest, DecisiveGrowsWhenNonSeedTiesPartOfIt) {
  // Seed s = (0, 0); non-seed o = (0, 5) ties s on A (a decisive single).
  // Group {s} keeps mask AB but its decisive A must grow... o shares A, so
  // A alone no longer qualifies s exclusively: the split child is ({s,o},
  // A, {A})? No — o ties s on A, so the tie class of s at A is {s, o}:
  // child group ({s,o}, A) with decisive A; parent ({s}, AB) gets decisive
  // AB (B alone: o differs... B: 0 < 5 strictly beats o → B decisive).
  const Dataset data = Dataset::FromRows({{0, 0}, {0, 5}}).value();
  const SkylineGroupSet groups = Extend(data, nullptr);
  const SkylineGroup* parent = Find(groups, {0});
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->max_subspace, M("AB"));
  EXPECT_EQ(parent->decisive_subspaces, (std::vector<DimMask>{M("B")}));
  const SkylineGroup* child = Find(groups, {0, 1});
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->max_subspace, M("A"));
  EXPECT_EQ(child->decisive_subspaces, (std::vector<DimMask>{M("A")}));
}

TEST(NonSeedExtensionTest, ChainOfSharingNonSeeds) {
  // Multiple non-seeds sharing nested masks with one seed: s = (0,0,0);
  // o1 = (0,0,9) shares AB; o2 = (0,9,9) shares A. Expect groups
  // ({s}, ABC, {C}), ({s,o1}, AB, {B}), ({s,o1,o2}, A, {A}).
  const Dataset data =
      Dataset::FromRows({{0, 0, 0}, {0, 0, 9}, {0, 9, 9}}).value();
  const SkylineGroupSet groups = Extend(data, nullptr);
  ASSERT_EQ(groups.size(), 3u);
  const SkylineGroup* root = Find(groups, {0});
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->max_subspace, M("ABC"));
  EXPECT_EQ(root->decisive_subspaces, (std::vector<DimMask>{M("C")}));
  const SkylineGroup* mid = Find(groups, {0, 1});
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->max_subspace, M("AB"));
  EXPECT_EQ(mid->decisive_subspaces, (std::vector<DimMask>{M("B")}));
  const SkylineGroup* wide = Find(groups, {0, 1, 2});
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->max_subspace, M("A"));
  EXPECT_EQ(wide->decisive_subspaces, (std::vector<DimMask>{M("A")}));
}

TEST(NonSeedExtensionTest, ParallelMatchesSequential) {
  const Dataset data = Dataset::FromRows({
                                             {5, 6, 10, 7},
                                             {2, 6, 8, 3},
                                             {5, 4, 9, 3},
                                             {6, 4, 8, 5},
                                             {2, 4, 9, 3},
                                             {9, 4, 9, 3},
                                             {2, 9, 9, 3},
                                         })
                           .value();
  NonSeedExtensionStats sequential_stats;
  NonSeedExtensionStats parallel_stats;
  const SkylineGroupSet sequential = Extend(data, &sequential_stats, 1);
  const SkylineGroupSet parallel = Extend(data, &parallel_stats, 3);
  EXPECT_EQ(sequential, parallel);
  EXPECT_EQ(sequential_stats.relevant_pairs, parallel_stats.relevant_pairs);
  EXPECT_EQ(sequential_stats.derived_groups, parallel_stats.derived_groups);
}

}  // namespace
}  // namespace skycube
