// Stellar and Skyey options and stats: Skyey's candidate-sharing toggle
// must not change the cube, and the stats must be internally consistent.
#include <vector>

#include <gtest/gtest.h>

#include "core/skyey.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

Dataset TestData(Distribution distribution, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = distribution;
  spec.num_objects = 400;
  spec.num_dims = 4;
  spec.truncate_decimals = 2;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(StellarOptionsTest, StatsAreConsistent) {
  const Dataset data = TestData(Distribution::kIndependent, 4);
  StellarStats stats;
  const SkylineGroupSet groups = ComputeStellar(data, {}, &stats);
  EXPECT_EQ(stats.num_objects, data.num_objects());
  EXPECT_LE(stats.num_distinct_objects, stats.num_objects);
  EXPECT_LE(stats.num_seeds, stats.num_distinct_objects);
  EXPECT_GE(stats.num_seeds, 1u);
  EXPECT_LE(stats.num_seed_skyline_groups, stats.num_maximal_cgroups);
  EXPECT_EQ(stats.num_groups, groups.size());
  // A non-empty dataset has a non-empty full-space skyline, and every
  // full-space skyline object is in some skyline group.
  EXPECT_GE(stats.num_groups, 1u);
  EXPECT_GE(stats.seconds_total, 0.0);
  EXPECT_EQ(stats.seconds_ranked_view, 0.0);  // no rank-compressed view
  EXPECT_GE(stats.seconds_total,
            stats.seconds_full_skyline + stats.seconds_matrices +
                stats.seconds_seed_groups + stats.seconds_nonseed - 1e-6);
}

TEST(SkyeyOptionsTest, CandidateSharingToggleAgrees) {
  const Dataset data = TestData(Distribution::kAntiCorrelated, 31);
  SkyeyOptions shared;
  shared.share_parent_candidates = true;
  SkyeyOptions fresh;
  fresh.share_parent_candidates = false;
  EXPECT_EQ(ComputeSkyey(data, shared), ComputeSkyey(data, fresh));
}

TEST(SkyeyOptionsTest, StatsCountSubspaces) {
  const Dataset data = TestData(Distribution::kIndependent, 2);
  SkyeyStats stats;
  const SkylineGroupSet groups = ComputeSkyey(data, {}, &stats);
  EXPECT_EQ(stats.num_objects, data.num_objects());
  EXPECT_EQ(stats.subspaces_searched, 15u);  // 2^4 − 1
  EXPECT_EQ(stats.num_groups, groups.size());
  EXPECT_GT(stats.total_subspace_skyline_objects, 0u);
}

// The headline compression claim on a favourable (correlated) dataset: the
// number of groups is much smaller than the number of subspace skyline
// objects.
TEST(CompressionTest, GroupsCompressSubspaceSkylines) {
  const Dataset data = TestData(Distribution::kCorrelated, 12);
  SkyeyStats stats;
  const SkylineGroupSet groups = ComputeSkyey(data, {}, &stats);
  EXPECT_LT(groups.size() * 2, stats.total_subspace_skyline_objects);
}

}  // namespace
}  // namespace skycube
