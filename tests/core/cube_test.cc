// Property tests for the compressed-cube query layer: every answer derived
// from the groups must equal a direct computation on the data.
//
// Soundness/completeness note for Q1 (used throughout): an object u is in
// Sky(B) iff the tie class G of u_B (which is entirely inside Sky(B))
// closes to a skyline group (G, B*) with B ⊆ B* and B satisfying
// Definition 2's conditions (1)+(2), hence containing a minimal such C —
// i.e. iff some group of u has a decisive C with C ⊆ B ⊆ B*.
#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/cube.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "skycube/skycube.h"
#include "skyline/algorithms.h"

namespace skycube {
namespace {

using CubeConfig = std::tuple<Distribution, int, uint64_t>;

class CubeQueryTest : public ::testing::TestWithParam<CubeConfig> {
 protected:
  Dataset MakeData() const {
    SyntheticSpec spec;
    spec.distribution = std::get<0>(GetParam());
    spec.num_dims = std::get<1>(GetParam());
    spec.seed = std::get<2>(GetParam());
    spec.num_objects = 300;
    spec.truncate_decimals = 2;
    return GenerateSynthetic(spec);
  }
};

TEST_P(CubeQueryTest, SubspaceSkylineMatchesDirectComputation) {
  const Dataset data = MakeData();
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   ComputeStellar(data));
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    const std::vector<ObjectId> direct = ComputeSkyline(data, subspace);
    EXPECT_EQ(cube.SubspaceSkyline(subspace), direct)
        << FormatMask(subspace);
    EXPECT_EQ(cube.SkylineCardinality(subspace), direct.size());
  });
}

TEST_P(CubeQueryTest, MembershipAgreesWithDirectComputation) {
  const Dataset data = MakeData();
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   ComputeStellar(data));
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    const std::vector<ObjectId> direct = ComputeSkyline(data, subspace);
    size_t cursor = 0;
    for (ObjectId id = 0; id < data.num_objects(); ++id) {
      const bool expected =
          cursor < direct.size() && direct[cursor] == id && (++cursor, true);
      EXPECT_EQ(cube.IsInSubspaceSkyline(id, subspace), expected)
          << "object " << id << " subspace " << FormatMask(subspace);
    }
  });
}

TEST_P(CubeQueryTest, SubspaceEnumerationMatchesCounting) {
  const Dataset data = MakeData();
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   ComputeStellar(data));
  for (ObjectId id = 0; id < 40; ++id) {
    const std::vector<DimMask> subspaces = cube.SubspacesWhereSkyline(id);
    EXPECT_EQ(cube.CountSubspacesWhereSkyline(id), subspaces.size());
    for (DimMask subspace : subspaces) {
      EXPECT_TRUE(cube.IsInSubspaceSkyline(id, subspace));
    }
  }
}

TEST_P(CubeQueryTest, TotalSkylineObjectsMatchesSkycube) {
  const Dataset data = MakeData();
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   ComputeStellar(data));
  // Inclusion-exclusion from the compression vs brute subspace enumeration.
  EXPECT_EQ(cube.TotalSubspaceSkylineObjects(),
            CountSubspaceSkylineObjects(data));
}

TEST_P(CubeQueryTest, CoveringGroupsAreDisjointAndComplete) {
  const Dataset data = MakeData();
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   ComputeStellar(data));
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    std::vector<ObjectId> from_groups;
    for (size_t g : cube.GroupsCoveringSubspace(subspace)) {
      const CompressedSkylineCube::GroupView group = cube.group(g);
      from_groups.insert(from_groups.end(), group.members.begin(),
                         group.members.end());
    }
    std::sort(from_groups.begin(), from_groups.end());
    // Disjoint: no object appears twice.
    EXPECT_EQ(std::adjacent_find(from_groups.begin(), from_groups.end()),
              from_groups.end())
        << FormatMask(subspace);
    EXPECT_EQ(from_groups, ComputeSkyline(data, subspace));
  });
}

std::string CubeConfigName(const ::testing::TestParamInfo<CubeConfig>& info) {
  std::string name = DistributionName(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_d" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeQueryTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAntiCorrelated),
                       ::testing::Values(3, 5),
                       ::testing::Values(uint64_t{2}, uint64_t{41})),
    CubeConfigName);

TEST(CubeIntervalsTest, IntervalsCoverExactlyTheMemberships) {
  const Dataset data = Dataset::FromRows({
                                             {5, 6, 10, 7},
                                             {2, 6, 8, 3},
                                             {5, 4, 9, 3},
                                             {6, 4, 8, 5},
                                             {2, 4, 9, 3},
                                         })
                           .value();
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   ComputeStellar(data));
  // P5 (id 4) belongs to groups P5 (decisive AB), P2P5 (A), P3P5 (BD),
  // P2P3P5 (D), P3P4P5 (B) → 5 intervals.
  const auto intervals = cube.MembershipIntervals(4);
  EXPECT_EQ(intervals.size(), 5u);
  for (const auto& interval : intervals) {
    EXPECT_TRUE(IsSubsetOf(interval.lower, interval.upper));
    // Every subspace in the interval is a real membership.
    EXPECT_TRUE(cube.IsInSubspaceSkyline(4, interval.lower));
    EXPECT_TRUE(cube.IsInSubspaceSkyline(4, interval.upper));
  }
}

TEST(CubeGroupQueryTest, SubspacesWhereAllSkyline) {
  const Dataset data = Dataset::FromRows({
                                             {5, 6, 10, 7},  // P1
                                             {2, 6, 8, 3},   // P2
                                             {5, 4, 9, 3},   // P3
                                             {6, 4, 8, 5},   // P4
                                             {2, 4, 9, 3},   // P5
                                         })
                           .value();
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   ComputeStellar(data));
  // {P2, P5} (group with decisive A, max subspace AD): common subspaces
  // must at least include A and AD; verify against direct intersection.
  const std::vector<ObjectId> pair = {1, 4};
  const std::vector<DimMask> common = cube.SubspacesWhereAllSkyline(pair);
  EXPECT_TRUE(std::count(common.begin(), common.end(),
                         MaskFromLetters("A")));
  EXPECT_TRUE(std::count(common.begin(), common.end(),
                         MaskFromLetters("AD")));
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    const bool expected = cube.IsInSubspaceSkyline(1, subspace) &&
                          cube.IsInSubspaceSkyline(4, subspace);
    const bool got =
        std::count(common.begin(), common.end(), subspace) > 0;
    EXPECT_EQ(got, expected) << FormatMask(subspace);
  });
  // A group containing P1 (never skyline) has no common subspaces.
  EXPECT_TRUE(cube.SubspacesWhereAllSkyline({0, 4}).empty());
  EXPECT_TRUE(cube.SubspacesWhereAllSkyline({}).empty());
}

TEST(CubeEdgeCases, EmptyGroupSetAnswersEmpty) {
  const CompressedSkylineCube cube(3, 5, {});
  EXPECT_TRUE(cube.SubspaceSkyline(0b111).empty());
  EXPECT_EQ(cube.SkylineCardinality(0b1), 0u);
  EXPECT_FALSE(cube.IsInSubspaceSkyline(0, 0b1));
  EXPECT_EQ(cube.TotalSubspaceSkylineObjects(), 0u);
}

// A 4-d cube answers through the decisive-subspace index, a 17-d one by
// scanning the groups; neither may read past its arrays for a subspace with
// dimensions the cube does not have.
TEST(CubeEdgeCases, SubspaceBeyondNumDimsAnswersEmpty) {
  for (int d : {4, 17}) {
    SyntheticSpec spec;
    spec.num_objects = 60;
    spec.num_dims = d;
    spec.seed = 5;
    const Dataset data = GenerateSynthetic(spec);
    const CompressedSkylineCube cube(d, data.num_objects(),
                                     ComputeStellar(data));
    for (DimMask subspace :
         {DimBit(d), data.full_mask() | DimBit(d), DimBit(63) | 1}) {
      SCOPED_TRACE("d" + std::to_string(d) + " " + FormatMask(subspace));
      EXPECT_TRUE(cube.SubspaceSkyline(subspace).empty());
      EXPECT_EQ(cube.SkylineCardinality(subspace), 0u);
      EXPECT_TRUE(cube.GroupsCoveringSubspace(subspace).empty());
      EXPECT_FALSE(cube.IsInSubspaceSkyline(0, subspace));
    }
  }
}

// A fired token stops Q1 early on both sides of the index-or-scan rule;
// whatever was gathered is still ascending and part of the true answer.
TEST(CubeEdgeCases, FiredTokenGivesAnAscendingPartialAnswer) {
  for (int d : {5, 17}) {
    SyntheticSpec spec;
    spec.distribution = Distribution::kAntiCorrelated;
    spec.num_objects = 80;
    spec.num_dims = d;
    spec.seed = 8;
    const Dataset data = GenerateSynthetic(spec);
    const CompressedSkylineCube cube(d, data.num_objects(),
                                     ComputeStellar(data));
    const CancelToken token = CancelToken::Cancellable();
    token.RequestCancel();
    for (DimMask subspace : {DimMask{0b11}, data.full_mask()}) {
      SCOPED_TRACE("d" + std::to_string(d) + " " + FormatMask(subspace));
      const std::vector<ObjectId> whole = cube.SubspaceSkyline(subspace);
      const std::vector<ObjectId> partial =
          cube.SubspaceSkyline(subspace, &token);
      EXPECT_TRUE(std::is_sorted(partial.begin(), partial.end()));
      EXPECT_TRUE(std::includes(whole.begin(), whole.end(), partial.begin(),
                                partial.end()));
      EXPECT_LE(cube.SkylineCardinality(subspace, &token), whole.size());
    }
  }
}

// Unsorted members, decisive lists and groups are laid out in
// NormalizeGroups' order.
TEST(CubeEdgeCases, UnnormalizedGroupsAreLaidOutCanonically) {
  SyntheticSpec spec;
  spec.num_objects = 300;
  spec.num_dims = 4;
  spec.truncate_decimals = 1;
  spec.seed = 3;
  const Dataset data = GenerateSynthetic(spec);
  const SkylineGroupSet normalized = ComputeStellar(data);
  SkylineGroupSet shuffled = normalized;
  std::reverse(shuffled.begin(), shuffled.end());
  for (SkylineGroup& group : shuffled) {
    std::reverse(group.members.begin(), group.members.end());
    std::reverse(group.decisive_subspaces.begin(),
                 group.decisive_subspaces.end());
  }
  const CompressedSkylineCube cube(4, data.num_objects(), shuffled);
  ASSERT_EQ(cube.num_groups(), normalized.size());
  for (size_t g = 0; g < normalized.size(); ++g) {
    const CompressedSkylineCube::GroupView group = cube.group(g);
    EXPECT_TRUE(std::ranges::equal(group.members, normalized[g].members));
    EXPECT_EQ(group.max_subspace, normalized[g].max_subspace);
    EXPECT_TRUE(std::ranges::equal(group.decisive_subspaces,
                                   normalized[g].decisive_subspaces));
  }
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    EXPECT_EQ(cube.SubspaceSkyline(subspace), ComputeSkyline(data, subspace))
        << FormatMask(subspace);
  });
}

}  // namespace
}  // namespace skycube
