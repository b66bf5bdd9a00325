// Property-based cross-validation: on randomized datasets spanning the
// paper's three distributions, dimensionalities, sizes and tie densities,
// the three engines must produce the identical compressed skyline cube:
//
//   ComputeStellar == ComputeSkyey == ComputeReferenceCube
//
// plus the paper-level invariants of cube_invariants.h on every emitted
// group. This is the strongest correctness statement in the suite —
// Stellar's lattice-extension path and Skyey's subspace-search path share
// no algorithmic code.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/reference.h"
#include "core/skyey.h"
#include "core/skyline_group.h"
#include "core/stellar.h"
#include "cube_invariants.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

// (distribution, num_objects, num_dims, truncate_decimals, seed)
using Config = std::tuple<Distribution, size_t, int, int, uint64_t>;

class EngineEquivalenceTest : public ::testing::TestWithParam<Config> {};

Dataset MakeData(const Config& config) {
  SyntheticSpec spec;
  spec.distribution = std::get<0>(config);
  spec.num_objects = std::get<1>(config);
  spec.num_dims = std::get<2>(config);
  spec.truncate_decimals = std::get<3>(config);
  spec.seed = std::get<4>(config);
  return GenerateSynthetic(spec);
}

TEST_P(EngineEquivalenceTest, StellarEqualsSkyeyEqualsReference) {
  const Dataset data = MakeData(GetParam());
  const SkylineGroupSet stellar = ComputeStellar(data);
  const SkylineGroupSet skyey = ComputeSkyey(data);
  ASSERT_EQ(stellar, skyey) << "Stellar:\n"
                            << FormatGroups(stellar, data.num_dims())
                            << "Skyey:\n"
                            << FormatGroups(skyey, data.num_dims());
  const SkylineGroupSet reference = ComputeReferenceCube(data);
  ASSERT_EQ(stellar, reference)
      << "Stellar:\n"
      << FormatGroups(stellar, data.num_dims()) << "Reference:\n"
      << FormatGroups(reference, data.num_dims());
  ExpectCubeInvariants(data, stellar);
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  std::string name = DistributionName(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += "_n" + std::to_string(std::get<1>(info.param));
  name += "_d" + std::to_string(std::get<2>(info.param));
  name += "_t" + std::to_string(std::get<3>(info.param));
  name += "_s" + std::to_string(std::get<4>(info.param));
  return name;
}

// Heavy ties (1 decimal digit) stress the grouping machinery; 4 digits is
// the paper's setting; untruncated data (-1 → here encoded 9) has almost no
// ties, stressing the singleton paths.
INSTANTIATE_TEST_SUITE_P(
    Distributions, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAntiCorrelated),
                       ::testing::Values(size_t{60}, size_t{250}),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(1, 4),
                       ::testing::Values(uint64_t{7}, uint64_t{20260704})),
    ConfigName);

// Tiny exhaustive corner: very heavy coincidence, all values from {0, 1}.
TEST(EngineEquivalenceCorner, BinaryValuesManyDuplicates) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<double>> rows;
    const int d = 2 + static_cast<int>(rng.NextBounded(3));
    const size_t n = 4 + rng.NextBounded(28);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> row(d);
      for (int j = 0; j < d; ++j) {
        row[j] = static_cast<double>(rng.NextBounded(2));
      }
      rows.push_back(std::move(row));
    }
    const Dataset data = Dataset::FromRows(std::move(rows)).value();
    const SkylineGroupSet stellar = ComputeStellar(data);
    ASSERT_EQ(stellar, ComputeSkyey(data)) << "round " << round;
    ASSERT_EQ(stellar, ComputeReferenceCube(data)) << "round " << round;
  }
}

// Duplicate rows must be bound together: every duplicate appears in exactly
// the groups of its twin.
TEST(EngineEquivalenceCorner, ExplicitDuplicates) {
  const Dataset data = Dataset::FromRows({
                                             {1, 5, 3},
                                             {2, 2, 2},
                                             {1, 5, 3},  // dup of row 0
                                             {3, 1, 4},
                                             {2, 2, 2},  // dup of row 1
                                             {1, 5, 3},  // dup of row 0
                                         })
                           .value();
  const SkylineGroupSet stellar = ComputeStellar(data);
  ASSERT_EQ(stellar, ComputeSkyey(data));
  ASSERT_EQ(stellar, ComputeReferenceCube(data));
  for (const SkylineGroup& group : stellar) {
    const bool has0 = std::count(group.members.begin(), group.members.end(), 0);
    const bool has2 = std::count(group.members.begin(), group.members.end(), 2);
    const bool has5 = std::count(group.members.begin(), group.members.end(), 5);
    EXPECT_TRUE(has0 == has2 && has2 == has5)
        << FormatGroup(group, data.num_dims());
    const bool has1 = std::count(group.members.begin(), group.members.end(), 1);
    const bool has4 = std::count(group.members.begin(), group.members.end(), 4);
    EXPECT_EQ(has1, has4) << FormatGroup(group, data.num_dims());
  }
}

// Rows whose coordinate sums round (or overflow) to the same double, so a
// sort-based skyline sees a score tie between row 1 and the row 0 it
// dominates.
TEST(EngineEquivalenceCorner, RoundedScoreTies) {
  for (const Dataset& data :
       {Dataset::FromRows({{1e17, 2}, {1e17, 1}}).value(),
        Dataset::FromRows({{1.7e308, 1.1e308}, {1.7e308, 1.0e308}})
            .value()}) {
    const SkylineGroupSet reference = ComputeReferenceCube(data);
    EXPECT_EQ(ComputeStellar(data), reference) << data.Value(0, 0);
    EXPECT_EQ(ComputeSkyey(data), reference) << data.Value(0, 0);
  }
}

// Single-object and single-dimension degenerate inputs.
TEST(EngineEquivalenceCorner, DegenerateInputs) {
  {
    const Dataset data = Dataset::FromRows({{3, 1, 4}}).value();
    const SkylineGroupSet groups = ComputeStellar(data);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].members, (std::vector<ObjectId>{0}));
    EXPECT_EQ(groups[0].max_subspace, FullMask(3));
    // No opposing object: every single dimension is decisive.
    EXPECT_EQ(groups[0].decisive_subspaces,
              (std::vector<DimMask>{0b001, 0b010, 0b100}));
    EXPECT_EQ(groups, ComputeSkyey(data));
    EXPECT_EQ(groups, ComputeReferenceCube(data));
  }
  {
    const Dataset data = Dataset::FromRows({{3}, {1}, {4}, {1}}).value();
    const SkylineGroupSet groups = ComputeStellar(data);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].members, (std::vector<ObjectId>{1, 3}));
    EXPECT_EQ(groups[0].decisive_subspaces, (std::vector<DimMask>{0b1}));
    EXPECT_EQ(groups, ComputeSkyey(data));
    EXPECT_EQ(groups, ComputeReferenceCube(data));
  }
}

}  // namespace
}  // namespace skycube
