// Unit and property tests for the library's skyline (SFS). It must agree
// with the quadratic reference on every distribution, subspace, tie profile
// and candidate subset.
#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/reference.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {
namespace {

Dataset TicketData() {
  // (price, travel_time): the flight example of the paper's introduction.
  return Dataset::FromRows({
                               {900, 14},   // 0: cheap but slow
                               {1400, 9},   // 1: fast but pricey
                               {1200, 11},  // 2: middle, undominated
                               {1300, 12},  // 3: dominated by 2
                               {900, 14},   // 4: duplicate of 0 — still skyline
                               {950, 14},   // 5: dominated by 0
                           })
      .value();
}

TEST(SkylineAlgorithmsTest, FlightExampleAllAlgorithms) {
  const Dataset data = TicketData();
  EXPECT_EQ(ComputeSkyline(data, data.full_mask()),
            (std::vector<ObjectId>{0, 1, 2, 4}));
}

TEST(SkylineAlgorithmsTest, SingleDimensionKeepsAllMinima) {
  const Dataset data = Dataset::FromRows({{3}, {1}, {2}, {1}, {1}}).value();
  EXPECT_EQ(ComputeSkyline(data, 0b1), (std::vector<ObjectId>{1, 3, 4}));
}

TEST(SkylineAlgorithmsTest, AllObjectsIdentical) {
  const Dataset data =
      Dataset::FromRows({{1, 2}, {1, 2}, {1, 2}}).value();
  EXPECT_EQ(ComputeSkyline(data, 0b11), (std::vector<ObjectId>{0, 1, 2}));
}

// Pairs whose coordinate sums round (or overflow) to the same double: row 1
// dominates row 0, but SortScore cannot tell them apart, so a presort that
// breaks score ties by id alone would let row 0 into the window first.
std::vector<Dataset> RoundingTiePairs() {
  return {
      Dataset::FromRows({{1e17, 2}, {1e17, 1}}).value(),
      Dataset::FromRows({{1.7e308, 1.1e308}, {1.7e308, 1.0e308}}).value(),
  };
}

TEST(SkylineAlgorithmsTest, RoundedScoreTiesKeepOnlyTheDominator) {
  for (const Dataset& data : RoundingTiePairs()) {
    ASSERT_EQ(SortScore(data.Row(0), 0b11), SortScore(data.Row(1), 0b11));
    ASSERT_EQ(ReferenceSkyline(data, 0b11), (std::vector<ObjectId>{1}));
    EXPECT_EQ(ComputeSkyline(data, 0b11), ReferenceSkyline(data, 0b11))
        << data.Value(0, 0);
  }
}

TEST(SkylineAlgorithmsTest, CandidateRestrictionComputesSubsetSkyline) {
  const Dataset data = TicketData();
  // Restricted to {1, 3, 5}: 3 and 5 are no longer dominated by excluded
  // objects... 3 is undominated among the three; 5 too; 1 undominated.
  const std::vector<ObjectId> candidates = {1, 3, 5};
  EXPECT_EQ(ComputeSkylineAmong(data, data.full_mask(), candidates),
            (std::vector<ObjectId>{1, 3, 5}));
}

TEST(SkylineAlgorithmsTest, EmptyCandidateSet) {
  const Dataset data = TicketData();
  EXPECT_TRUE(ComputeSkylineAmong(data, data.full_mask(), {}).empty());
}

TEST(DominanceTest, CompareRowsAllOutcomes) {
  const double a[] = {1, 2, 3};
  const double b[] = {1, 3, 4};
  const double c[] = {2, 1, 3};
  EXPECT_EQ(CompareRows(a, b, 0b111), DomOrder::kFirstDominates);
  EXPECT_EQ(CompareRows(b, a, 0b111), DomOrder::kSecondDominates);
  EXPECT_EQ(CompareRows(a, c, 0b111), DomOrder::kIncomparable);
  EXPECT_EQ(CompareRows(a, a, 0b111), DomOrder::kEqual);
  // Restricting the subspace changes the verdict.
  EXPECT_EQ(CompareRows(a, c, 0b001), DomOrder::kFirstDominates);
  EXPECT_EQ(CompareRows(a, c, 0b010), DomOrder::kSecondDominates);
  EXPECT_EQ(CompareRows(a, c, 0b100), DomOrder::kEqual);
}

TEST(DominanceTest, RowDominatesNeedsStrictness) {
  const double a[] = {1, 2};
  const double b[] = {1, 2};
  const double c[] = {1, 3};
  EXPECT_FALSE(RowDominates(a, b, 0b11));
  EXPECT_TRUE(RowDominates(a, c, 0b11));
  EXPECT_FALSE(RowDominates(c, a, 0b11));
  EXPECT_TRUE(RowDominatesOrEqual(a, b, 0b11));
  EXPECT_TRUE(RowDominatesOrEqual(a, c, 0b11));
  EXPECT_FALSE(RowDominatesOrEqual(c, a, 0b11));
}

TEST(DominanceTest, SortScoreIsMonotone) {
  const Dataset data = GenerateIndependent(200, 4, 11);
  for (ObjectId a = 0; a < data.num_objects(); ++a) {
    for (ObjectId b = 0; b < data.num_objects(); ++b) {
      if (Dominates(data, a, b, 0b1011)) {
        EXPECT_LT(SortScore(data.Row(a), 0b1011),
                  SortScore(data.Row(b), 0b1011));
      }
    }
  }
}

// A seeded random half of `data`'s ids, in shuffled (unsorted) order.
std::vector<ObjectId> RandomHalf(const Dataset& data, Rng& rng) {
  std::vector<ObjectId> ids(data.num_objects());
  std::iota(ids.begin(), ids.end(), 0);
  const size_t half = ids.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    std::swap(ids[i], ids[i + rng.NextBounded(ids.size() - i)]);
  }
  ids.resize(half);
  return ids;
}

// ReferenceSkyline over a Dataset holding only `candidates`' rows, with its
// ids mapped back to `data`'s and sorted.
std::vector<ObjectId> ReferenceSkylineAmong(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& candidates) {
  std::vector<std::vector<double>> rows;
  rows.reserve(candidates.size());
  for (ObjectId id : candidates) {
    rows.emplace_back(data.Row(id), data.Row(id) + data.num_dims());
  }
  const Dataset subset = Dataset::FromRows(std::move(rows)).value();
  std::vector<ObjectId> skyline;
  for (ObjectId local : ReferenceSkyline(subset, subspace)) {
    skyline.push_back(candidates[local]);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

// Property sweep: SFS equals the quadratic reference on every subspace of
// randomized datasets, over all objects and over a random half of them (the
// skycube traversal runs it on a parent skyline plus its ties).
using AlgoConfig = std::tuple<Distribution, int, uint64_t>;

class SkylineAlgorithmsPropertyTest
    : public ::testing::TestWithParam<AlgoConfig> {};

TEST_P(SkylineAlgorithmsPropertyTest, AgreesWithReferenceOnAllSubspaces) {
  SyntheticSpec spec;
  spec.distribution = std::get<0>(GetParam());
  spec.num_dims = std::get<1>(GetParam());
  spec.seed = std::get<2>(GetParam());
  spec.num_objects = 300;
  spec.truncate_decimals = 2;  // plenty of ties
  const Dataset data = GenerateSynthetic(spec);
  Rng rng(spec.seed);
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    ASSERT_EQ(ComputeSkyline(data, subspace), ReferenceSkyline(data, subspace))
        << "subspace " << FormatMask(subspace);
    const std::vector<ObjectId> half = RandomHalf(data, rng);
    ASSERT_EQ(ComputeSkylineAmong(data, subspace, half),
              ReferenceSkylineAmong(data, subspace, half))
        << "random half, subspace " << FormatMask(subspace);
  });
}

std::string AlgoConfigName(const ::testing::TestParamInfo<AlgoConfig>& info) {
  std::string name = DistributionName(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_d" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineAlgorithmsPropertyTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAntiCorrelated),
                       ::testing::Values(1, 3, 5),
                       ::testing::Values(uint64_t{3}, uint64_t{17})),
    AlgoConfigName);

}  // namespace
}  // namespace skycube
