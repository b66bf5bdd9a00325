// Direct unit tests for seed-lattice construction (Stellar steps 2–4),
// independent of the full pipeline.
#include <vector>

#include <gtest/gtest.h>

#include "core/seed_lattice.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

DimMask M(const char* letters) { return MaskFromLetters(letters); }

// The seeds of the paper's running example: P2, P4, P5.
Dataset Seeds() {
  return Dataset::FromRows({
                               {2, 6, 8, 3},  // P2 → index 0
                               {6, 4, 8, 5},  // P4 → index 1
                               {2, 4, 9, 3},  // P5 → index 2
                           })
      .value();
}

const SeedSkylineGroup* FindGroup(const std::vector<SeedSkylineGroup>& groups,
                                  std::vector<uint32_t> indices) {
  for (const SeedSkylineGroup& group : groups) {
    if (group.seed_indices == indices) return &group;
  }
  return nullptr;
}

// Checks every row of `seeds` (ids into `data`) against the Dataset's
// scalar masks, which share no code with the row pass.
void ExpectRowsMatchDatasetMasks(const Dataset& data,
                                 const std::vector<ObjectId>& seeds) {
  const SeedRows rows(data, seeds);
  ASSERT_EQ(rows.size(), seeds.size());
  EXPECT_EQ(rows.universe(), data.full_mask());
  std::vector<DimMask> co;
  std::vector<DimMask> dom;
  for (uint32_t i = 0; i < seeds.size(); ++i) {
    rows.Fill(i, &co, &dom);
    ASSERT_EQ(co.size(), seeds.size());
    ASSERT_EQ(dom.size(), seeds.size());
    for (uint32_t j = 0; j < seeds.size(); ++j) {
      EXPECT_EQ(co[j], data.CoincidenceMask(seeds[i], seeds[j],
                                            data.full_mask()))
          << "co(" << i << ", " << j << ")";
      EXPECT_EQ(dom[j], data.DominanceMask(seeds[i], seeds[j],
                                           data.full_mask()))
          << "dom(" << i << ", " << j << ")";
    }
  }
}

TEST(SeedLatticeTest, RowsMatchDatasetMasks) {
  // Tie-heavy synthetic data (one decimal digit), every row a "seed".
  for (Distribution distribution :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    SyntheticSpec spec;
    spec.distribution = distribution;
    spec.num_objects = 150;
    spec.num_dims = 5;
    spec.truncate_decimals = 1;
    spec.seed = 7;
    const Dataset data = GenerateSynthetic(spec);
    std::vector<ObjectId> all;
    for (ObjectId i = 0; i < data.num_objects(); ++i) all.push_back(i);
    ExpectRowsMatchDatasetMasks(data, all);
    // A seed list in another order than the rows.
    ExpectRowsMatchDatasetMasks(data, {149, 3, 77, 0, 33});
  }
  // -0.0 and 0.0 coincide; the middle column is constant.
  const Dataset signed_zero = Dataset::FromRows({
                                                    {-0.0, 4, 1},
                                                    {0.0, 4, 2},
                                                    {0.5, 4, -0.0},
                                                })
                                  .value();
  ExpectRowsMatchDatasetMasks(signed_zero, {0, 1, 2});
  const SeedRows rows(signed_zero, {0, 1, 2});
  std::vector<DimMask> co;
  std::vector<DimMask> dom;
  rows.Fill(0, &co, &dom);
  EXPECT_EQ(co, (std::vector<DimMask>{0b111, 0b011, 0b010}));
  EXPECT_EQ(dom, (std::vector<DimMask>{0, 0b100, 0b001}));
  // A single seed: co(0, 0) = universe, dom(0, 0) = ∅.
  ExpectRowsMatchDatasetMasks(signed_zero, {1});
  const SeedRows single(signed_zero, {1});
  single.Fill(0, &co, &dom);
  EXPECT_EQ(co, (std::vector<DimMask>{0b111}));
  EXPECT_EQ(dom, (std::vector<DimMask>{0}));
}

TEST(SeedLatticeTest, RunningExampleFigure3a) {
  const Dataset data = Seeds();
  SeedLatticeStats stats;
  const std::vector<SeedSkylineGroup> groups =
      BuildSeedSkylineGroups(SeedRows(data, {0, 1, 2}), &stats);
  EXPECT_EQ(stats.num_maximal_cgroups, 6u);
  EXPECT_EQ(stats.num_seed_skyline_groups, 6u);

  const SeedSkylineGroup* p2 = FindGroup(groups, {0});
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->max_subspace, M("ABCD"));
  EXPECT_EQ(p2->decisive, (std::vector<DimMask>{M("AC"), M("CD")}));
  // Reduced edges of P2: {AD, C} (minimal, deduped).
  EXPECT_EQ(p2->reduced_edges, (std::vector<DimMask>{M("C"), M("AD")}));

  const SeedSkylineGroup* p4 = FindGroup(groups, {1});
  ASSERT_NE(p4, nullptr);
  EXPECT_EQ(p4->decisive, (std::vector<DimMask>{M("BC")}));

  const SeedSkylineGroup* p5 = FindGroup(groups, {2});
  ASSERT_NE(p5, nullptr);
  EXPECT_EQ(p5->decisive, (std::vector<DimMask>{M("AB"), M("BD")}));

  const SeedSkylineGroup* p2p5 = FindGroup(groups, {0, 2});
  ASSERT_NE(p2p5, nullptr);
  EXPECT_EQ(p2p5->max_subspace, M("AD"));
  EXPECT_EQ(p2p5->decisive, (std::vector<DimMask>{M("A"), M("D")}));

  const SeedSkylineGroup* p2p4 = FindGroup(groups, {0, 1});
  ASSERT_NE(p2p4, nullptr);
  EXPECT_EQ(p2p4->decisive, (std::vector<DimMask>{M("C")}));

  const SeedSkylineGroup* p4p5 = FindGroup(groups, {1, 2});
  ASSERT_NE(p4p5, nullptr);
  EXPECT_EQ(p4p5->decisive, (std::vector<DimMask>{M("B")}));
}

TEST(SeedLatticeTest, NonSkylineCGroupIsDropped) {
  // Three objects; a and b share dimension A with value 5, but c has A=1
  // and dominates the shared projection in subspace A... c=(1, …) strictly
  // smaller on A: the c-group ({a,b}, A) has an empty dominance edge
  // against c and must be dropped, while singletons survive.
  const Dataset data = Dataset::FromRows({
                                             {5, 1, 9},  // a
                                             {5, 9, 1},  // b
                                             {1, 5, 5},  // c
                                         })
                           .value();
  // All three are full-space skyline objects.
  SeedLatticeStats stats;
  const std::vector<SeedSkylineGroup> groups =
      BuildSeedSkylineGroups(SeedRows(data, {0, 1, 2}), &stats);
  EXPECT_EQ(stats.num_maximal_cgroups, 4u);       // 3 singletons + {a,b}
  EXPECT_EQ(stats.num_seed_skyline_groups, 3u);   // {a,b} dropped
  EXPECT_EQ(FindGroup(groups, {0, 1}), nullptr);
  EXPECT_NE(FindGroup(groups, {0}), nullptr);
  EXPECT_NE(FindGroup(groups, {1}), nullptr);
  EXPECT_NE(FindGroup(groups, {2}), nullptr);
}

TEST(SeedLatticeTest, SingleSeedGetsSingletonDecisives) {
  const Dataset data = Dataset::FromRows({{1, 2, 3}}).value();
  const std::vector<SeedSkylineGroup> groups =
      BuildSeedSkylineGroups(SeedRows(data, {0}));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(groups[0].reduced_edges.empty());
  EXPECT_EQ(groups[0].decisive,
            (std::vector<DimMask>{0b001, 0b010, 0b100}));
}

TEST(SeedLatticeTest, DecisiveFromEdgesConventions) {
  // Regular case: transversals.
  EXPECT_EQ(DecisiveFromEdges({0b011, 0b110}, 0b111),
            (std::vector<DimMask>{0b010, 0b101}));
  // Empty edge set → all singletons of b.
  EXPECT_EQ(DecisiveFromEdges({}, 0b101),
            (std::vector<DimMask>{0b001, 0b100}));
}

}  // namespace
}  // namespace skycube
