// Direct unit tests for seed-lattice construction (Stellar steps 2–4),
// independent of the full pipeline.
#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cgroup_miner.h"
#include "core/seed_lattice.h"
#include "core/transversals.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"

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

// What BuildSeedSkylineGroups must return for `seeds` (ids into `data`),
// without its edge set: every root's branch is mined from a coincidence row
// of Dataset::CoincidenceMask cells, each c-group's full edge list (one
// Dataset::DominanceMask cell per other seed, duplicates kept) kills the
// group if it holds the empty edge and otherwise goes through ReduceEdges
// and DecisiveFromEdges. Counts the killed groups in `num_killed`.
std::vector<SeedSkylineGroup> OracleSeedGroups(
    const Dataset& data, const std::vector<ObjectId>& seeds,
    size_t* num_killed) {
  const DimMask universe = data.full_mask();
  std::vector<SeedSkylineGroup> groups;
  *num_killed = 0;
  for (uint32_t root = 0; root < seeds.size(); ++root) {
    std::vector<DimMask> co;
    for (ObjectId other : seeds) {
      co.push_back(data.CoincidenceMask(seeds[root], other, universe));
    }
    std::vector<MaximalCGroup> cgroups;
    MineBranch(root, co, universe, &cgroups);
    for (const MaximalCGroup& cgroup : cgroups) {
      std::vector<DimMask> edges;
      for (uint32_t w = 0; w < seeds.size(); ++w) {
        if (std::binary_search(cgroup.member_indices.begin(),
                               cgroup.member_indices.end(), w)) {
          continue;
        }
        edges.push_back(
            data.DominanceMask(seeds[root], seeds[w], cgroup.subspace));
      }
      if (std::find(edges.begin(), edges.end(), kEmptyMask) != edges.end()) {
        ++*num_killed;
        continue;
      }
      SeedSkylineGroup group;
      group.seed_indices = cgroup.member_indices;
      group.max_subspace = cgroup.subspace;
      group.reduced_edges = ReduceEdges(edges);
      group.decisive = DecisiveFromEdges(edges, cgroup.subspace);
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

// Runs BuildSeedSkylineGroups over `seeds` and checks its groups, in
// output order, against OracleSeedGroups, whose killed groups are counted
// in `num_killed`.
std::vector<SeedSkylineGroup> BuildAndCheckAgainstOracle(
    const Dataset& data, const std::vector<ObjectId>& seeds,
    size_t* num_killed) {
  SeedLatticeStats stats;
  std::vector<SeedSkylineGroup> groups =
      BuildSeedSkylineGroups(SeedRows(data, seeds), &stats);
  const std::vector<SeedSkylineGroup> expected =
      OracleSeedGroups(data, seeds, num_killed);
  EXPECT_EQ(stats.num_maximal_cgroups, expected.size() + *num_killed);
  EXPECT_EQ(stats.num_seed_skyline_groups, groups.size());
  EXPECT_EQ(groups.size(), expected.size());
  for (size_t i = 0; i < std::min(groups.size(), expected.size()); ++i) {
    EXPECT_EQ(groups[i].seed_indices, expected[i].seed_indices) << i;
    EXPECT_EQ(groups[i].max_subspace, expected[i].max_subspace) << i;
    EXPECT_EQ(groups[i].reduced_edges, expected[i].reduced_edges) << i;
    EXPECT_EQ(groups[i].decisive, expected[i].decisive) << i;
  }
  return groups;
}

// Rows of `data` with dimension `dim` overwritten by `value` in every row.
Dataset WithConstantDim(const Dataset& data, int dim, double value) {
  std::vector<std::vector<double>> rows;
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    const double* row = data.Row(id);
    rows.emplace_back(row, row + data.num_dims());
    rows.back()[dim] = value;
  }
  return Dataset::FromRows(std::move(rows)).value();
}

TEST(SeedLatticeTest, EdgesMatchFullEdgeListOracleOnTies) {
  // d = 6 with one decimal digit: most c-groups share values with other
  // seeds, so their edge lists repeat masks and some hold the empty edge.
  // The constant last dimension gives one group of every seed, which faces
  // no other seed.
  for (Distribution distribution :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    SyntheticSpec spec;
    spec.distribution = distribution;
    spec.num_objects = 400;
    spec.num_dims = 6;
    spec.truncate_decimals = 1;
    spec.seed = 11;
    SCOPED_TRACE(DistributionName(distribution));
    const Dataset data = WithConstantDim(GenerateSynthetic(spec), 5, 0.5);
    const std::vector<ObjectId> seeds = ComputeSkyline(data, data.full_mask());
    EXPECT_GT(seeds.size(), 20u);
    size_t num_killed = 0;
    const std::vector<SeedSkylineGroup> groups =
        BuildAndCheckAgainstOracle(data, seeds, &num_killed);
    EXPECT_GT(num_killed, 0u);
    const SeedSkylineGroup* everyone = nullptr;
    for (const SeedSkylineGroup& group : groups) {
      if (group.seed_indices.size() == seeds.size()) everyone = &group;
    }
    ASSERT_NE(everyone, nullptr);
    EXPECT_TRUE(everyone->reduced_edges.empty());
    EXPECT_EQ(everyone->decisive, (std::vector<DimMask>{DimBit(5)}));
  }
}

TEST(SeedLatticeTest, EdgesMatchFullEdgeListOracleAtTwentyDims) {
  // Every row is a seed at d = 20: a group's distinct edges are bounded by
  // the seeds it faces, not by 2^d, so the edge set holds dozens. (More
  // seeds would mostly time MinimalTransversals, twice.)
  SyntheticSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = 100;
  spec.num_dims = 20;
  spec.truncate_decimals = 2;
  spec.seed = 5;
  const Dataset data = GenerateSynthetic(spec);
  const std::vector<ObjectId> seeds = ComputeSkyline(data, data.full_mask());
  EXPECT_EQ(seeds.size(), 100u);
  size_t num_killed = 0;
  const std::vector<SeedSkylineGroup> groups =
      BuildAndCheckAgainstOracle(data, seeds, &num_killed);
  EXPECT_GT(num_killed, 0u);
  size_t widest = 0;
  for (const SeedSkylineGroup& group : groups) {
    widest = std::max(widest, group.reduced_edges.size());
  }
  EXPECT_GT(widest, 50u);
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
