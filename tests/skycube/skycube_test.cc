// Tests for full skycube materialization and candidate sharing.
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/reference.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "skycube/skycube.h"

namespace skycube {
namespace {

Dataset RunningExample() {
  return Dataset::FromRows({
                               {5, 6, 10, 7},
                               {2, 6, 8, 3},
                               {5, 4, 9, 3},
                               {6, 4, 8, 5},
                               {2, 4, 9, 3},
                           })
      .value();
}

TEST(SkycubeTest, VisitsEveryNonEmptySubspaceOnce) {
  const Dataset data = RunningExample();
  std::set<DimMask> visited;
  SkycubeStats stats;
  ForEachSubspaceSkyline(
      data, {},
      [&](DimMask subspace, const std::vector<ObjectId>&) {
        EXPECT_TRUE(visited.insert(subspace).second)
            << "subspace visited twice: " << FormatMask(subspace);
      },
      &stats);
  EXPECT_EQ(visited.size(), 15u);  // 2^4 − 1
  EXPECT_EQ(stats.subspaces_visited, 15u);
  for (DimMask subspace : visited) {
    EXPECT_NE(subspace, kEmptyMask);
    EXPECT_TRUE(IsSubsetOf(subspace, data.full_mask()));
  }
}

TEST(SkycubeTest, SkylinesMatchReferencePerSubspace) {
  const Dataset data = RunningExample();
  const Skycube cube = Skycube::Compute(data);
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    EXPECT_EQ(cube.skyline(subspace), ReferenceSkyline(data, subspace))
        << FormatMask(subspace);
  });
}

TEST(SkycubeTest, SharingOnOffIdenticalResults) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = 400;
  spec.num_dims = 5;
  spec.truncate_decimals = 2;
  spec.seed = 9;
  const Dataset data = GenerateSynthetic(spec);
  SkycubeOptions shared;
  shared.share_parent_candidates = true;
  SkycubeOptions fresh;
  fresh.share_parent_candidates = false;
  const Skycube cube_shared = Skycube::Compute(data, shared);
  const Skycube cube_fresh = Skycube::Compute(data, fresh);
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    EXPECT_EQ(cube_shared.skyline(subspace), cube_fresh.skyline(subspace))
        << FormatMask(subspace);
  });
  EXPECT_EQ(cube_shared.total_skyline_objects(),
            cube_fresh.total_skyline_objects());
}

TEST(SkycubeTest, TiesSurviveCandidateSharing) {
  // a=(1,9) is dominated in XY by b=(1,2) but ties it on X — the parent
  // skyline alone would lose it; tie expansion must recover it.
  const Dataset data = Dataset::FromRows({{1, 9}, {1, 2}, {5, 1}}).value();
  const Skycube cube = Skycube::Compute(data);
  EXPECT_EQ(cube.skyline(0b11), (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(cube.skyline(0b01), (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(cube.skyline(0b10), (std::vector<ObjectId>{2}));
  EXPECT_EQ(cube.total_skyline_objects(), 5u);
}

TEST(SkycubeTest, CountMatchesMaterializedCube) {
  SyntheticSpec spec;
  spec.num_objects = 500;
  spec.num_dims = 6;
  spec.seed = 4;
  const Dataset data = GenerateSynthetic(spec);
  const Skycube cube = Skycube::Compute(data);
  EXPECT_EQ(CountSubspaceSkylineObjects(data), cube.total_skyline_objects());
  uint64_t manual = 0;
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    manual += cube.skyline(subspace).size();
  });
  EXPECT_EQ(manual, cube.total_skyline_objects());
}

TEST(SkycubeTest, TraversalIsTopDownByLevel) {
  const Dataset data = RunningExample();
  int previous_size = data.num_dims() + 1;
  ForEachSubspaceSkyline(
      data, {},
      [&](DimMask subspace, const std::vector<ObjectId>&) {
        const int size = MaskSize(subspace);
        EXPECT_LE(size, previous_size)
            << "levels must be visited largest-first";
        previous_size = size;
      },
      nullptr);
  EXPECT_EQ(previous_size, 1);
}

// The per-level fan-out must visit the same (subspace, skyline) sequence
// as the sequential traversal.
TEST(SkycubeTest, ParallelSkycubeDeterministic) {
  SyntheticSpec spec;
  spec.num_objects = 200;
  spec.num_dims = 5;
  spec.truncate_decimals = 2;
  const Dataset data = GenerateSynthetic(spec);
  std::vector<std::pair<DimMask, std::vector<ObjectId>>> reference;
  ForEachSubspaceSkyline(
      data, {}, [&](DimMask mask, const std::vector<ObjectId>& skyline) {
        reference.emplace_back(mask, skyline);
      });
  for (int num_threads : {1, 0}) {
    SkycubeOptions options;
    options.num_threads = num_threads;
    std::vector<std::pair<DimMask, std::vector<ObjectId>>> visited;
    SkycubeStats stats;
    ForEachSubspaceSkyline(
        data, options,
        [&](DimMask mask, const std::vector<ObjectId>& skyline) {
          visited.emplace_back(mask, skyline);
        },
        &stats);
    EXPECT_EQ(visited, reference) << "threads=" << num_threads;
    EXPECT_EQ(stats.subspaces_visited, reference.size());
  }
}

TEST(SkycubeTest, SingleDimensionDataset) {
  const Dataset data = Dataset::FromRows({{2}, {1}, {1}}).value();
  const Skycube cube = Skycube::Compute(data);
  EXPECT_EQ(cube.skyline(0b1), (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(cube.total_skyline_objects(), 2u);
}

}  // namespace
}  // namespace skycube
