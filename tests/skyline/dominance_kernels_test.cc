// Property tests for the rank-compressed columnar dominance kernels:
// every kernel must match its scalar double-precision oracle bit-for-bit
// on random datasets across distributions, tie profiles, and subspaces,
// and every ranked algorithm must reproduce the scalar skyline exactly.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyey.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "dataset/ranked_view.h"
#include "skycube/skycube.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

namespace skycube {
namespace {

std::vector<Dataset> TestDatasets() {
  std::vector<Dataset> datasets;
  for (Distribution distribution :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAntiCorrelated}) {
    SyntheticSpec spec;
    spec.distribution = distribution;
    spec.num_objects = 300;
    spec.num_dims = 5;
    spec.seed = 7;
    // 1 decimal digit forces heavy ties; 4 is the paper's setting.
    for (int decimals : {1, 4}) {
      spec.truncate_decimals = decimals;
      datasets.push_back(GenerateSynthetic(spec));
    }
  }
  return datasets;
}

std::vector<DimMask> TestSubspaces(const Dataset& data) {
  return {DimBit(0), 0b11, 0b101, 0b1110, data.full_mask()};
}

TEST(RankedViewTest, RanksPreserveOrderAndTies) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    for (int dim = 0; dim < data.num_dims(); ++dim) {
      const uint32_t* col = view.column(dim);
      uint32_t max_rank = 0;
      for (ObjectId a = 0; a < data.num_objects(); ++a) {
        max_rank = std::max(max_rank, col[a]);
        for (ObjectId b = a + 1; b < data.num_objects(); ++b) {
          const double va = data.Value(a, dim);
          const double vb = data.Value(b, dim);
          EXPECT_EQ(col[a] < col[b], va < vb);
          EXPECT_EQ(col[a] == col[b], va == vb);
        }
      }
      EXPECT_EQ(view.num_distinct(dim), max_rank + 1);
    }
  }
}

TEST(DominanceKernelsTest, PairwiseKernelsMatchScalarOracle) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    for (DimMask subspace : TestSubspaces(data)) {
      for (ObjectId a = 0; a < 64; ++a) {
        for (ObjectId b = 0; b < 64; ++b) {
          const double* row_a = data.Row(a);
          const double* row_b = data.Row(b);
          EXPECT_EQ(CompareRanked(view, a, b, subspace),
                    CompareRows(row_a, row_b, subspace));
          EXPECT_EQ(RankedDominates(view, a, b, subspace),
                    RowDominates(row_a, row_b, subspace));
          EXPECT_EQ(RankedDominatesOrEqual(view, a, b, subspace),
                    RowDominatesOrEqual(row_a, row_b, subspace));
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, BlockKernelsMatchScalarOracle) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    std::vector<ObjectId> block_ids;
    for (ObjectId id = 0; id < data.num_objects(); id += 2) {
      block_ids.push_back(id);
    }
    for (DimMask subspace : TestSubspaces(data)) {
      const RankedBlock block = RankedBlock::Gather(view, subspace, block_ids);
      std::vector<uint32_t> probe(
          static_cast<size_t>(std::max(block.num_packed_dims(), 1)));
      std::vector<uint8_t> flags(block_ids.size());
      for (ObjectId target = 0; target < 32; ++target) {
        block.GatherProbe(target, probe.data());
        bool any = false;
        for (ObjectId id : block_ids) {
          any = any || RowDominates(data.Row(id), data.Row(target), subspace);
        }
        EXPECT_EQ(BlockAnyDominates(block, probe.data()), any);
        BlockDominatedFlags(block, probe.data(), flags.data());
        for (size_t j = 0; j < block_ids.size(); ++j) {
          EXPECT_EQ(flags[j] != 0, RowDominates(data.Row(target),
                                                data.Row(block_ids[j]),
                                                subspace));
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, RankSortKeyIsMonotoneUnderDominance) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    for (DimMask subspace : TestSubspaces(data)) {
      for (ObjectId a = 0; a < 80; ++a) {
        for (ObjectId b = 0; b < 80; ++b) {
          if (RowDominates(data.Row(a), data.Row(b), subspace)) {
            EXPECT_LT(view.RankSortKey(a, subspace),
                      view.RankSortKey(b, subspace));
          }
        }
      }
    }
  }
}

TEST(DominanceKernelsTest, AllTiesRegression) {
  // Every object identical: nothing dominates anything, every kernel must
  // report ties, and every ranked algorithm must keep all objects.
  const Dataset data =
      Dataset::FromRows({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}).value();
  const RankedView view(data);
  const DimMask full = data.full_mask();
  std::vector<ObjectId> ids(data.num_objects());
  std::iota(ids.begin(), ids.end(), 0);
  for (ObjectId a = 0; a < data.num_objects(); ++a) {
    for (ObjectId b = 0; b < data.num_objects(); ++b) {
      EXPECT_EQ(CompareRanked(view, a, b, full), DomOrder::kEqual);
      EXPECT_FALSE(RankedDominates(view, a, b, full));
      EXPECT_TRUE(RankedDominatesOrEqual(view, a, b, full));
    }
  }
  const RankedBlock block = RankedBlock::Gather(view, full, ids);
  std::vector<uint32_t> probe(static_cast<size_t>(block.num_packed_dims()));
  block.GatherProbe(0, probe.data());
  EXPECT_FALSE(BlockAnyDominates(block, probe.data()));
  std::vector<uint8_t> dominated(ids.size(), 1);
  BlockDominatedFlags(block, probe.data(), dominated.data());
  EXPECT_EQ(dominated, std::vector<uint8_t>(ids.size(), 0));
  for (SkylineAlgorithm algorithm : kAllSkylineAlgorithmsWithBitmap) {
    EXPECT_EQ(ComputeSkylineRanked(view, full, algorithm), ids)
        << SkylineAlgorithmName(algorithm);
  }
}

TEST(RankedAlgorithmsTest, MatchScalarAlgorithmsOnAllSubspaces) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    for (DimMask subspace : TestSubspaces(data)) {
      for (SkylineAlgorithm algorithm : kAllSkylineAlgorithmsWithBitmap) {
        EXPECT_EQ(ComputeSkylineRanked(view, subspace, algorithm),
                  ComputeSkyline(data, subspace, algorithm))
            << SkylineAlgorithmName(algorithm) << " subspace=" << subspace;
      }
    }
  }
}

TEST(RankedAlgorithmsTest, CandidateRestrictionMatchesScalar) {
  for (const Dataset& data : TestDatasets()) {
    const RankedView view(data);
    std::vector<ObjectId> candidates;
    for (ObjectId id = 1; id < data.num_objects(); id += 3) {
      candidates.push_back(id);
    }
    for (SkylineAlgorithm algorithm : kAllSkylineAlgorithmsWithBitmap) {
      EXPECT_EQ(ComputeSkylineAmongRanked(view, data.full_mask(), candidates,
                                          algorithm),
                ComputeSkylineAmong(data, data.full_mask(), candidates,
                                    algorithm))
          << SkylineAlgorithmName(algorithm);
    }
  }
}

TEST(RankedPipelinesTest, SkyeyIdenticalRankedVsDouble) {
  SyntheticSpec spec;
  spec.num_objects = 150;
  spec.num_dims = 4;
  spec.truncate_decimals = 1;
  const Dataset data = GenerateSynthetic(spec);
  SkyeyOptions ranked_options;
  ranked_options.use_ranked_kernels = true;
  ranked_options.force_ranked_kernels = true;
  SkyeyOptions double_options;
  double_options.use_ranked_kernels = false;
  EXPECT_EQ(ComputeSkyey(data, ranked_options),
            ComputeSkyey(data, double_options));
}

TEST(RankedPipelinesTest, ParallelSkycubeDeterministic) {
  SyntheticSpec spec;
  spec.num_objects = 200;
  spec.num_dims = 5;
  spec.truncate_decimals = 2;
  const Dataset data = GenerateSynthetic(spec);
  // Reference: sequential, double path.
  SkycubeOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.use_ranked_kernels = false;
  std::vector<std::pair<DimMask, std::vector<ObjectId>>> reference;
  ForEachSubspaceSkyline(
      data, reference_options,
      [&](DimMask mask, const std::vector<ObjectId>& skyline) {
        reference.emplace_back(mask, skyline);
      });
  for (int num_threads : {1, 0}) {
    for (bool use_ranked : {false, true}) {
      SkycubeOptions options;
      options.num_threads = num_threads;
      options.use_ranked_kernels = use_ranked;
      options.force_ranked_kernels = use_ranked;
      std::vector<std::pair<DimMask, std::vector<ObjectId>>> visited;
      SkycubeStats stats;
      ForEachSubspaceSkyline(
          data, options,
          [&](DimMask mask, const std::vector<ObjectId>& skyline) {
            visited.emplace_back(mask, skyline);
          },
          &stats);
      EXPECT_EQ(visited, reference)
          << "threads=" << num_threads << " ranked=" << use_ranked;
      EXPECT_EQ(stats.subspaces_visited, reference.size());
    }
  }
}

}  // namespace
}  // namespace skycube
