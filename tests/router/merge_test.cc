// Union-then-refilter merge tests: MergeSkylineCandidates against the
// single-node skyline oracle. The property under test is the one the whole
// sharded tier rests on — for any partition of the rows into shards, the
// skyline of the union of per-shard skylines IS the global skyline — plus
// the edge semantics: duplicates collapse, equal rows keep each other, and
// candidate order never matters.
#include "router/merge.h"

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/consistent_hash.h"
#include "common/subspace.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "router/partition.h"
#include "skyline/algorithms.h"

namespace skycube::router {
namespace {

Dataset MakeData(size_t objects, int dims, uint64_t seed,
                 Distribution distribution = Distribution::kIndependent) {
  SyntheticSpec spec;
  spec.distribution = distribution;
  spec.num_dims = dims;
  spec.num_objects = objects;
  spec.seed = seed;
  spec.truncate_decimals = 2;  // coarse grid: plenty of exact ties
  return GenerateSynthetic(spec);
}

/// Loads every dataset row into a fresh single-shard topology (global id ==
/// dataset id) so the merge sees the same values the oracle does.
std::unique_ptr<RouterTopology> LoadTopology(const Dataset& data) {
  auto topology =
      std::make_unique<RouterTopology>(data.num_dims(), /*num_shards=*/1);
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    topology->AppendRow(data.Row(id));
  }
  return topology;
}

TEST(MergeSkylineCandidates, UnionOfShardSkylinesIsTheGlobalSkyline) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const Dataset data = MakeData(400, 4, seed);
    const std::unique_ptr<RouterTopology> topology = LoadTopology(data);
    for (const size_t num_shards : {1u, 2u, 4u, 8u}) {
      const HashRing ring(num_shards, /*seed=*/0);
      // Partition by ring ownership, take each shard's local skyline.
      std::vector<std::vector<ObjectId>> shard_rows(num_shards);
      for (ObjectId id = 0; id < data.num_objects(); ++id) {
        shard_rows[ring.OwnerOf(id)].push_back(id);
      }
      for (DimMask mask = 1; mask <= data.full_mask(); ++mask) {
        std::vector<ObjectId> candidates;
        for (const std::vector<ObjectId>& rows : shard_rows) {
          if (rows.empty()) continue;
          const std::vector<ObjectId> local =
              ComputeSkylineAmong(data, mask, rows);
          candidates.insert(candidates.end(), local.begin(), local.end());
        }
        const std::vector<ObjectId> merged =
            MergeSkylineCandidates(topology->rows(), mask, candidates);
        ASSERT_EQ(merged, ComputeSkyline(data, mask))
            << "seed " << seed << " shards " << num_shards << " mask "
            << mask;
      }
    }
  }
}

TEST(MergeSkylineCandidates, DuplicatesAndOrderDoNotMatter) {
  const Dataset data = MakeData(200, 3, 5);
  const std::unique_ptr<RouterTopology> topology = LoadTopology(data);
  const DimMask mask = data.full_mask();
  std::vector<ObjectId> candidates;
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    candidates.push_back(id);
    if (id % 3 == 0) candidates.push_back(id);  // duplicates allowed
  }
  std::mt19937 rng(99);
  std::shuffle(candidates.begin(), candidates.end(), rng);
  EXPECT_EQ(MergeSkylineCandidates(topology->rows(), mask, candidates),
            ComputeSkyline(data, mask));
}

TEST(MergeSkylineCandidates, EqualRowsKeepEachOther) {
  // Two identical rows and one dominated row: single-node semantics keep
  // both copies (only strict dominance removes), the merge must too.
  Dataset data(2);
  data.AddRow({0.2, 0.3});
  data.AddRow({0.2, 0.3});
  data.AddRow({0.9, 0.9});
  const std::unique_ptr<RouterTopology> topology = LoadTopology(data);
  const std::vector<ObjectId> merged = MergeSkylineCandidates(
      topology->rows(), data.full_mask(), {2, 1, 0});
  EXPECT_EQ(merged, (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(merged, ComputeSkyline(data, data.full_mask()));
}

TEST(MergeSkylineCandidates, RoundedScoreTiesKeepOnlyTheDominator) {
  // Row 1 dominates row 0, but their coordinate sums round (or overflow)
  // to the same double: a sort-based merge must still drop row 0.
  for (const Dataset& data :
       {Dataset::FromRows({{1e17, 2}, {1e17, 1}}).value(),
        Dataset::FromRows({{1.7e308, 1.1e308}, {1.7e308, 1.0e308}})
            .value()}) {
    const std::unique_ptr<RouterTopology> topology = LoadTopology(data);
    EXPECT_EQ(MergeSkylineCandidates(topology->rows(), data.full_mask(),
                                     {0, 1}),
              (std::vector<ObjectId>{1}))
        << data.Value(0, 0);
    EXPECT_EQ(MergeSkylineCandidates(topology->rows(), data.full_mask(),
                                     {1, 0}),
              (std::vector<ObjectId>{1}))
        << data.Value(0, 0);
  }
}

TEST(MergeSkylineCandidates, SubsetCandidatesRefilterAmongThemselves) {
  // With only a subset offered (a degraded wave), the merge answers the
  // skyline OF that subset — the survivor semantics of a partial answer.
  const Dataset data = MakeData(300, 4, 8, Distribution::kAntiCorrelated);
  const std::unique_ptr<RouterTopology> topology = LoadTopology(data);
  std::vector<ObjectId> subset;
  for (ObjectId id = 0; id < data.num_objects(); id += 2) {
    subset.push_back(id);
  }
  for (DimMask mask = 1; mask <= data.full_mask(); ++mask) {
    ASSERT_EQ(MergeSkylineCandidates(topology->rows(), mask, subset),
              ComputeSkylineAmong(data, mask, subset))
        << "mask " << mask;
  }
}

TEST(MergeSkylineCandidates, EmptyCandidatesAnswerEmpty) {
  const Dataset data = MakeData(50, 3, 4);
  const std::unique_ptr<RouterTopology> topology = LoadTopology(data);
  EXPECT_TRUE(
      MergeSkylineCandidates(topology->rows(), data.full_mask(), {}).empty());
}

}  // namespace
}  // namespace skycube::router
