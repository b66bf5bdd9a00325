// google-benchmark microbenchmarks of the query layer: answering the
// paper's Q1/Q2 queries from the compressed cube vs recomputing from the
// raw data — the materialization-pays-off claim behind the whole approach.
#include <benchmark/benchmark.h>

#include "bench/bench_gbench_main.h"
#include "common/rng.h"
#include "core/cube.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"

namespace skycube {
namespace {

constexpr size_t kTuples = 50000;
constexpr int kDims = 8;

const Dataset& SharedData() {
  static const Dataset& data = *new Dataset([] {
    SyntheticSpec spec;
    spec.distribution = Distribution::kCorrelated;
    spec.num_objects = kTuples;
    spec.num_dims = kDims;
    spec.seed = 7;
    spec.truncate_decimals = 4;
    return GenerateSynthetic(spec);
  }());
  return data;
}

const CompressedSkylineCube& SharedCube() {
  static const CompressedSkylineCube& cube = *new CompressedSkylineCube(
      kDims, SharedData().num_objects(), ComputeStellar(SharedData()));
  return cube;
}

DimMask RandomSubspace(Rng& rng) {
  DimMask mask = 0;
  while (mask == 0) mask = rng.NextBounded(FullMask(kDims)) + 1;
  return mask;
}

void BM_Q1_FromCube(benchmark::State& state) {
  const CompressedSkylineCube& cube = SharedCube();
  Rng rng(3);
  for (auto _ : state) {
    std::vector<ObjectId> skyline = cube.SubspaceSkyline(RandomSubspace(rng));
    benchmark::DoNotOptimize(skyline);
  }
}
BENCHMARK(BM_Q1_FromCube)->Unit(benchmark::kMicrosecond);

// The full space has the largest skyline and all 2^d submasks: Q1's worst
// case, on whichever side of the index-or-scan rule it falls.
void BM_Q1_FullSpaceFromCube(benchmark::State& state) {
  const CompressedSkylineCube& cube = SharedCube();
  for (auto _ : state) {
    std::vector<ObjectId> skyline = cube.SubspaceSkyline(FullMask(kDims));
    benchmark::DoNotOptimize(skyline);
  }
}
BENCHMARK(BM_Q1_FullSpaceFromCube)->Unit(benchmark::kMicrosecond);

void BM_Q1_RecomputeSfs(benchmark::State& state) {
  const Dataset& data = SharedData();
  SharedCube();  // exclude cube construction from timing symmetry
  Rng rng(3);
  for (auto _ : state) {
    std::vector<ObjectId> skyline =
        ComputeSkyline(data, RandomSubspace(rng));
    benchmark::DoNotOptimize(skyline);
  }
}
BENCHMARK(BM_Q1_RecomputeSfs)->Unit(benchmark::kMicrosecond);

void BM_Q2_MembershipFromCube(benchmark::State& state) {
  const CompressedSkylineCube& cube = SharedCube();
  Rng rng(5);
  for (auto _ : state) {
    const ObjectId id = static_cast<ObjectId>(rng.NextBounded(kTuples));
    benchmark::DoNotOptimize(
        cube.IsInSubspaceSkyline(id, RandomSubspace(rng)));
  }
}
BENCHMARK(BM_Q2_MembershipFromCube)->Unit(benchmark::kMicrosecond);

void BM_Q2_CountSubspacesFromCube(benchmark::State& state) {
  const CompressedSkylineCube& cube = SharedCube();
  Rng rng(9);
  for (auto _ : state) {
    const ObjectId id = static_cast<ObjectId>(rng.NextBounded(kTuples));
    benchmark::DoNotOptimize(cube.CountSubspacesWhereSkyline(id));
  }
}
BENCHMARK(BM_Q2_CountSubspacesFromCube)->Unit(benchmark::kMicrosecond);

void BM_CubeConstruction_Stellar(benchmark::State& state) {
  const Dataset& data = SharedData();
  for (auto _ : state) {
    SkylineGroupSet groups = ComputeStellar(data);
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_CubeConstruction_Stellar)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  return skycube::bench::RunGoogleBenchMain(argc, argv, "cube_queries");
}
