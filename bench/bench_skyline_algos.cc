// google-benchmark microbenchmarks of the single-space skyline substrate:
// BNL vs SFS vs D&C vs LESS vs Index vs Bitmap vs BBS across the three
// distributions and sizes. (Substrate ablation — the related-work
// algorithms the paper builds on; the library itself runs SFS.)
#include <benchmark/benchmark.h>

#include "bench/bench_gbench_main.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"

namespace skycube {
namespace {

Dataset MakeData(Distribution distribution, size_t n, int d) {
  SyntheticSpec spec;
  spec.distribution = distribution;
  spec.num_objects = n;
  spec.num_dims = d;
  spec.seed = 42;
  spec.truncate_decimals = 4;
  return GenerateSynthetic(spec);
}

void RunSkyline(benchmark::State& state, Distribution distribution,
                SkylineAlgorithm algorithm) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const Dataset data = MakeData(distribution, n, d);
  size_t skyline_size = 0;
  for (auto _ : state) {
    std::vector<ObjectId> skyline =
        ComputeSkyline(data, data.full_mask(), algorithm);
    skyline_size = skyline.size();
    benchmark::DoNotOptimize(skyline);
  }
  state.counters["skyline"] = static_cast<double>(skyline_size);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

#define SKYCUBE_BENCH(dist_name, dist, algo_name, algo)             \
  void BM_##dist_name##_##algo_name(benchmark::State& state) {      \
    RunSkyline(state, dist, algo);                                  \
  }                                                                 \
  BENCHMARK(BM_##dist_name##_##algo_name)                           \
      ->Args({10000, 4})                                            \
      ->Args({50000, 4})                                            \
      ->Args({10000, 8})                                            \
      ->Unit(benchmark::kMillisecond)

SKYCUBE_BENCH(Correlated, Distribution::kCorrelated, Bnl,
              SkylineAlgorithm::kBlockNestedLoops);
SKYCUBE_BENCH(Correlated, Distribution::kCorrelated, Sfs,
              SkylineAlgorithm::kSortFilterSkyline);
SKYCUBE_BENCH(Correlated, Distribution::kCorrelated, Dnc,
              SkylineAlgorithm::kDivideAndConquer);
SKYCUBE_BENCH(Correlated, Distribution::kCorrelated, Less,
              SkylineAlgorithm::kLess);
SKYCUBE_BENCH(Correlated, Distribution::kCorrelated, Index,
              SkylineAlgorithm::kIndex);
SKYCUBE_BENCH(Correlated, Distribution::kCorrelated, Bitmap,
              SkylineAlgorithm::kBitmap);
SKYCUBE_BENCH(Correlated, Distribution::kCorrelated, Bbs,
              SkylineAlgorithm::kBbs);
SKYCUBE_BENCH(Independent, Distribution::kIndependent, Bnl,
              SkylineAlgorithm::kBlockNestedLoops);
SKYCUBE_BENCH(Independent, Distribution::kIndependent, Sfs,
              SkylineAlgorithm::kSortFilterSkyline);
SKYCUBE_BENCH(Independent, Distribution::kIndependent, Dnc,
              SkylineAlgorithm::kDivideAndConquer);
SKYCUBE_BENCH(Independent, Distribution::kIndependent, Less,
              SkylineAlgorithm::kLess);
SKYCUBE_BENCH(Independent, Distribution::kIndependent, Index,
              SkylineAlgorithm::kIndex);
SKYCUBE_BENCH(AntiCorrelated, Distribution::kAntiCorrelated, Bnl,
              SkylineAlgorithm::kBlockNestedLoops);
SKYCUBE_BENCH(AntiCorrelated, Distribution::kAntiCorrelated, Sfs,
              SkylineAlgorithm::kSortFilterSkyline);
SKYCUBE_BENCH(AntiCorrelated, Distribution::kAntiCorrelated, Dnc,
              SkylineAlgorithm::kDivideAndConquer);
SKYCUBE_BENCH(AntiCorrelated, Distribution::kAntiCorrelated, Less,
              SkylineAlgorithm::kLess);
SKYCUBE_BENCH(AntiCorrelated, Distribution::kAntiCorrelated, Index,
              SkylineAlgorithm::kIndex);
SKYCUBE_BENCH(AntiCorrelated, Distribution::kAntiCorrelated, Bbs,
              SkylineAlgorithm::kBbs);

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  return skycube::bench::RunGoogleBenchMain(argc, argv, "skyline_algos");
}
