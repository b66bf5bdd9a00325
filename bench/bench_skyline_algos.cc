// google-benchmark microbenchmarks of the library's single-space skyline
// (SFS, ComputeSkyline) on the full space, across the three distributions
// and sizes.
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

void RunSkyline(benchmark::State& state, Distribution distribution) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const Dataset data = MakeData(distribution, n, d);
  size_t skyline_size = 0;
  for (auto _ : state) {
    std::vector<ObjectId> skyline = ComputeSkyline(data, data.full_mask());
    skyline_size = skyline.size();
    benchmark::DoNotOptimize(skyline);
  }
  state.counters["skyline"] = static_cast<double>(skyline_size);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

#define SKYCUBE_BENCH(dist_name, dist)                 \
  void BM_##dist_name##_Sfs(benchmark::State& state) { \
    RunSkyline(state, dist);                           \
  }                                                    \
  BENCHMARK(BM_##dist_name##_Sfs)                      \
      ->Args({10000, 4})                               \
      ->Args({50000, 4})                               \
      ->Args({10000, 8})                               \
      ->Unit(benchmark::kMillisecond)

SKYCUBE_BENCH(Correlated, Distribution::kCorrelated);
SKYCUBE_BENCH(Independent, Distribution::kIndependent);
SKYCUBE_BENCH(AntiCorrelated, Distribution::kAntiCorrelated);

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  return skycube::bench::RunGoogleBenchMain(argc, argv, "skyline_algos");
}
