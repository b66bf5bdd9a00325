// Microbenchmark of the rank-compressed columnar dominance kernels
// (skyline/dominance_kernels.h) against their scalar double-precision
// oracles (skyline/dominance.h).
//
// Workload: n×n all-pairs dominance over --dims-dimensional independent
// data (n=1024 ⇒ ~1M comparisons, the acceptance workload). Each shape is
// timed over --reps repetitions and the best rep is reported, as
// ns/comparison plus the speedup over the scalar CompareRows loop.
//
// Flags: --n=N (objects, default 1024), --dims=D (default 16), --reps=R
// (default 5), --seed=S, --json[=PATH].
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/bench_common.h"
#include "dataset/ranked_view.h"
#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

int main(int argc, char** argv) {
  using namespace skycube;
  using namespace skycube::bench;
  const FlagParser flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 1024));
  const int dims = static_cast<int>(flags.GetInt("dims", 16));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  const uint64_t seed = flags.GetInt("seed", 1);
  std::printf("=== Dominance kernels: scalar vs rank-compressed ===\n");
  std::printf("n=%zu objects, d=%d dims, %zu pairwise comparisons, best of "
              "%d reps\n\n",
              n, dims, n * n, reps);
  BenchJson json(flags, "dominance_kernels");
  json.AddScalar("n", static_cast<int64_t>(n));
  json.AddScalar("dims", static_cast<int64_t>(dims));

  const Dataset data =
      PaperSynthetic(Distribution::kIndependent, n, dims, seed);
  const DimMask full = data.full_mask();
  const RankedView view(data);
  std::vector<ObjectId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  const double comparisons = static_cast<double>(n) * static_cast<double>(n);

  // `sink` defeats dead-code elimination; each shape folds its results in.
  uint64_t sink = 0;
  auto best_of = [&](auto&& fn) {
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const double sec = TimeIt(fn);
      if (rep == 0 || sec < best) best = sec;
    }
    return best;
  };

  // Scalar oracle: all-pairs CompareRows over the row-major doubles.
  const double scalar_sec = best_of([&] {
    for (size_t i = 0; i < n; ++i) {
      const double* row_i = data.Row(i);
      for (size_t j = 0; j < n; ++j) {
        sink += static_cast<uint64_t>(CompareRows(row_i, data.Row(j), full));
      }
    }
  });

  // Pairwise ranked: same shape, integer ranks, branch-free accumulation.
  const double ranked_pair_sec = best_of([&] {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        sink += static_cast<uint64_t>(CompareRanked(view, i, j, full));
      }
    }
  });

  // Batch flags: one probe row against the whole block per outer object.
  const RankedBlock block = RankedBlock::Gather(view, full, ids);
  std::vector<uint32_t> probe(static_cast<size_t>(block.num_packed_dims()));
  std::vector<uint8_t> flags_out(n);
  const double batch_flags_sec = best_of([&] {
    for (size_t i = 0; i < n; ++i) {
      block.GatherProbe(static_cast<ObjectId>(i), probe.data());
      BlockDominatedFlags(block, probe.data(), flags_out.data());
      sink += flags_out[i];
    }
  });

  TablePrinter table({"kernel", "sec", "ns_per_cmp", "speedup_vs_scalar"});
  auto add = [&](const char* name, double sec, double baseline) {
    table.NewRow()
        .AddCell(name)
        .AddDouble(sec, 5)
        .AddDouble(sec / comparisons * 1e9, 3)
        .AddDouble(baseline / sec, 2);
  };
  add("scalar CompareRows", scalar_sec, scalar_sec);
  add("ranked CompareRanked", ranked_pair_sec, scalar_sec);
  add("batch BlockDominatedFlags", batch_flags_sec, scalar_sec);
  EmitTable(table);
  json.AddTable("kernels", table);
  json.AddScalar("batch_speedup", scalar_sec / batch_flags_sec);
  std::printf("(sink=%llu)\n",
              static_cast<unsigned long long>(sink & 0xff));
  return 0;
}
