// Ablation study of Stellar's design choices (DESIGN.md §3):
//   1. phase breakdown — where the time goes per distribution;
//   2. Skyey with and without parent-candidate sharing (the "shared sorted
//      lists" device).
//
// Flags: --tuples=N (default 20000; --full → 100000), --seed=S.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/skyey.h"
#include "core/stellar.h"

int main(int argc, char** argv) {
  using namespace skycube;
  using namespace skycube::bench;
  const FlagParser flags(argc, argv);
  const bool full = flags.GetBool("full", false);
  const size_t tuples = flags.GetInt("tuples", full ? 100000 : 20000);
  const uint64_t seed = flags.GetInt("seed", 1);
  PrintHeader("Ablation: Stellar design choices", full);
  BenchJson json(flags, "ablation_stellar");
  json.AddScalar("full", full ? "full" : "default");
  json.AddScalar("tuples", static_cast<int64_t>(tuples));

  const struct {
    Distribution distribution;
    int dims;
  } workloads[] = {
      {Distribution::kCorrelated, 8},
      {Distribution::kIndependent, 5},
      {Distribution::kAntiCorrelated, 4},
  };

  // 1. Phase breakdown.
  std::printf("--- phase breakdown (seconds) ---\n");
  TablePrinter phases({"workload", "seeds", "skyline", "matrices",
                       "seed_groups", "nonseed", "total"});
  for (const auto& w : workloads) {
    const Dataset data =
        PaperSynthetic(w.distribution, tuples, w.dims, seed);
    StellarStats stats;
    ComputeStellar(data, {}, &stats);
    phases.NewRow()
        .AddCell(std::string(DistributionName(w.distribution)) + "/d" +
                 std::to_string(w.dims))
        .AddInt(static_cast<int64_t>(stats.num_seeds))
        .AddDouble(stats.seconds_full_skyline, 4)
        .AddDouble(stats.seconds_matrices, 4)
        .AddDouble(stats.seconds_seed_groups, 4)
        .AddDouble(stats.seconds_nonseed, 4)
        .AddDouble(stats.seconds_total, 4);
  }
  EmitTable(phases);
  json.AddTable("phase_breakdown", phases);

  // 2. Skyey candidate sharing.
  std::printf("--- Skyey: parent-candidate sharing on/off ---\n");
  TablePrinter sharing({"workload", "shared_sec", "fresh_sec"});
  for (const auto& w : workloads) {
    const Dataset data =
        PaperSynthetic(w.distribution, tuples, w.dims, seed);
    SkyeyOptions shared;
    shared.share_parent_candidates = true;
    SkyeyOptions fresh;
    fresh.share_parent_candidates = false;
    sharing.NewRow()
        .AddCell(std::string(DistributionName(w.distribution)) + "/d" +
                 std::to_string(w.dims))
        .AddDouble(TimeIt([&] { ComputeSkyey(data, shared); }), 4)
        .AddDouble(TimeIt([&] { ComputeSkyey(data, fresh); }), 4);
  }
  EmitTable(sharing);
  json.AddTable("skyey_sharing", sharing);
  return 0;
}
