// Self-test of the benchmark's summary code (src/summary.h): nearest-rank
// percentiles on exact samples, the p99 sample-count rule, pooled and
// block percentiles, the median, and attempted/failed op counts. run.py
// runs it after every build; it exits non-zero if any check fails.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "summary.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "summary_test: FAILED %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Range(int first, int last) {
  std::vector<double> values;
  for (int v = last; v >= first; --v) values.push_back(v);  // unsorted
  return values;
}

void NearestRank() {
  using perfbench::NearestRank;
  Expect(NearestRank(Range(1, 10), 0.5) == 5, "p50 of 1..10 is the 5th");
  Expect(NearestRank(Range(1, 10), 0.51) == 6, "p51 of 1..10 rounds up");
  Expect(NearestRank(Range(1, 10), 0.9) == 9, "p90 of 1..10 is the 9th");
  Expect(NearestRank(Range(1, 10), 1.0) == 10, "p100 is the maximum");
  Expect(NearestRank(Range(1, 10), 0.01) == 1, "a tiny quantile is the min");
  Expect(NearestRank({42}, 0.5) == 42, "p50 of one sample is that sample");
  // Exact samples, never bucket bounds: a log2 histogram would report a
  // power of two for all of these.
  Expect(NearestRank({1000, 1100, 1300, 1700, 1900}, 0.5) == 1300,
         "p50 is an observed value");
  // 0.99 * 1000 is whole: the rank is 990, not 991.
  Expect(NearestRank(Range(1, 1000), 0.99) == 990, "p99 of 1..1000 is 990");
  Expect(NearestRank(Range(1, 2000), 0.99) == 1980, "p99 of 1..2000");
}

void P99RuleAndBlocks() {
  using perfbench::kMinSamplesForP99;
  using perfbench::NumBlocks;
  Expect(NumBlocks(kMinSamplesForP99 - 1) == 0, "no block below the minimum");
  Expect(NumBlocks(kMinSamplesForP99) == 1, "one block at the minimum");
  Expect(NumBlocks(2 * kMinSamplesForP99) == 1, "block counts are odd");
  Expect(NumBlocks(3 * kMinSamplesForP99) == 3, "three blocks of 1000");
  Expect(NumBlocks(100 * kMinSamplesForP99) == perfbench::kMaxBlocks,
         "at most kMaxBlocks blocks");

  perfbench::Samples few;
  for (double v : Range(1, kMinSamplesForP99 - 1)) few.Add(v);
  Expect(!few.P99().has_value(), "no pooled p99 below the minimum");
  Expect(!few.BlockPercentile(0.99).has_value(), "no p99 below the minimum");

  perfbench::Samples one_block;
  for (double v : Range(1, kMinSamplesForP99)) one_block.Add(v);
  Expect(one_block.P99() == 990.0, "pooled p99 at the minimum");
  Expect(one_block.BlockPercentile(0.99) == 990.0,
         "one block: the pooled p99");

  // Three blocks of 1000; a stall inflates every sample of the middle one.
  // Pooled, the stall sets the p99 (the gated metric sees long pauses);
  // the median of the block p99s ignores it.
  perfbench::Samples stalled;
  for (int block = 0; block < 3; ++block) {
    for (int i = 1; i <= 1000; ++i) stalled.Add(block == 1 ? 1e6 : i);
  }
  Expect(stalled.P99() == 1e6, "pooled p99 is the stall");
  Expect(stalled.BlockPercentile(0.99) == 990.0,
         "block median p99 ignores one stalled block");
  Expect(stalled.BlockPercentile(0.5) == 500.0, "block median p50");
}

void Median() {
  using perfbench::Median;
  Expect(Median(Range(1, 5)) == 3, "median of 1..5");
  Expect(Median(Range(1, 4)) == 2.5, "median of 1..4 averages the middle");
  Expect(Median({1.31, 1.02, 1.07}) == 1.07, "median of three set-ups");
}

void Counts() {
  perfbench::OpCounts counts;
  counts.Record(true);
  counts.Record(false);
  counts.Record(true);
  Expect(counts.attempted == 3 && counts.failed == 1,
         "a failed op counts as attempted and failed");
}

}  // namespace

int main() {
  NearestRank();
  P99RuleAndBlocks();
  Median();
  Counts();
  if (g_failures == 0) std::printf("summary_test: all checks passed\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
