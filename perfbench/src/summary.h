// Summary statistics of the benchmark: exact-sample percentiles, the p99
// sample-count rule, block medians, and attempted/failed op counts.
//
// Percentiles are nearest-rank over recorded samples, never read from the
// service's log2 LatencyHistogram: its buckets are 2x wide, so a
// percentile read from it jumps by 100% when a sample crosses a bucket
// edge, which is wider than any bound the benchmark sets.
//
// A run's gated percentiles pool every sample of the run, so a regression
// that adds a few long pauses shows in its p99. The median over blocks of
// consecutive samples of each block's percentile, which ignores a stall
// that touches only a few blocks, is printed beside it as a diagnostic.
#ifndef PERFBENCH_SUMMARY_H_
#define PERFBENCH_SUMMARY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A p99 needs at least this many samples, so that at least ten samples
/// lie beyond it; it is also the smallest block.
inline constexpr size_t kMinSamplesForP99 = 1000;
/// Most blocks a run is split into (odd, so the median is one block's).
inline constexpr size_t kMaxBlocks = 15;

/// Nearest-rank percentile, q in (0, 1]: the smallest value with at least
/// ceil(q * n) values at or below it. Requires a non-empty range.
inline double NearestRank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // The epsilon keeps q * n that is mathematically whole (0.99 * 1000)
  // from rounding up a rank through floating-point error.
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return values[rank - 1];
}

/// The conventional median (mean of the two middle values when the count
/// is even), as Python's statistics.median gives it. Requires values.
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Blocks for `n` samples: the largest odd count, at most kMaxBlocks, that
/// leaves every block kMinSamplesForP99 samples; 0 below that.
inline size_t NumBlocks(size_t n) {
  size_t blocks = std::min(kMaxBlocks, n / kMinSamplesForP99);
  if (blocks % 2 == 0 && blocks > 0) --blocks;
  return blocks;
}

/// Exact samples of one quantity (a latency in µs), in recording order.
class Samples {
 public:
  void Reserve(size_t n) { values_.reserve(n); }
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Percentile q of all samples pooled. Requires count() > 0.
  double Percentile(double q) const { return NearestRank(values_, q); }
  double P50() const { return Percentile(0.5); }
  /// Pooled p99; nothing below kMinSamplesForP99 samples.
  std::optional<double> P99() const {
    if (values_.size() < kMinSamplesForP99) return std::nullopt;
    return Percentile(0.99);
  }

  /// Median over NumBlocks(count()) equal blocks of consecutive samples of
  /// each block's percentile q; nothing below kMinSamplesForP99 samples.
  std::optional<double> BlockPercentile(double q) const {
    const size_t blocks = NumBlocks(values_.size());
    if (blocks == 0) return std::nullopt;
    std::vector<double> per_block;
    for (size_t b = 0; b < blocks; ++b) {
      const size_t begin = values_.size() * b / blocks;
      const size_t end = values_.size() * (b + 1) / blocks;
      per_block.push_back(NearestRank(
          std::vector<double>(values_.begin() + begin, values_.begin() + end),
          q));
    }
    return Median(std::move(per_block));
  }

 private:
  std::vector<double> values_;
};

/// Ops attempted and failed. A failed op is one that answered an error or
/// a wrong answer; it still counts as attempted.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_SUMMARY_H_
