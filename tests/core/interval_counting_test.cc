// Tests for subspace-interval-union counting, cross-checking the
// inclusion-exclusion and SOS-DP strategies against brute enumeration.
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/interval_counting.h"

namespace skycube {
namespace {

using Lowers = std::vector<DimMask>;

// Brute force: enumerate all non-empty subsets of b.
uint64_t BruteCount(DimMask b, const std::vector<DimMask>& lowers) {
  uint64_t total = 0;
  ForEachNonEmptySubset(b, [&](DimMask a) {
    for (DimMask lower : lowers) {
      if (IsSubsetOf(lower, a)) {
        ++total;
        return;
      }
    }
  });
  return total;
}

std::vector<uint64_t> BruteHistogram(DimMask b,
                                     const std::vector<DimMask>& lowers,
                                     uint64_t weight, size_t dims) {
  std::vector<uint64_t> histogram(dims, 0);
  ForEachNonEmptySubset(b, [&](DimMask a) {
    for (DimMask lower : lowers) {
      if (IsSubsetOf(lower, a)) {
        histogram[MaskSize(a) - 1] += weight;
        return;
      }
    }
  });
  return histogram;
}

TEST(IntervalCountingTest, SingleInterval) {
  // [A, ABCD]: all subsets containing A → 2^3 = 8.
  EXPECT_EQ(CountCoveredSubspaces(0b1111, Lowers{0b0001}), 8u);
  // [ABCD, ABCD]: only ABCD itself.
  EXPECT_EQ(CountCoveredSubspaces(0b1111, Lowers{0b1111}), 1u);
}

TEST(IntervalCountingTest, OverlappingIntervals) {
  // Paper P5 seed group: decisives AB, BD within ABCD.
  // [AB, ABCD] = 4, [BD, ABCD] = 4, intersection [ABD, ABCD] = 2 → 6.
  EXPECT_EQ(CountCoveredSubspaces(0b1111, Lowers{0b0011, 0b1010}), 6u);
}

TEST(IntervalCountingTest, RandomAgainstBruteForce) {
  Rng rng(17);
  for (int round = 0; round < 300; ++round) {
    const int dims = 1 + static_cast<int>(rng.NextBounded(10));
    const DimMask b = FullMask(dims);
    const size_t k = 1 + rng.NextBounded(6);
    std::vector<DimMask> lowers;
    for (size_t i = 0; i < k; ++i) {
      lowers.push_back(1 + rng.NextBounded(b));  // non-empty ⊆ b
    }
    EXPECT_EQ(CountCoveredSubspaces(b, lowers), BruteCount(b, lowers))
        << "round " << round;
    std::vector<uint64_t> histogram(dims, 0);
    AccumulateCoveredByLevel(b, lowers, 3, &histogram);
    EXPECT_EQ(histogram, BruteHistogram(b, lowers, 3, dims))
        << "round " << round;
  }
}

TEST(IntervalCountingTest, SosPathKicksInForManyLowers) {
  // More than kMaxInclusionExclusion lowers forces the SOS DP; verify it
  // against brute force on a 10-dim space with 30 random lowers.
  Rng rng(23);
  const DimMask b = FullMask(10);
  for (int round = 0; round < 20; ++round) {
    std::vector<DimMask> lowers;
    for (int i = 0; i < 30; ++i) lowers.push_back(1 + rng.NextBounded(b));
    ASSERT_GT(lowers.size(), kMaxInclusionExclusion);
    EXPECT_EQ(CountCoveredSubspaces(b, lowers), BruteCount(b, lowers));
    std::vector<uint64_t> histogram(10, 0);
    AccumulateCoveredByLevel(b, lowers, 1, &histogram);
    EXPECT_EQ(histogram, BruteHistogram(b, lowers, 1, 10));
  }
}

TEST(IntervalCountingTest, NonContiguousUniverse) {
  // b = {1, 3, 4} (mask 0b11010); lower = {3} (0b01000).
  // Supersets of {3} within b: {3}, {1,3}, {3,4}, {1,3,4} → 4.
  EXPECT_EQ(CountCoveredSubspaces(0b11010, Lowers{0b01000}), 4u);
  // SOS path with the same geometry (pad the lower list with duplicates).
  std::vector<DimMask> many(25, 0b01000);
  EXPECT_EQ(CountCoveredSubspaces(0b11010, many), 4u);
}

TEST(IntervalCountingTest, SingletonDimension) {
  EXPECT_EQ(CountCoveredSubspaces(0b1, Lowers{0b1}), 1u);
}

}  // namespace
}  // namespace skycube
