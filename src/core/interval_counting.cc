#include "core/interval_counting.h"

#include <bit>
#include <span>
#include <vector>

#include "common/macros.h"

namespace skycube {

namespace {

// Pascal-triangle binomials up to kMaxDims.
const uint64_t* BinomialRow(int n) {
  static const auto& table = *new std::vector<std::vector<uint64_t>>([] {
    std::vector<std::vector<uint64_t>> t(kMaxDims + 1);
    for (int row = 0; row <= kMaxDims; ++row) {
      t[row].assign(kMaxDims + 1, 0);
      t[row][0] = 1;
      for (int col = 1; col <= row; ++col) {
        t[row][col] = t[row - 1][col - 1] + t[row - 1][col];
      }
    }
    return t;
  }());
  return table[n].data();
}

// Compresses each lower mask into the dense bit-space of b's dimensions.
std::vector<DimMask> CompressToDense(DimMask b,
                                     std::span<const DimMask> lowers) {
  std::vector<int> dense_of_dim(kMaxDims, -1);
  int next = 0;
  ForEachDim(b, [&](int dim) { dense_of_dim[dim] = next++; });
  std::vector<DimMask> compressed;
  compressed.reserve(lowers.size());
  for (DimMask lower : lowers) {
    DimMask mask = 0;
    ForEachDim(lower, [&](int dim) { mask |= DimBit(dense_of_dim[dim]); });
    compressed.push_back(mask);
  }
  return compressed;
}

// Computes coverage[A] (1 bit per dense subset A of b) via the subset-sum
// OR-DP: coverage[A] = 1 iff some lower ⊆ A.
std::vector<char> SosCoverage(int b_size,
                              const std::vector<DimMask>& dense_lowers) {
  std::vector<char> covered(size_t{1} << b_size, 0);
  for (DimMask lower : dense_lowers) covered[lower] = 1;
  for (int dim = 0; dim < b_size; ++dim) {
    const size_t bit = size_t{1} << dim;
    for (size_t a = 0; a < covered.size(); ++a) {
      if (a & bit) covered[a] |= covered[a ^ bit];
    }
  }
  return covered;
}

template <typename PerSubspace>
void ForEachCoveredCount(DimMask b, std::span<const DimMask> lowers,
                         PerSubspace&& per_level) {
  SKYCUBE_CHECK_MSG(!lowers.empty(), "need at least one interval lower end");
  const int b_size = MaskSize(b);
  const uint64_t* binomial = nullptr;
  if (lowers.size() <= kMaxInclusionExclusion) {
    // Inclusion-exclusion over non-empty subsets T of the lowers:
    // the level-l subspaces in [∪T, B] number C(|B| − |∪T|, l − |∪T|).
    for (uint64_t bits = 1; bits < (uint64_t{1} << lowers.size()); ++bits) {
      DimMask joined = 0;
      for (size_t i = 0; i < lowers.size(); ++i) {
        if ((bits >> i) & 1) joined |= lowers[i];
      }
      const int u = MaskSize(joined);
      const int64_t sign = (std::popcount(bits) % 2 == 1) ? 1 : -1;
      binomial = BinomialRow(b_size - u);
      for (int level = u; level <= b_size; ++level) {
        per_level(level, sign * static_cast<int64_t>(binomial[level - u]));
      }
    }
    return;
  }
  SKYCUBE_CHECK_MSG(b_size <= kMaxSosDims,
                    "interval union counting: too many decisives AND too "
                    "many dimensions");
  const std::vector<char> covered =
      SosCoverage(b_size, CompressToDense(b, lowers));
  for (size_t a = 1; a < covered.size(); ++a) {
    if (covered[a]) per_level(std::popcount(a), 1);
  }
}

}  // namespace

uint64_t CountCoveredSubspaces(DimMask b, std::span<const DimMask> lowers) {
  int64_t total = 0;
  ForEachCoveredCount(b, lowers,
                      [&](int /*level*/, int64_t count) { total += count; });
  SKYCUBE_DCHECK(total >= 0);
  return static_cast<uint64_t>(total);
}

void AccumulateCoveredByLevel(DimMask b, std::span<const DimMask> lowers,
                              uint64_t weight,
                              std::vector<uint64_t>* histogram) {
  SKYCUBE_CHECK(histogram->size() >= static_cast<size_t>(MaskSize(b)));
  ForEachCoveredCount(b, lowers, [&](int level, int64_t count) {
    (*histogram)[level - 1] += static_cast<uint64_t>(
        count * static_cast<int64_t>(weight));
  });
}

}  // namespace skycube
