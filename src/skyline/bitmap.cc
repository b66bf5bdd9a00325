// The "Bitmap" skyline method of Tan, Eng, Ooi (VLDB 2001) — the paper's
// reference [12], "the method using bit-operations".
//
// Per dimension, values are ranked; bit-slice leq[dim][rank] holds the set
// of objects whose value on dim is ≤ the rank's value. For an object p
// with per-dimension ranks r_i:
//     A = ⋀_i leq[i][r_i]      (objects ≤ p on every dimension)
//     D = ⋁_i leq[i][r_i − 1]  (objects < p on some dimension)
// p is dominated iff A ∧ D ≠ ∅. All dominance tests become word-parallel.
//
// Memory is Θ(Σ_dim distinct_dim × n) bits — the method's classic
// weakness. Intended for low-cardinality (truncated / categorical) data;
// the implementation refuses beyond ~1 GiB of slices.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/macros.h"
#include "skyline/algorithms.h"

namespace skycube {

namespace {

// Per-dimension rank structure over the candidate subset.
struct DimSlices {
  // leq[r] = candidates with value ≤ sorted_values[r]; leq.size() =
  // #distinct values.
  std::vector<DynamicBitset> leq;
  // rank_of_candidate[j] = rank of candidate j's value on this dimension.
  std::vector<uint32_t> rank_of_candidate;
};

}  // namespace

std::vector<ObjectId> SkylineBitmap(const Dataset& data, DimMask subspace,
                                    const std::vector<ObjectId>& candidates) {
  const size_t m = candidates.size();
  if (m == 0) return {};
  const std::vector<int> dims = MaskDims(subspace);

  // Rank values and check the memory budget before building slices.
  std::vector<std::vector<double>> sorted_values(dims.size());
  uint64_t total_bits = 0;
  for (size_t k = 0; k < dims.size(); ++k) {
    std::vector<double>& values = sorted_values[k];
    values.reserve(m);
    for (ObjectId id : candidates) values.push_back(data.Value(id, dims[k]));
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    total_bits += static_cast<uint64_t>(values.size()) * m;
  }
  SKYCUBE_CHECK_MSG(total_bits <= (uint64_t{1} << 33),
                    "bitmap skyline slices exceed 1 GiB — use SFS/LESS");

  std::vector<DimSlices> slices(dims.size());
  for (size_t k = 0; k < dims.size(); ++k) {
    const std::vector<double>& values = sorted_values[k];
    DimSlices& dim_slices = slices[k];
    dim_slices.leq.assign(values.size(), DynamicBitset(m));
    dim_slices.rank_of_candidate.resize(m);
    // Mark exact-value bits, then accumulate into cumulative ≤ slices.
    for (size_t j = 0; j < m; ++j) {
      const double value = data.Value(candidates[j], dims[k]);
      const uint32_t rank = static_cast<uint32_t>(
          std::lower_bound(values.begin(), values.end(), value) -
          values.begin());
      dim_slices.rank_of_candidate[j] = rank;
      dim_slices.leq[rank].Set(j);
    }
    for (size_t r = 1; r < dim_slices.leq.size(); ++r) {
      dim_slices.leq[r] |= dim_slices.leq[r - 1];
    }
  }

  std::vector<ObjectId> skyline;
  DynamicBitset leq_all(m);
  DynamicBitset less_any(m);
  for (size_t j = 0; j < m; ++j) {
    leq_all = slices[0].leq[slices[0].rank_of_candidate[j]];
    less_any = DynamicBitset(m);
    for (size_t k = 0; k < dims.size(); ++k) {
      const uint32_t rank = slices[k].rank_of_candidate[j];
      if (k > 0) leq_all &= slices[k].leq[rank];
      if (rank > 0) less_any |= slices[k].leq[rank - 1];
    }
    // q dominates candidate j iff q ≤ j everywhere and < somewhere.
    if (!leq_all.IntersectsWith(less_any)) {
      skyline.push_back(candidates[j]);
    }
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace skycube
