// Rank-compressed, column-major (SoA) view of a Dataset.
//
// Per dimension, the doubles are mapped to dense uint32_t ranks: values are
// sorted, ties share a rank, and rank order equals value order. Dominance
// and coincidence therefore behave *identically* on ranks and on the
// original doubles — `rank_a < rank_b ⟺ value_a < value_b` and
// `rank_a == rank_b ⟺ value_a == value_b` within a dimension — so every
// skyline/skycube algorithm can run on the ranks and produce bit-for-bit
// the same output while its inner loops become branch-poor integer
// comparisons over contiguous columns (see skyline/dominance_kernels.h).
//
// The view is built once per Dataset in O(n·d·log n) and is immutable; it
// keeps a pointer to the source Dataset (which must outlive it) so callers
// holding a RankedView can still reach the double-precision fallback path.
#ifndef SKYCUBE_DATASET_RANKED_VIEW_H_
#define SKYCUBE_DATASET_RANKED_VIEW_H_

#include <cstdint>
#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// Dense per-dimension ranks of a Dataset, stored one contiguous column per
/// dimension.
class RankedView {
 public:
  /// Ranks every dimension of `data`. `data` must outlive the view.
  explicit RankedView(const Dataset& data);

  const Dataset& data() const { return *data_; }
  int num_dims() const { return num_dims_; }
  size_t num_objects() const { return num_objects_; }

  /// Contiguous rank column of dimension `dim` (indexed by ObjectId).
  const uint32_t* column(int dim) const {
    SKYCUBE_DCHECK(dim >= 0 && dim < num_dims_);
    return ranks_.data() + static_cast<size_t>(dim) * num_objects_;
  }

  /// Rank of object `id` on dimension `dim` (0 = smallest value; ties share
  /// a rank).
  uint32_t Rank(ObjectId id, int dim) const {
    SKYCUBE_DCHECK(id < num_objects_);
    return column(dim)[id];
  }

  /// Number of distinct values (= number of distinct ranks) on `dim`.
  uint32_t num_distinct(int dim) const {
    SKYCUBE_DCHECK(dim >= 0 && dim < num_dims_);
    return num_distinct_[dim];
  }

  /// Monotone SFS/LESS sort key over ranks: the rank sum over `subspace`.
  /// If u dominates v in `subspace` then RankSortKey(u) < RankSortKey(v)
  /// strictly (each rank is ≤ with at least one <).
  uint64_t RankSortKey(ObjectId id, DimMask subspace) const {
    uint64_t sum = 0;
    ForEachDim(subspace, [&](int dim) { sum += column(dim)[id]; });
    return sum;
  }

 private:
  const Dataset* data_;
  int num_dims_;
  size_t num_objects_;
  std::vector<uint32_t> ranks_;  // dim-major: ranks_[dim * n + id]
  std::vector<uint32_t> num_distinct_;
};

}  // namespace skycube

#endif  // SKYCUBE_DATASET_RANKED_VIEW_H_
