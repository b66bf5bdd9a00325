// Rank-compressed columnar dominance kernels — the batch/branch-poor twins
// of the scalar kernels in skyline/dominance.h.
//
// All kernels operate on a RankedView (dataset/ranked_view.h), whose dense
// per-dimension ranks preserve <, ==, > exactly, so every result here is
// bit-for-bit identical to the corresponding double-precision kernel (the
// property tests in tests/skyline/dominance_kernels_test.cc assert this).
// The wins come from (a) integer compares instead of double compares,
// (b) flag accumulation instead of data-dependent branches, and (c) batch
// shapes — one probe row against a contiguous block of rows — whose inner
// loops auto-vectorize.
#ifndef SKYCUBE_SKYLINE_DOMINANCE_KERNELS_H_
#define SKYCUBE_SKYLINE_DOMINANCE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/subspace.h"
#include "dataset/ranked_view.h"
#include "skyline/dominance.h"

namespace skycube {

/// Twin of CompareRows over ranks: flag accumulation instead of per-dim
/// branching, with the same incomparable short-circuit (on independent
/// data most pairs settle within a few dimensions).
inline DomOrder CompareRanked(const RankedView& view, ObjectId a, ObjectId b,
                              DimMask subspace) {
  unsigned a_better = 0;
  unsigned b_better = 0;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    const uint32_t* col = view.column(dim);
    a_better |= static_cast<unsigned>(col[a] < col[b]);
    b_better |= static_cast<unsigned>(col[b] < col[a]);
    if ((a_better & b_better) != 0) return DomOrder::kIncomparable;
  }
  static constexpr DomOrder kOrders[4] = {
      DomOrder::kEqual, DomOrder::kFirstDominates, DomOrder::kSecondDominates,
      DomOrder::kIncomparable};
  return kOrders[a_better | (b_better << 1)];
}

/// Twin of RowDominates over ranks (same early exit as the scalar).
inline bool RankedDominates(const RankedView& view, ObjectId a, ObjectId b,
                            DimMask subspace) {
  unsigned better = 0;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    const uint32_t* col = view.column(dim);
    if (col[a] > col[b]) return false;
    better |= static_cast<unsigned>(col[a] < col[b]);
  }
  return better != 0;
}

/// Branch-free twin of RowDominatesOrEqual over ranks.
inline bool RankedDominatesOrEqual(const RankedView& view, ObjectId a,
                                   ObjectId b, DimMask subspace) {
  unsigned worse = 0;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    const uint32_t* col = view.column(dim);
    worse |= static_cast<unsigned>(col[a] > col[b]);
  }
  return worse == 0;
}

/// A packed column-major block of ranks for a subset of objects, restricted
/// to the dimensions of one subspace (packed densely in increasing
/// dimension order). Batch kernels run over its contiguous columns.
class RankedBlock {
 public:
  /// An empty block over the dims of `subspace` with initial room for
  /// `capacity` rows (a hint — Append grows the block geometrically).
  /// `view` must outlive the block.
  RankedBlock(const RankedView& view, DimMask subspace, size_t capacity);

  /// Gathers all of `ids` into a block.
  static RankedBlock Gather(const RankedView& view, DimMask subspace,
                            const std::vector<ObjectId>& ids);

  int num_packed_dims() const { return static_cast<int>(dims_.size()); }
  /// Original dimension index of packed column `k`.
  int dim(int k) const { return dims_[k]; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  /// Contiguous rank column of packed dimension `k` (size() valid entries).
  const uint32_t* column(int k) const {
    return ranks_.data() + static_cast<size_t>(k) * capacity_;
  }

  /// Appends one object's ranks as a new row, growing if full.
  void Append(ObjectId id) {
    if (size_ == capacity_) Grow();
    for (size_t k = 0; k < dims_.size(); ++k) {
      ranks_[k * capacity_ + size_] = view_->column(dims_[k])[id];
    }
    ++size_;
  }

  /// Fills probe[k] with `id`'s rank on packed dimension `k` — the probe
  /// row format the batch kernels take.
  void GatherProbe(ObjectId id, uint32_t* probe) const {
    for (size_t k = 0; k < dims_.size(); ++k) {
      probe[k] = view_->column(dims_[k])[id];
    }
  }

  /// Removes every row j with drop[j] != 0, preserving order.
  void CompactWhereZero(const uint8_t* drop);

 private:
  void Grow();

  const RankedView* view_;
  std::vector<int> dims_;  // packed dim -> original dim
  size_t capacity_;
  size_t size_ = 0;
  std::vector<uint32_t> ranks_;  // packed-dim-major, stride capacity_
};

/// True iff some row of `block` strictly dominates the probe row (equal
/// rows do not dominate). Tiles internally with per-tile early exit.
bool BlockAnyDominates(const RankedBlock& block, const uint32_t* probe);

/// dominated[j] = 1 iff the probe row strictly dominates block row j.
/// `dominated` must have block.size() entries.
void BlockDominatedFlags(const RankedBlock& block, const uint32_t* probe,
                         uint8_t* dominated);

/// A dominance window over ranked rows: the BNL/SFS/LESS/index-method
/// working set, stored as a RankedBlock with ids alongside. AnyDominates
/// is the batch inner loop of every window algorithm; EvictDominatedBy
/// supports the BNL-style eviction pass.
class RankedWindow {
 public:
  RankedWindow(const RankedView& view, DimMask subspace, size_t capacity)
      : block_(view, subspace, capacity),
        probe_(block_.num_packed_dims() > 0 ? block_.num_packed_dims() : 1) {
    ids_.reserve(capacity);
  }

  const std::vector<ObjectId>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }

  /// True iff some window row strictly dominates `target`.
  bool AnyDominates(ObjectId target) {
    block_.GatherProbe(target, probe_.data());
    return BlockAnyDominates(block_, probe_.data());
  }

  /// Removes every window row strictly dominated by `target`.
  void EvictDominatedBy(ObjectId target);

  void Append(ObjectId id) {
    block_.Append(id);
    ids_.push_back(id);
  }

 private:
  RankedBlock block_;
  std::vector<ObjectId> ids_;
  std::vector<uint32_t> probe_;
  std::vector<uint8_t> dominated_;  // eviction scratch
};

}  // namespace skycube

#endif  // SKYCUBE_SKYLINE_DOMINANCE_KERNELS_H_
