#include "skyline/dominance_kernels.h"

#include <algorithm>

namespace skycube {

namespace {

// Batch tile width: two uint32 flag arrays of this size stay comfortably in
// L1 next to the rank columns being scanned.
constexpr size_t kTile = 256;

// First tile width for the any-dominates probe. Window algorithms keep
// their windows in a sort order that concentrates strong dominators at the
// front, so most dominated probes are killed within the first few rows —
// the scalar kernels exploit that with a first-dominator early exit.
// Starting small and growing geometrically (16 -> 64 -> 256) restores that
// early exit at tile granularity without giving up vectorized throughput
// on probes that survive deep into the window.
constexpr size_t kFirstTile = 16;

}  // namespace

RankedBlock::RankedBlock(const RankedView& view, DimMask subspace,
                         size_t capacity)
    : view_(&view), capacity_(capacity) {
  SKYCUBE_DCHECK(IsSubsetOf(subspace, FullMask(view.num_dims())));
  dims_ = MaskDims(subspace);
  ranks_.resize(dims_.size() * capacity_);
}

RankedBlock RankedBlock::Gather(const RankedView& view, DimMask subspace,
                                const std::vector<ObjectId>& ids) {
  RankedBlock block(view, subspace, ids.size());
  for (size_t k = 0; k < block.dims_.size(); ++k) {
    const uint32_t* col = view.column(block.dims_[k]);
    uint32_t* out = block.ranks_.data() + k * block.capacity_;
    for (size_t j = 0; j < ids.size(); ++j) out[j] = col[ids[j]];
  }
  block.size_ = ids.size();
  return block;
}

void RankedBlock::Grow() {
  const size_t new_capacity = capacity_ == 0 ? 64 : capacity_ * 2;
  std::vector<uint32_t> grown(dims_.size() * new_capacity);
  for (size_t k = 0; k < dims_.size(); ++k) {
    const uint32_t* src = ranks_.data() + k * capacity_;
    uint32_t* dst = grown.data() + k * new_capacity;
    for (size_t j = 0; j < size_; ++j) dst[j] = src[j];
  }
  ranks_ = std::move(grown);
  capacity_ = new_capacity;
}

void RankedBlock::CompactWhereZero(const uint8_t* drop) {
  size_t keep = 0;
  for (size_t j = 0; j < size_; ++j) keep += (drop[j] == 0);
  if (keep == size_) return;
  for (size_t k = 0; k < dims_.size(); ++k) {
    uint32_t* col = ranks_.data() + k * capacity_;
    size_t out = 0;
    for (size_t j = 0; j < size_; ++j) {
      if (drop[j] == 0) col[out++] = col[j];
    }
  }
  size_ = keep;
}

bool BlockAnyDominates(const RankedBlock& block, const uint32_t* probe) {
  const int num_dims = block.num_packed_dims();
  const size_t n = block.size();
  uint32_t le[kTile];  // row ≤ probe on every dim scanned so far
  uint32_t lt[kTile];  // row < probe on some dim
  size_t tile = kFirstTile;
  for (size_t base = 0; base < n;
       base += tile, tile = std::min(tile * 4, kTile)) {
    const size_t m = std::min(tile, n - base);
    for (size_t j = 0; j < m; ++j) le[j] = 1;
    for (size_t j = 0; j < m; ++j) lt[j] = 0;
    uint32_t alive = 1;
    for (int k = 0; k < num_dims && alive != 0; ++k) {
      const uint32_t* col = block.column(k) + base;
      const uint32_t r = probe[k];
      alive = 0;
      for (size_t j = 0; j < m; ++j) {
        le[j] &= static_cast<uint32_t>(col[j] <= r);
        lt[j] |= static_cast<uint32_t>(col[j] < r);
        alive |= le[j];
      }
      // Once no row is still ≤ on every scanned dim, the whole tile is
      // dead — the batch analogue of the scalar incomparable short-circuit.
    }
    uint32_t any = 0;
    for (size_t j = 0; j < m; ++j) any |= (le[j] & lt[j]);
    if (any != 0) return true;
  }
  return false;
}

void BlockDominatedFlags(const RankedBlock& block, const uint32_t* probe,
                         uint8_t* dominated) {
  const int num_dims = block.num_packed_dims();
  const size_t n = block.size();
  uint32_t ge[kTile];  // probe ≤ row on every dim scanned so far
  uint32_t gt[kTile];  // probe < row on some dim
  for (size_t base = 0; base < n; base += kTile) {
    const size_t m = std::min(kTile, n - base);
    for (size_t j = 0; j < m; ++j) ge[j] = 1;
    for (size_t j = 0; j < m; ++j) gt[j] = 0;
    uint32_t alive = 1;
    for (int k = 0; k < num_dims && alive != 0; ++k) {
      const uint32_t* col = block.column(k) + base;
      const uint32_t r = probe[k];
      alive = 0;
      for (size_t j = 0; j < m; ++j) {
        ge[j] &= static_cast<uint32_t>(r <= col[j]);
        gt[j] |= static_cast<uint32_t>(r < col[j]);
        alive |= ge[j];
      }
      // Dead tile: no row can be dominated once every ge flag dropped.
    }
    for (size_t j = 0; j < m; ++j) {
      dominated[base + j] = static_cast<uint8_t>(ge[j] & gt[j]);
    }
  }
}

void RankedWindow::EvictDominatedBy(ObjectId target) {
  if (ids_.empty()) return;
  block_.GatherProbe(target, probe_.data());
  dominated_.assign(ids_.size(), 0);
  BlockDominatedFlags(block_, probe_.data(), dominated_.data());
  size_t keep = 0;
  for (size_t j = 0; j < ids_.size(); ++j) {
    if (dominated_[j] == 0) ids_[keep++] = ids_[j];
  }
  if (keep == ids_.size()) return;
  block_.CompactWhereZero(dominated_.data());
  ids_.resize(keep);
}

}  // namespace skycube
