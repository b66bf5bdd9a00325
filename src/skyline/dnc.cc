// Divide-and-conquer skyline (Börzsönyi, Kossmann, Stocker, ICDE 2001).
// Splits the candidate set at the median of one dimension, solves both
// halves recursively, and filters the high half against the low half's
// skyline: a high-side object (value ≥ median) can never dominate a
// low-side object (value < median) on the split dimension, so the low
// skyline survives unconditionally.
#include <algorithm>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {

namespace {

constexpr size_t kDncBaseCase = 48;

std::vector<ObjectId> DncRecurse(const Dataset& data, DimMask subspace,
                                 std::vector<ObjectId> ids) {
  if (ids.size() <= kDncBaseCase) {
    return SkylineBnl(data, subspace, ids);
  }
  // Find a dimension that actually separates the set; a dimension where all
  // values are equal cannot split.
  int split_dim = -1;
  double median = 0;
  ForEachDim(subspace, [&](int dim) {
    if (split_dim != -1) return;
    std::vector<double> values;
    values.reserve(ids.size());
    for (ObjectId id : ids) values.push_back(data.Value(id, dim));
    auto mid = values.begin() + values.size() / 2;
    std::nth_element(values.begin(), mid, values.end());
    const double candidate_median = *mid;
    // A valid split needs at least one value strictly below the median.
    for (double v : values) {
      if (v < candidate_median) {
        split_dim = dim;
        median = candidate_median;
        break;
      }
    }
  });
  if (split_dim == -1) {
    // Every object has the identical projection: all are skyline.
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  std::vector<ObjectId> low;
  std::vector<ObjectId> high;
  for (ObjectId id : ids) {
    (data.Value(id, split_dim) < median ? low : high).push_back(id);
  }
  std::vector<ObjectId> low_skyline =
      DncRecurse(data, subspace, std::move(low));
  std::vector<ObjectId> high_skyline =
      DncRecurse(data, subspace, std::move(high));
  // Merge: low skyline survives; high skyline entries survive unless some
  // low-skyline object dominates them.
  std::vector<ObjectId> merged = low_skyline;
  for (ObjectId candidate : high_skyline) {
    const double* row = data.Row(candidate);
    bool dominated = false;
    for (ObjectId low_id : low_skyline) {
      if (RowDominates(data.Row(low_id), row, subspace)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) merged.push_back(candidate);
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

}  // namespace

std::vector<ObjectId> SkylineDivideAndConquer(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& candidates) {
  return DncRecurse(data, subspace, candidates);
}

}  // namespace skycube
