// The "Index" skyline method of Tan, Eng, Ooi ("Efficient progressive
// skyline computation", VLDB 2001) — the second of the two algorithms in
// the paper's reference [12].
//
// Objects are processed in ascending order of their minimum coordinate
// minC(p) = min_{Dim ∈ B} p.Dim. Two facts drive the algorithm:
//   1. a dominator always has minC(q) ≤ minC(p) (min is monotone), so a
//      BNL window over this order rarely evicts;
//   2. once some window object q has max coordinate maxC(q) strictly below
//      the smallest remaining minC, every remaining object is strictly
//      dominated by q — the scan stops early.
// The original partitions objects into d sorted lists to emit progressive
// results; a single merged sort performs the identical comparisons, so we
// use that (the library returns complete skylines, not streams).
#include <algorithm>
#include <limits>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {

namespace {

double MinCoordinate(const double* row, DimMask subspace) {
  double best = row[LowestDim(subspace)];
  ForEachDim(subspace, [&](int dim) { best = std::min(best, row[dim]); });
  return best;
}

double MaxCoordinate(const double* row, DimMask subspace) {
  double best = row[LowestDim(subspace)];
  ForEachDim(subspace, [&](int dim) { best = std::max(best, row[dim]); });
  return best;
}

}  // namespace

std::vector<ObjectId> SkylineIndex(const Dataset& data, DimMask subspace,
                                   const std::vector<ObjectId>& candidates) {
  struct Entry {
    double min_coord;
    ObjectId id;
  };
  std::vector<Entry> order;
  order.reserve(candidates.size());
  for (ObjectId id : candidates) {
    order.push_back({MinCoordinate(data.Row(id), subspace), id});
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    if (a.min_coord != b.min_coord) return a.min_coord < b.min_coord;
    return a.id < b.id;
  });

  std::vector<ObjectId> window;
  double best_window_max = std::numeric_limits<double>::infinity();
  for (const Entry& entry : order) {
    // Early termination: a window object fits entirely below every
    // remaining object's smallest coordinate → it strictly dominates them.
    if (best_window_max < entry.min_coord) break;
    const double* row = data.Row(entry.id);
    bool dominated = false;
    size_t keep = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      const DomOrder cmp = CompareRows(data.Row(window[i]), row, subspace);
      if (cmp == DomOrder::kFirstDominates) {
        dominated = true;
        for (size_t j = i; j < window.size(); ++j) window[keep++] = window[j];
        break;
      }
      if (cmp != DomOrder::kSecondDominates) window[keep++] = window[i];
    }
    window.resize(keep);
    if (!dominated) {
      window.push_back(entry.id);
      best_window_max =
          std::min(best_window_max, MaxCoordinate(row, subspace));
    }
    // Evictions cannot invalidate best_window_max: an evicted object was
    // dominated by the incoming one, whose max coordinate is ≤ the
    // evictee's on... (not necessarily ≤ its max — recompute lazily would
    // be needed for exactness; we keep the historical minimum, which stays
    // a valid bound because the object that achieved it is only evicted by
    // a dominator with coordinate-wise smaller values, hence smaller max.)
  }
  std::sort(window.begin(), window.end());
  return window;
}

}  // namespace skycube
