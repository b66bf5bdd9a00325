// Sort-filter-skyline (Chomicki, Godfrey, Gryz, Liang, ICDE 2003).
// Objects are presorted by a monotone score (here the coordinate sum over
// the subspace); after the sort no object can dominate one with a smaller
// score, so a single pass with a window that evicts only among equal
// scores suffices.
#include <algorithm>
#include <numeric>
#include <vector>

#include "common/macros.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {

std::vector<ObjectId> ComputeSkyline(const Dataset& data, DimMask subspace) {
  std::vector<ObjectId> all(data.num_objects());
  std::iota(all.begin(), all.end(), 0);
  return ComputeSkylineAmong(data, subspace, all);
}

std::vector<ObjectId> ComputeSkylineAmong(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& candidates) {
  SKYCUBE_CHECK_MSG(subspace != 0, "subspace must be non-empty");
  SKYCUBE_CHECK_MSG(IsSubsetOf(subspace, data.full_mask()),
                    "subspace outside the dataset's dimension space");
  struct Scored {
    double score;
    ObjectId id;
  };
  std::vector<Scored> order;
  order.reserve(candidates.size());
  for (ObjectId id : candidates) {
    order.push_back({SortScore(data.Row(id), subspace), id});
  }
  std::sort(order.begin(), order.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id < b.id;
  });

  // skyline[ties..] are the kept objects whose score equals the current
  // one. Rounding can give a dominator the same score as an object it
  // dominates and sort it later (SortScore), so within equal scores the
  // window compares both ways and evicts the kept objects a newcomer
  // dominates.
  std::vector<ObjectId> skyline;
  size_t ties = 0;
  double tie_score = 0;
  for (const Scored& entry : order) {
    if (skyline.empty() || entry.score != tie_score) {
      ties = skyline.size();
      tie_score = entry.score;
    }
    const double* row = data.Row(entry.id);
    bool dominated = false;
    for (size_t i = 0; i < ties && !dominated; ++i) {
      dominated = RowDominates(data.Row(skyline[i]), row, subspace);
    }
    if (dominated) continue;
    // Kept objects never dominate each other, so once `row` is dominated
    // it dominates none of them and nothing is evicted.
    size_t keep = ties;
    for (size_t i = ties; i < skyline.size(); ++i) {
      const DomOrder cmp = CompareRows(data.Row(skyline[i]), row, subspace);
      dominated |= cmp == DomOrder::kFirstDominates;
      if (cmp != DomOrder::kSecondDominates) skyline[keep++] = skyline[i];
    }
    skyline.resize(keep);
    if (!dominated) skyline.push_back(entry.id);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace skycube
