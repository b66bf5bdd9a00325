// LESS — linear elimination sort for skyline (Godfrey, Shipley, Gryz,
// VLDB 2005). Two ideas on top of SFS: (1) during the initial pass an
// elimination-filter (EF) window of a few best-scoring objects discards
// clearly dominated records before the sort; (2) the final pass is SFS
// over the survivors. On average the sort then touches far fewer records
// than SFS.
#include <algorithm>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {

namespace {

constexpr size_t kEfWindowSize = 16;

struct Scored {
  double score;
  ObjectId id;
};

}  // namespace

std::vector<ObjectId> SkylineLess(const Dataset& data, DimMask subspace,
                                  const std::vector<ObjectId>& candidates) {
  // Pass 1: eliminate records dominated by the EF window. The EF window
  // retains the lowest-scoring objects seen so far (low score = likely
  // dominator).
  std::vector<Scored> ef;  // kept sorted by score ascending, small
  std::vector<ObjectId> survivors;
  survivors.reserve(candidates.size());
  for (ObjectId id : candidates) {
    const double* row = data.Row(id);
    const double score = SortScore(row, subspace);
    bool dominated = false;
    for (const Scored& entry : ef) {
      // A dominator never scores higher; one whose score ties by rounding
      // is skipped here and left to pass 2.
      if (entry.score >= score) break;
      if (RowDominates(data.Row(entry.id), row, subspace)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    survivors.push_back(id);
    // Update EF window: insert, keep the kEfWindowSize lowest scores.
    if (ef.size() < kEfWindowSize || score < ef.back().score) {
      auto pos = std::lower_bound(
          ef.begin(), ef.end(), score,
          [](const Scored& entry, double s) { return entry.score < s; });
      ef.insert(pos, {score, id});
      if (ef.size() > kEfWindowSize) ef.pop_back();
    }
  }

  // Pass 2: SFS over the survivors.
  return SkylineSfs(data, subspace, survivors);
}

}  // namespace skycube
