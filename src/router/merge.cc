#include "router/merge.h"

#include <algorithm>

#include "skyline/algorithms.h"

namespace skycube::router {

std::vector<ObjectId> MergeSkylineCandidates(
    const RowStore& rows, DimMask subspace,
    std::vector<ObjectId> candidates) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.size() <= 1) return candidates;

  // Local id i is candidates[i]; ascending local ids therefore map to
  // ascending global ids.
  const int num_dims = rows.num_dims();
  Dataset local(num_dims);
  for (ObjectId gid : candidates) {
    const double* row = rows.Row(gid);
    local.AddRow(std::vector<double>(row, row + num_dims));
  }
  std::vector<ObjectId> merged = ComputeSkyline(local, subspace);
  for (ObjectId& id : merged) id = candidates[id];
  return merged;
}

}  // namespace skycube::router
