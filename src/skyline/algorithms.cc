#include "skyline/algorithms.h"

#include <numeric>
#include <vector>

#include "common/macros.h"

namespace skycube {

const char* SkylineAlgorithmName(SkylineAlgorithm algorithm) {
  switch (algorithm) {
    case SkylineAlgorithm::kBlockNestedLoops:
      return "BNL";
    case SkylineAlgorithm::kSortFilterSkyline:
      return "SFS";
    case SkylineAlgorithm::kDivideAndConquer:
      return "DC";
    case SkylineAlgorithm::kLess:
      return "LESS";
    case SkylineAlgorithm::kIndex:
      return "Index";
    case SkylineAlgorithm::kBitmap:
      return "Bitmap";
    case SkylineAlgorithm::kBbs:
      return "BBS";
  }
  return "unknown";
}

std::vector<ObjectId> ComputeSkyline(const Dataset& data, DimMask subspace,
                                     SkylineAlgorithm algorithm) {
  std::vector<ObjectId> all(data.num_objects());
  std::iota(all.begin(), all.end(), 0);
  return ComputeSkylineAmong(data, subspace, all, algorithm);
}

std::vector<ObjectId> ComputeSkylineAmong(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& candidates, SkylineAlgorithm algorithm) {
  SKYCUBE_CHECK_MSG(subspace != 0, "subspace must be non-empty");
  SKYCUBE_CHECK_MSG(IsSubsetOf(subspace, data.full_mask()),
                    "subspace outside the dataset's dimension space");
  switch (algorithm) {
    case SkylineAlgorithm::kBlockNestedLoops:
      return SkylineBnl(data, subspace, candidates);
    case SkylineAlgorithm::kSortFilterSkyline:
      return SkylineSfs(data, subspace, candidates);
    case SkylineAlgorithm::kDivideAndConquer:
      return SkylineDivideAndConquer(data, subspace, candidates);
    case SkylineAlgorithm::kLess:
      return SkylineLess(data, subspace, candidates);
    case SkylineAlgorithm::kIndex:
      return SkylineIndex(data, subspace, candidates);
    case SkylineAlgorithm::kBitmap:
      return SkylineBitmap(data, subspace, candidates);
    case SkylineAlgorithm::kBbs:
      return SkylineBbs(data, subspace, candidates);
  }
  SKYCUBE_CHECK(false);
  return {};
}

}  // namespace skycube
