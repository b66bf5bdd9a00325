#include "analysis/frequency.h"

#include <algorithm>

#include "core/interval_counting.h"

namespace skycube {

std::vector<uint64_t> SkylineFrequencies(const CompressedSkylineCube& cube) {
  std::vector<uint64_t> frequencies(cube.num_objects(), 0);
  for (ObjectId id = 0; id < cube.num_objects(); ++id) {
    frequencies[id] = cube.CountSubspacesWhereSkyline(id);
  }
  return frequencies;
}

std::vector<std::pair<ObjectId, uint64_t>> TopKFrequentSkylineObjects(
    const CompressedSkylineCube& cube, size_t k) {
  const std::vector<uint64_t> frequencies = SkylineFrequencies(cube);
  std::vector<std::pair<ObjectId, uint64_t>> ranked;
  for (ObjectId id = 0; id < frequencies.size(); ++id) {
    if (frequencies[id] > 0) ranked.push_back({id, frequencies[id]});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::vector<uint64_t> SkylineLevelHistogram(
    const CompressedSkylineCube& cube) {
  std::vector<uint64_t> histogram(cube.num_dims(), 0);
  for (size_t g = 0; g < cube.num_groups(); ++g) {
    const CompressedSkylineCube::GroupView group = cube.group(g);
    AccumulateCoveredByLevel(group.max_subspace, group.decisive_subspaces,
                             group.members.size(), &histogram);
  }
  return histogram;
}

}  // namespace skycube
