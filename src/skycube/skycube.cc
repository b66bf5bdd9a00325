#include "skycube/skycube.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/macros.h"

namespace skycube {

namespace {

// Hash of an object's projection on `subspace`. Collisions only add benign
// extra candidates (see header proof), so no exact verification is needed.
uint64_t ProjectionHash(const Dataset& data, ObjectId id, DimMask subspace) {
  uint64_t h = 0x5851F42D4C957F2DULL ^ subspace;
  const double* row = data.Row(id);
  ForEachDim(subspace,
             [&](int dim) { h = HashCombine(h, HashDouble(row[dim])); });
  return h;
}

// All objects whose projection on `subspace` hashes like some member of
// `parent_skyline`'s projection — a superset of Cand(B) from the header.
std::vector<ObjectId> ExpandTies(const Dataset& data, DimMask subspace,
                                 const std::vector<ObjectId>& parent_skyline) {
  std::unordered_set<uint64_t> hashes;
  hashes.reserve(parent_skyline.size() * 2);
  for (ObjectId id : parent_skyline) {
    hashes.insert(ProjectionHash(data, id, subspace));
  }
  std::vector<ObjectId> candidates;
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    if (hashes.count(ProjectionHash(data, id, subspace)) > 0) {
      candidates.push_back(id);
    }
  }
  return candidates;
}

// Gosper's hack: next integer with the same popcount.
DimMask NextSamePopcount(DimMask v) {
  const DimMask c = v & (~v + 1);
  const DimMask r = v + c;
  return (((r ^ v) >> 2) / c) | r;
}

}  // namespace

void ForEachSubspaceSkyline(
    const Dataset& data, const SkycubeOptions& options,
    const std::function<void(DimMask, const std::vector<ObjectId>&)>& visit,
    SkycubeStats* stats) {
  SKYCUBE_CHECK_MSG(data.num_objects() > 0, "empty dataset");
  const int d = data.num_dims();
  const DimMask full = data.full_mask();
  SkycubeStats local_stats;
  std::unordered_map<DimMask, std::vector<ObjectId>> parent_level;
  std::unordered_map<DimMask, std::vector<ObjectId>> current_level;
  for (int level = d; level >= 1; --level) {
    // The level's subspaces in Gosper order; each reads only the parent
    // level's skylines.
    DimMask node = FullMask(level);  // lowest `level` bits
    for (;;) {
      std::vector<ObjectId> skyline;
      if (level == d || !options.share_parent_candidates) {
        skyline = ComputeSkyline(data, node);
      } else {
        // Any parent works; use the one adding the lowest missing dim.
        const DimMask missing = full & ~node;
        const DimMask parent = node | DimBit(LowestDim(missing));
        auto it = parent_level.find(parent);
        SKYCUBE_CHECK_MSG(it != parent_level.end(),
                          "parent level missing — traversal bug");
        skyline = ComputeSkylineAmong(data, node,
                                      ExpandTies(data, node, it->second));
      }
      ++local_stats.subspaces_visited;
      local_stats.total_skyline_objects += skyline.size();
      visit(node, skyline);
      if (level > 1 && options.share_parent_candidates) {
        current_level.emplace(node, std::move(skyline));
      }
      if (node == (full & ~FullMask(d - level))) break;  // highest k-subset
      node = NextSamePopcount(node);
      if (node > full) break;
    }
    parent_level = std::move(current_level);
    current_level.clear();
  }
  if (stats != nullptr) *stats = local_stats;
}

Skycube Skycube::Compute(const Dataset& data, const SkycubeOptions& options) {
  Skycube cube;
  cube.num_dims_ = data.num_dims();
  ForEachSubspaceSkyline(
      data, options,
      [&](DimMask mask, const std::vector<ObjectId>& skyline) {
        cube.skylines_.emplace(mask, skyline);
      },
      &cube.stats_);
  return cube;
}

const std::vector<ObjectId>& Skycube::skyline(DimMask subspace) const {
  auto it = skylines_.find(subspace);
  SKYCUBE_CHECK_MSG(it != skylines_.end(),
                    "subspace not in the cube (empty or out of range?)");
  return it->second;
}

uint64_t CountSubspaceSkylineObjects(const Dataset& data,
                                     const SkycubeOptions& options) {
  SkycubeStats stats;
  ForEachSubspaceSkyline(
      data, options, [](DimMask, const std::vector<ObjectId>&) {}, &stats);
  return stats.total_skyline_objects;
}

}  // namespace skycube
