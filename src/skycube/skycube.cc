#include "skycube/skycube.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/macros.h"
#include "common/parallel.h"

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
  std::vector<DimMask> level_masks;
  std::vector<std::vector<ObjectId>> level_skylines;
  for (int level = d; level >= 1; --level) {
    // Enumerate the level's subspaces first (Gosper order = the sequential
    // visit order), then fan the skyline computations out: each node reads
    // only the immutable parent level and writes only its own slot, so the
    // parallel run is deterministic.
    level_masks.clear();
    DimMask mask = FullMask(level);  // lowest `level` bits
    for (;;) {
      level_masks.push_back(mask);
      if (mask == (full & ~FullMask(d - level))) break;  // highest k-subset
      mask = NextSamePopcount(mask);
      if (mask > full) break;
    }
    level_skylines.assign(level_masks.size(), {});
    ParallelChunks(
        level_masks.size(), options.num_threads,
        [&](int, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const DimMask node = level_masks[i];
            if (level == d || !options.share_parent_candidates) {
              level_skylines[i] = ComputeSkyline(data, node);
              continue;
            }
            // Any parent works; use the one adding the lowest missing dim.
            const DimMask missing = full & ~node;
            const DimMask parent = node | DimBit(LowestDim(missing));
            auto it = parent_level.find(parent);
            SKYCUBE_CHECK_MSG(it != parent_level.end(),
                              "parent level missing — traversal bug");
            level_skylines[i] = ComputeSkylineAmong(
                data, node, ExpandTies(data, node, it->second));
          }
        });
    for (size_t i = 0; i < level_masks.size(); ++i) {
      ++local_stats.subspaces_visited;
      local_stats.total_skyline_objects += level_skylines[i].size();
      visit(level_masks[i], level_skylines[i]);
      if (level > 1 && options.share_parent_candidates) {
        current_level.emplace(level_masks[i], std::move(level_skylines[i]));
      }
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
