#include "core/skyey.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/timer.h"
#include "skycube/skycube.h"

namespace skycube {

namespace {

// Groups the skyline objects of one subspace by exact projection. The
// returned member vectors are ascending (ids arrive ascending).
std::vector<std::vector<ObjectId>> TieClasses(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& skyline) {
  std::unordered_map<std::vector<double>, size_t, VectorDoubleHash> buckets;
  buckets.reserve(skyline.size());
  std::vector<std::vector<ObjectId>> classes;
  for (ObjectId id : skyline) {
    auto [it, inserted] =
        buckets.emplace(data.Projection(id, subspace), classes.size());
    if (inserted) classes.emplace_back();
    classes[it->second].push_back(id);
  }
  return classes;
}

}  // namespace

SkylineGroupSet ComputeSkyey(const Dataset& data, const SkyeyOptions& options,
                             SkyeyStats* stats) {
  SkyeyStats local_stats;
  local_stats.num_objects = data.num_objects();
  WallTimer timer;

  // Phase 1: search every subspace with SFS; record, per group (= tie class
  // of a subspace skyline), all qualifying subspaces.
  std::unordered_map<std::vector<ObjectId>, std::vector<DimMask>, VectorU32Hash>
      qualifying;
  SkycubeOptions cube_options;
  cube_options.share_parent_candidates = options.share_parent_candidates;
  cube_options.num_threads = options.num_threads;
  SkycubeStats cube_stats;
  ForEachSubspaceSkyline(
      data, cube_options,
      [&](DimMask subspace, const std::vector<ObjectId>& skyline) {
        for (std::vector<ObjectId>& members :
             TieClasses(data, subspace, skyline)) {
          qualifying[std::move(members)].push_back(subspace);
        }
      },
      &cube_stats);
  local_stats.subspaces_searched = cube_stats.subspaces_visited;
  local_stats.total_subspace_skyline_objects = cube_stats.total_skyline_objects;

  // Phase 2: assemble groups. The maximal subspace is the group's shared
  // mask (always qualifies — see header); decisives are the minimal
  // qualifying subspaces.
  SkylineGroupSet groups;
  groups.reserve(qualifying.size());
  for (auto& [members, subspaces] : qualifying) {
    SkylineGroup group;
    group.members = members;
    DimMask shared = data.full_mask();
    for (ObjectId member : members) {
      shared &= data.CoincidenceMask(members.front(), member, shared);
    }
    group.max_subspace = shared;
    group.decisive_subspaces = MinimalMasks(subspaces);
    group.projection = data.Projection(members.front(), shared);
    groups.push_back(std::move(group));
  }
  NormalizeGroups(&groups);
  local_stats.num_groups = groups.size();
  local_stats.seconds_total = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return groups;
}

}  // namespace skycube
