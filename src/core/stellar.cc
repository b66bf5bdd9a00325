#include "core/stellar.h"

#include <vector>

#include "common/timer.h"
#include "core/nonseed_extension.h"
#include "core/seed_lattice.h"
#include "dataset/duplicate_binding.h"
#include "skyline/algorithms.h"

namespace skycube {

SkylineGroupSet ComputeStellar(const Dataset& data,
                               const StellarOptions& /*options*/,
                               StellarStats* stats) {
  StellarStats local_stats;
  local_stats.num_objects = data.num_objects();
  WallTimer total_timer;
  WallTimer phase_timer;

  // Paper §5 preprocessing: bind identical objects together.
  const DuplicateBinding binding = BindDuplicates(data);
  const Dataset& working = binding.distinct;
  local_stats.num_distinct_objects = working.num_objects();

  // Step 1: full-space skyline — the seed objects F(S).
  phase_timer.Reset();
  const std::vector<ObjectId> seeds =
      ComputeSkyline(working, working.full_mask());
  local_stats.num_seeds = seeds.size();
  local_stats.seconds_full_skyline = phase_timer.ElapsedSeconds();

  // Byproduct: the seeds, gathered for the per-root matrix rows.
  phase_timer.Reset();
  const SeedRows rows(working, seeds);
  local_stats.seconds_matrices = phase_timer.ElapsedSeconds();

  // Steps 2–4: seed skyline groups and their decisive subspaces.
  phase_timer.Reset();
  SeedLatticeStats lattice_stats;
  const std::vector<SeedSkylineGroup> seed_groups =
      BuildSeedSkylineGroups(rows, &lattice_stats);
  local_stats.num_maximal_cgroups = lattice_stats.num_maximal_cgroups;
  local_stats.num_seed_skyline_groups = lattice_stats.num_seed_skyline_groups;
  local_stats.seconds_seed_groups = phase_timer.ElapsedSeconds();

  // Step 5: accommodate non-seed objects.
  phase_timer.Reset();
  SkylineGroupSet groups = ExtendWithNonSeeds(working, seeds, seed_groups);
  local_stats.seconds_nonseed = phase_timer.ElapsedSeconds();

  // Remap distinct-row member ids back to original object ids.
  for (SkylineGroup& group : groups) {
    group.members = binding.Expand(group.members);
  }
  NormalizeGroups(&groups);
  local_stats.num_groups = groups.size();
  local_stats.seconds_total = total_timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return groups;
}

}  // namespace skycube
