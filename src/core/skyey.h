// Algorithm Skyey — the baseline from [10] (Pei et al., VLDB'05) that the
// paper compares Stellar against. Skyey assembles a data-cube traversal
// with a sorting-based skyline algorithm (SFS, the kernel Stellar's step 1
// also runs): it searches *every* non-empty subspace for its skyline,
// sequentially and level by level (sharing sorted candidate lists between
// parent and child subspaces), groups the per-subspace skyline objects by
// their shared projections, and merges the per-subspace findings into
// skyline groups and decisive subspaces. Cost grows with the 2^d − 1
// subspaces — the behaviour the paper's Figures 8/11/12 measure.
//
// Assembly: in subspace B, each distinct skyline projection value v defines
// the complete tie class G = {o : o_B = v} (every such o is itself a
// skyline object). B then satisfies Definition 2's conditions (1)+(2) for
// G, so B "qualifies" for G. After visiting all subspaces, each group's
// maximal subspace is its largest qualifying subspace and its decisive
// subspaces are the minimal qualifying ones.
#ifndef SKYCUBE_CORE_SKYEY_H_
#define SKYCUBE_CORE_SKYEY_H_

#include <cstdint>

#include "core/skyline_group.h"
#include "dataset/dataset.h"

namespace skycube {

/// Tuning knobs for Skyey.
struct SkyeyOptions {
  /// Share the parent subspace's skyline (plus ties) as candidates — the
  /// paper's "sorted lists of objects are shared as much as possible".
  /// Disabling recomputes each subspace from scratch (ablation).
  bool share_parent_candidates = true;
};

/// Counters of one Skyey run.
struct SkyeyStats {
  uint64_t num_objects = 0;
  uint64_t subspaces_searched = 0;           // 2^d − 1
  uint64_t total_subspace_skyline_objects = 0;  // Σ |Sky(B)| (SkyCube size)
  uint64_t num_groups = 0;
  double seconds_total = 0;
};

/// Computes the compressed skyline cube by searching all subspaces.
/// Produces exactly the same normalized SkylineGroupSet as ComputeStellar.
SkylineGroupSet ComputeSkyey(const Dataset& data,
                             const SkyeyOptions& options = {},
                             SkyeyStats* stats = nullptr);

}  // namespace skycube

#endif  // SKYCUBE_CORE_SKYEY_H_
