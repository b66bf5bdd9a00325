// Accommodating non-seed objects (paper §5.3, Theorem 5): extends the seed
// skyline groups to the complete set of skyline groups over S, without ever
// searching subspaces.
//
// For a seed skyline group (G', B') with decisive subspaces {C'_i} and a
// non-seed object o, define the *share mask* s_o = {Dim ∈ B' : o_Dim =
// G'_Dim}. The facts this module relies on (proof sketches inline in the
// .cc, all derivable from Theorems 1–5):
//
//  F1. Every skyline group (G, B) on S has seed part G ∩ F(S) equal to some
//      seed skyline group (G', B') with B ⊆ B', and B contains one of its
//      decisive subspaces C'_i.
//  F2. No seed outside G' coincides with G' on any C'_i (decisiveness), so
//      derived groups never acquire new seed members.
//  F3. A non-seed o can belong to a derived group, or constrain its
//      decisive subspaces, only if s_o ⊇ C'_i for some i ("relevant"
//      non-seeds): for any candidate subspace C ⊇ C'_i, an irrelevant
//      non-seed is automatically beaten strictly on some dimension of C.
//  F4. The derived groups are exactly (G' ∪ T(m), m) for each
//      intersection-closed mask m = B' ∩ ⋂_{o ∈ T(m)} s_o that contains
//      some C'_i, where T(m) = {relevant o : s_o ⊇ m}; their decisive
//      subspaces are the minimal transversals of the seed edges restricted
//      to m plus the edges {Dim ∈ m : G_Dim < o_Dim} of relevant non-seeds
//      outside the group.
#ifndef SKYCUBE_CORE_NONSEED_EXTENSION_H_
#define SKYCUBE_CORE_NONSEED_EXTENSION_H_

#include <vector>

#include "core/seed_lattice.h"
#include "core/skyline_group.h"
#include "dataset/dataset.h"

namespace skycube {

/// Statistics of the extension step.
struct NonSeedExtensionStats {
  uint64_t relevant_pairs = 0;  // Σ per-group relevant non-seeds
  uint64_t derived_groups = 0;  // groups with mask ⊂ B' or extra members
};

/// Extends `seed_groups` (over the seeds listed in `seeds`, which must be
/// F(S) of `data`) to the complete SkylineGroupSet over all objects of
/// `data`. Object ids in the result refer to `data` rows; projections are
/// filled in. Non-seed lookup uses a per-dimension value index, built once.
/// Groups come out in seed-group order.
SkylineGroupSet ExtendWithNonSeeds(
    const Dataset& data, const std::vector<ObjectId>& seeds,
    const std::vector<SeedSkylineGroup>& seed_groups,
    NonSeedExtensionStats* stats = nullptr);

}  // namespace skycube

#endif  // SKYCUBE_CORE_NONSEED_EXTENSION_H_
