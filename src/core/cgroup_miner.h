// Maximal coincident-group enumeration over the seed objects (Stellar
// step 2).
//
// A maximal c-group (G, B) over the seed set satisfies: all members share
// identical values on every dimension of B; no dimension outside B is shared
// by all members (dimension-maximality); and no object outside G matches the
// shared projection on B (object-maximality). Singletons are maximal
// c-groups with B = the full space.
//
// The paper finds these groups with the set-enumeration search of its
// Figure 6, which grows object sets. MineBranch finds the same groups by a
// different enumeration, over shared masks. Write co(r, o) for the
// dimensions where seeds r and o have equal values. The maximal c-groups
// that contain r match one-to-one the masks B that are the full space or a
// non-empty intersection of r's coincidence masks {co(r, o) : o ≠ r}; the
// group of B is G_B = {r} ∪ {o : co(r, o) ⊇ B}.
//   - G_B is a maximal c-group with shared mask exactly B: every member
//     agrees with r on B, the objects whose masks intersect to B are
//     members, so no dimension outside B is shared, and no object outside
//     G_B agrees with r on all of B.
//   - Every maximal c-group (G, B) with r ∈ G has B = ∩_{o ∈ G} co(r, o),
//     and object-maximality gives G = G_B.
// These masks are the agree sets of Nedjar et al. ("Treillis des concepts
// skylines", arXiv 1010.4850) seen from r. Each group is emitted once, in
// the branch of its smallest member: r keeps G_B iff no member precedes r.
//
// A root's row holds few distinct masks, so MineBranch buckets the row by
// mask, closes the distinct masks under intersection and lists each group
// from the buckets whose mask contains B. Its work per root is the number
// of closed masks (the groups that contain r) times the number of distinct
// masks, plus the output.
#ifndef SKYCUBE_CORE_CGROUP_MINER_H_
#define SKYCUBE_CORE_CGROUP_MINER_H_

#include <cstdint>
#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// A maximal c-group over the seed list. Indices are positions in the seed
/// list (not raw ObjectIds).
struct MaximalCGroup {
  std::vector<uint32_t> member_indices;  // ascending
  DimMask subspace = 0;                  // exact shared mask B
};

/// Appends to `out` every maximal c-group whose smallest member is seed
/// `root`, in no particular order.
/// `coincidence` is row `root` of the coincidence matrix over all seeds
/// (coincidence[j] = co(root, j), see SeedRows::Fill) and `universe` the
/// full space. Seeds are assumed pairwise distinct in the full space;
/// duplicates are still handled (bound objects appear together in every
/// group). Over all roots, every maximal c-group is emitted exactly once.
void MineBranch(uint32_t root, const std::vector<DimMask>& coincidence,
                DimMask universe, std::vector<MaximalCGroup>* out);

/// Reference implementation by direct closure of every subset's shared
/// mask, built on Dataset::CoincidenceMask over `seeds` (ids into `data`)
/// so that it shares no code with the row pass; exponential, used only by
/// tests to validate the miner.
std::vector<MaximalCGroup> MineMaximalCGroupsBruteForce(
    const Dataset& data, const std::vector<ObjectId>& seeds);

}  // namespace skycube

#endif  // SKYCUBE_CORE_CGROUP_MINER_H_
