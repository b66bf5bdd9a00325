// Maximal coincident-group enumeration over the seed objects — the paper's
// Figure 6 algorithm.
//
// A maximal c-group (G, B) over the seed set satisfies: all members share
// identical values on every dimension of B; no dimension outside B is shared
// by all members (dimension-maximality); and no object outside G matches the
// shared projection on B (object-maximality). Singletons are maximal
// c-groups with B = the full space.
//
// The search walks a set-enumeration tree (Rymon, KR'92) rooted at each
// object, in the style of closed frequent-itemset miners (CLOSET, CHARM):
// each node carries (G, B); a closure step absorbs every object whose
// coincidence mask with the branch root contains B; if the closure would
// absorb an object outside the node's candidate pool (i.e. one ordered
// before the branch), the node's group is found elsewhere and the branch is
// pruned. Children extend G by one later object, intersecting B with its
// coincidence mask. Each maximal c-group is emitted exactly once, in the
// branch of its smallest member. A branch reads only its root's row of the
// coincidence matrix.
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

/// Runs the branch of seed `root` and appends, in search order, every
/// maximal c-group whose smallest member is `root` to `out`.
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
