// The library's single-space skyline: sort-filter-skyline (SFS, Chomicki,
// Godfrey, Gryz, Liang, ICDE'03), reading the dataset's doubles directly.
// Stellar's step 1, maintenance, Skyey, the skycube traversal and the
// router's merge all run it.
//
// Semantics with duplicates/ties: an object is in the skyline of B iff no
// other object *dominates* it in B; objects whose B-projections are equal do
// not dominate each other, so every object sharing an undominated projection
// is returned.
#ifndef SKYCUBE_SKYLINE_ALGORITHMS_H_
#define SKYCUBE_SKYLINE_ALGORITHMS_H_

#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// Computes the skyline of `subspace` over all objects of `data`. Returns
/// ascending object ids. `subspace` must be non-empty and within
/// data.full_mask().
std::vector<ObjectId> ComputeSkyline(const Dataset& data, DimMask subspace);

/// As above but restricted to `candidates` (need not be sorted; duplicates
/// not allowed). Only objects from `candidates` are compared and returned —
/// the skyline *of the candidate subset*.
std::vector<ObjectId> ComputeSkylineAmong(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& candidates);

}  // namespace skycube

#endif  // SKYCUBE_SKYLINE_ALGORITHMS_H_
