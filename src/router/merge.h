// Union-then-refilter skyline merge (docs/SHARDING.md).
//
// Per-shard subspace skylines compose: because strict dominance is
// transitive, every global skyline row is in its own shard's skyline, so
// the global skyline is exactly the skyline OF the union of per-shard
// skylines. The merge is therefore one skyline pass over the (small)
// candidate union — the multiskyline-join idiom of distributed skyline
// frameworks — run by the library's single-node kernel: the candidates are
// copied into a private Dataset, SFS computes its skyline, and the local
// ids map back to the global ones.
#ifndef SKYCUBE_ROUTER_MERGE_H_
#define SKYCUBE_ROUTER_MERGE_H_

#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"
#include "router/partition.h"

namespace skycube::router {

/// The skyline of `candidates` (global row ids, any order, duplicates
/// allowed) in `subspace`, as ascending global ids. Equal rows keep each
/// other: only strict dominance removes a candidate, matching single-node
/// skyline semantics exactly.
std::vector<ObjectId> MergeSkylineCandidates(
    const RowStore& rows, DimMask subspace, std::vector<ObjectId> candidates);

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_MERGE_H_
