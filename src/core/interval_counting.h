// Counting subspaces covered by a union of intervals [C_i, B] in the
// subspace lattice — the arithmetic behind the Q3 queries (how many
// subspaces is a group/object in the skyline of) and the Figure 9/10
// "subspace skyline objects" metric derived from the compression.
//
// Two strategies, picked automatically:
//  - inclusion-exclusion over the decisive subspaces (2^k terms) when the
//    group has few decisives k;
//  - a subset-sum ("SOS") DP over the 2^|B| sub-lattice of B when k is
//    large but |B| is moderate (the NBA-like workloads produce groups with
//    dozens of decisives in ≤ 17 dimensions).
// Groups with both k > kMaxInclusionExclusion and |B| > kMaxSosDims would
// be genuinely #P-hard territory; none arise in this problem family, and
// the functions die loudly if one ever does.
#ifndef SKYCUBE_CORE_INTERVAL_COUNTING_H_
#define SKYCUBE_CORE_INTERVAL_COUNTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/subspace.h"

namespace skycube {

/// Strategy thresholds (exposed for tests).
inline constexpr size_t kMaxInclusionExclusion = 20;  // 2^20 terms
inline constexpr int kMaxSosDims = 22;                // 2^22-entry DP

/// |{A : C_i ⊆ A ⊆ b for some i}|. Every lower must be a non-empty subset
/// of `b`; `lowers` must be non-empty.
uint64_t CountCoveredSubspaces(DimMask b, std::span<const DimMask> lowers);

/// Adds `weight` × |{A covered, |A| = l}| to (*histogram)[l − 1] for every
/// level l. histogram->size() must be ≥ the dimensionality of the space.
void AccumulateCoveredByLevel(DimMask b, std::span<const DimMask> lowers,
                              uint64_t weight,
                              std::vector<uint64_t>* histogram);

}  // namespace skycube

#endif  // SKYCUBE_CORE_INTERVAL_COUNTING_H_
