// Single-subspace skyline algorithms from the related work the paper builds
// on: block-nested-loops (BNL) and divide-and-conquer (Börzsönyi et al.,
// ICDE'01), sort-first-skyline (SFS, Chomicki et al., ICDE'03), LESS
// (Godfrey et al., VLDB'05), Tan et al.'s Index and Bitmap methods
// (VLDB'01) and BBS (Papadias et al., SIGMOD'03). All read the dataset's
// doubles directly and compute the identical set of skyline object ids;
// they differ only in cost profile. SFS is the default and the only one
// the library itself runs (Stellar's step 1, maintenance, Skyey, the
// skycube traversal and the router's merge); the others are kept for the
// algorithm tests and bench_skyline_algos.
//
// Semantics with duplicates/ties: an object is in the skyline of B iff no
// other object *dominates* it in B; objects whose B-projections are equal do
// not dominate each other, so every object sharing an undominated projection
// is returned.
#ifndef SKYCUBE_SKYLINE_ALGORITHMS_H_
#define SKYCUBE_SKYLINE_ALGORITHMS_H_

#include <string>
#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// Algorithm selector.
enum class SkylineAlgorithm {
  kBlockNestedLoops,
  kSortFilterSkyline,
  kDivideAndConquer,
  kLess,
  /// Tan/Eng/Ooi's sorted-index method with early termination: objects in
  /// ascending minimum-coordinate order, stop once a window object's
  /// maximum coordinate undercuts the smallest remaining minimum.
  kIndex,
  /// Tan/Eng/Ooi's bitmap method: per-dimension rank bit-slices; dominance
  /// tests become word-parallel AND/OR. Memory is Θ(Σ_dim distinct ×
  /// objects) bits — intended for low-cardinality data; dies beyond 1 GiB.
  kBitmap,
  /// Papadias et al.'s branch-and-bound skyline over an STR-bulk-loaded
  /// R-tree, searched best-first by corner mindist.
  kBbs,
};

/// General-purpose algorithms, safe at any scale (parameterized tests and
/// the substrate benches iterate these).
inline constexpr SkylineAlgorithm kAllSkylineAlgorithms[] = {
    SkylineAlgorithm::kBlockNestedLoops,
    SkylineAlgorithm::kSortFilterSkyline,
    SkylineAlgorithm::kDivideAndConquer,
    SkylineAlgorithm::kLess,
    SkylineAlgorithm::kIndex,
    SkylineAlgorithm::kBbs,
};

/// Every algorithm including the memory-hungry bitmap; for small inputs.
inline constexpr SkylineAlgorithm kAllSkylineAlgorithmsWithBitmap[] = {
    SkylineAlgorithm::kBlockNestedLoops,
    SkylineAlgorithm::kSortFilterSkyline,
    SkylineAlgorithm::kDivideAndConquer,
    SkylineAlgorithm::kLess,
    SkylineAlgorithm::kIndex,
    SkylineAlgorithm::kBbs,
    SkylineAlgorithm::kBitmap,
};

/// Display name ("BNL", "SFS", "DC", "LESS", "Index", "Bitmap", "BBS").
const char* SkylineAlgorithmName(SkylineAlgorithm algorithm);

/// Computes the skyline of `subspace` over all objects of `data` with the
/// chosen algorithm. Returns ascending object ids. `subspace` must be
/// non-empty and within data.full_mask().
std::vector<ObjectId> ComputeSkyline(
    const Dataset& data, DimMask subspace,
    SkylineAlgorithm algorithm = SkylineAlgorithm::kSortFilterSkyline);

/// As above but restricted to `candidates` (need not be sorted; duplicates
/// not allowed). Only objects from `candidates` are compared and returned —
/// the skyline *of the candidate subset*.
std::vector<ObjectId> ComputeSkylineAmong(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& candidates,
    SkylineAlgorithm algorithm = SkylineAlgorithm::kSortFilterSkyline);

/// Individual algorithm entry points (candidate-restricted form). Exposed
/// for direct benchmarking; prefer ComputeSkyline in application code.
std::vector<ObjectId> SkylineBnl(const Dataset& data, DimMask subspace,
                                 const std::vector<ObjectId>& candidates);
std::vector<ObjectId> SkylineSfs(const Dataset& data, DimMask subspace,
                                 const std::vector<ObjectId>& candidates);
std::vector<ObjectId> SkylineDivideAndConquer(
    const Dataset& data, DimMask subspace,
    const std::vector<ObjectId>& candidates);
std::vector<ObjectId> SkylineLess(const Dataset& data, DimMask subspace,
                                  const std::vector<ObjectId>& candidates);
std::vector<ObjectId> SkylineIndex(const Dataset& data, DimMask subspace,
                                   const std::vector<ObjectId>& candidates);
std::vector<ObjectId> SkylineBitmap(const Dataset& data, DimMask subspace,
                                    const std::vector<ObjectId>& candidates);
std::vector<ObjectId> SkylineBbs(const Dataset& data, DimMask subspace,
                                 const std::vector<ObjectId>& candidates);

}  // namespace skycube

#endif  // SKYCUBE_SKYLINE_ALGORITHMS_H_
