// Full skycube computation: the skyline of every non-empty subspace.
//
// This is the substrate behind the Skyey baseline and the "number of
// subspace skyline objects" metric of the paper's Figures 9 and 10 (that
// count is the SkyCube size of Yuan et al., VLDB'05).
//
// Traversal is top-down, level by level, with *candidate sharing*: for a
// subspace B obtained by removing one dimension from B', the skyline of B
// equals the skyline computed among the candidates
//
//     Cand(B) = { o ∈ S : o_B = u_B for some u ∈ Sky(B') }.
//
// Proof sketch (ties make Sky(B) ⊄ Sky(B')): let u ∈ Sky(B) and let T be
// the set of objects sharing u's projection on B. Pick v ∈ T undominated
// within T in B'; if some w dominated v in B' then restricted to B either w
// dominates u in B (contradiction) or w ∈ T (contradiction with choice of
// v); hence v ∈ Sky(B') and u ∈ Cand(B). Every candidate set between
// Sky(B) and S yields the exact skyline, so the expansion may even include
// hash-collision false positives safely.
#ifndef SKYCUBE_SKYCUBE_SKYCUBE_H_
#define SKYCUBE_SKYCUBE_SKYCUBE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"

namespace skycube {

/// Options for skycube computation.
struct SkycubeOptions {
  /// Reuse the parent subspace's skyline (plus projection ties) as the
  /// candidate set — the "shared sorted lists" device of Skyey. Turning it
  /// off recomputes every subspace from the full object set (ablation).
  bool share_parent_candidates = true;
};

/// Statistics of a skycube computation.
struct SkycubeStats {
  /// Number of subspaces whose skyline was computed (2^d − 1).
  uint64_t subspaces_visited = 0;
  /// Σ over subspaces of |Sky(B)| — the paper's "number of subspace skyline
  /// objects".
  uint64_t total_skyline_objects = 0;
};

/// Streams the skyline of every non-empty subspace of `data`, top-down
/// (full space first, then all (d−1)-subspaces, ...), each computed with
/// SFS (ComputeSkyline, or ComputeSkylineAmong over the parent's
/// candidates). `visit` receives the subspace mask and its ascending
/// skyline ids in traversal order, within a level in ascending Gosper
/// order of the masks. Memory holds at most two lattice levels of
/// skylines at a time.
void ForEachSubspaceSkyline(
    const Dataset& data, const SkycubeOptions& options,
    const std::function<void(DimMask, const std::vector<ObjectId>&)>& visit,
    SkycubeStats* stats = nullptr);

/// A fully materialized skycube: every subspace's skyline, queryable by
/// mask. Memory is Θ(Σ|Sky(B)|); prefer ForEachSubspaceSkyline for counts.
class Skycube {
 public:
  /// Computes the skycube of `data`.
  static Skycube Compute(const Dataset& data,
                         const SkycubeOptions& options = {});

  /// Skyline of `subspace` (must be non-empty and within the full mask).
  const std::vector<ObjectId>& skyline(DimMask subspace) const;

  /// Number of dimensions of the underlying dataset.
  int num_dims() const { return num_dims_; }

  /// Σ over subspaces of |Sky(B)|.
  uint64_t total_skyline_objects() const {
    return stats_.total_skyline_objects;
  }

  const SkycubeStats& stats() const { return stats_; }

 private:
  Skycube() = default;

  int num_dims_ = 0;
  SkycubeStats stats_;
  std::unordered_map<DimMask, std::vector<ObjectId>> skylines_;
};

/// Computes only the total subspace-skyline-object count (Fig. 9/10 metric)
/// without materializing the cube.
uint64_t CountSubspaceSkylineObjects(const Dataset& data,
                                     const SkycubeOptions& options = {});

}  // namespace skycube

#endif  // SKYCUBE_SKYCUBE_SKYCUBE_H_
