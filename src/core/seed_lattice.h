// Seed skyline groups (Definition 3): the skyline groups computed over the
// full-space skyline objects F(S) only. Stellar first builds these — the
// "seed lattice", a quotient of the full skyline-group lattice (Theorem 2) —
// then extends them with non-seed objects (core/nonseed_extension.h).
#ifndef SKYCUBE_CORE_SEED_LATTICE_H_
#define SKYCUBE_CORE_SEED_LATTICE_H_

#include <cstdint>
#include <vector>

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// The seed objects F(S), gathered once into a column-major block of
/// doubles. Stellar reads the dominance and coincidence matrices of the
/// paper's §5.1 (Figure 4) one row at a time: a root's maximal c-groups
/// come from co(root, ·) alone (core/cgroup_miner.h), and every Corollary 1
/// edge scan is dom(root, ·) of the root that emitted the group. So rows
/// are computed on demand and no |F(S)|² matrix is ever stored. Seeds are
/// addressed by *seed index* (position in the seed list, not raw ObjectId).
class SeedRows {
 public:
  /// Gathers the rows of `seeds` (ids into `data`) on every dimension.
  SeedRows(const Dataset& data, const std::vector<ObjectId>& seeds);

  size_t size() const { return num_seeds_; }
  DimMask universe() const { return FullMask(num_dims_); }

  /// Row `root` of both matrices, in one branch-free sweep over the
  /// columns. Resizes `co` and `dom` to size(); for every seed j, co[j]
  /// holds the dimensions where seeds `root` and j have equal values and
  /// dom[j] those where seed `root`'s value is strictly smaller. So
  /// co[root] = universe() and dom[root] = ∅.
  void Fill(uint32_t root, std::vector<DimMask>* co,
            std::vector<DimMask>* dom) const;

 private:
  int num_dims_;
  size_t num_seeds_;
  std::vector<double> values_;  // values_[dim * num_seeds_ + seed]
};

/// A seed skyline group (G, B) with decisive subspaces relative to F(S).
struct SeedSkylineGroup {
  /// Ascending indices into the seed list.
  std::vector<uint32_t> seed_indices;
  /// Maximal subspace B of the group.
  DimMask max_subspace = 0;
  /// Decisive subspaces w.r.t. F(S): the minimal transversals of the
  /// dominance edges below; by convention, if the group faces no other seed
  /// at all (|F(S)| = |G|), every single dimension of B is decisive.
  std::vector<DimMask> decisive;
  /// The reduced (minimal, deduplicated) dominance edges
  /// {dom(o, w) ∩ B : w ∈ F(S) − G}, cached for the non-seed extension:
  /// restricting these to a sub-mask m ⊆ B yields exactly the seed-side
  /// constraints of any derived group with maximal subspace m.
  std::vector<DimMask> reduced_edges;
};

/// Statistics from seed-lattice construction.
struct SeedLatticeStats {
  uint64_t num_maximal_cgroups = 0;       // before the decisive filter
  uint64_t num_seed_skyline_groups = 0;   // after it
};

/// Computes all seed skyline groups in one pass over the roots: for each
/// seed it fills that root's two rows, mines from the coincidence row the
/// maximal c-groups (the groups of Figure 6) whose smallest member is the
/// root, as the closure of the row's masks under intersection, derives each
/// emitted group's decisive subspaces from the dominance row via minimal
/// transversals (Corollary 1) of the group's distinct edges (one per other
/// seed, but at most 2^d − 1 of them differ), and drops maximal c-groups
/// with no non-empty decisive subspace — those are not skyline groups
/// (paper's Algorithm Stellar, step 4). Groups come out in root order.
std::vector<SeedSkylineGroup> BuildSeedSkylineGroups(
    const SeedRows& rows, SeedLatticeStats* stats = nullptr);

/// Decisive subspaces for one group given its dominance edges within `b`:
/// minimal transversals, with the empty-transversal convention mapped to
/// "every single dimension of b" (no opposing object ⇒ any one dimension
/// qualifies the group exclusively, and subspaces must be non-empty).
std::vector<DimMask> DecisiveFromEdges(std::vector<DimMask> edges, DimMask b);

}  // namespace skycube

#endif  // SKYCUBE_CORE_SEED_LATTICE_H_
