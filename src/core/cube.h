// The compressed skyline cube as a queryable structure. The paper motivates
// three query classes over the materialized skyline groups (§1):
//
//  Q1: given any subspace, return its skyline;
//  Q2: given an object (or group), return where it is in the skyline;
//  Q3: multidimensional (OLAP-style) analysis over subspace skylines.
//
// All answers are derived purely from the groups and their signatures —
// the original data is never re-scanned. Soundness/completeness of the
// derivation (an object is in Sky(B) iff one of its groups has a decisive
// C ⊆ B ⊆ max_subspace) follows from Definitions 1–2; see the proof notes
// in tests/core/cube_test.cc.
//
// Layout: the groups sit in flat arrays in canonical order (NormalizeGroups'
// order), each list addressed through per-group offsets, and the object →
// groups map is in CSR form. For d ≤ 16 the groups are also indexed by
// decisive subspace (CSR over all 2^d masks), so a Q1 on S can visit only
// the buckets of the submasks of S instead of every group. Projections are
// not kept: no query reads them.
#ifndef SKYCUBE_CORE_CUBE_H_
#define SKYCUBE_CORE_CUBE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/deadline.h"
#include "core/skyline_group.h"
#include "dataset/dataset.h"

namespace skycube {

/// Immutable query interface over a computed SkylineGroupSet.
class CompressedSkylineCube {
 public:
  /// Lays out `groups` (normalized or not) in canonical order: members and
  /// decisive lists sorted, groups by members, then max subspace.
  /// `num_dims` is the dimensionality of the space the groups live in;
  /// `num_objects` the size of the object universe (ids < num_objects).
  CompressedSkylineCube(int num_dims, size_t num_objects,
                        const SkylineGroupSet& groups);

  int num_dims() const { return num_dims_; }
  size_t num_objects() const { return num_objects_; }
  size_t num_groups() const { return max_subspaces_.size(); }

  /// One group in canonical order, viewed in place (valid while the cube
  /// lives).
  struct GroupView {
    std::span<const ObjectId> members;
    DimMask max_subspace = 0;
    std::span<const DimMask> decisive_subspaces;
  };
  GroupView group(size_t index) const;

  /// A membership interval: the group's objects are in the skyline of every
  /// subspace A with lower ⊆ A ⊆ upper.
  struct SkylineInterval {
    DimMask lower = 0;
    DimMask upper = 0;
    size_t group_index = 0;
  };

  // ----- Q1 -----
  //
  // Q1 and the Q3 aggregates below accept an optional CancelToken, polled
  // per index bucket or per group: once it fires they return early with a
  // *partial* value. The caller must re-check the token and discard the
  // result — SkycubeService does, and maps it to kDeadlineExceeded.
  //
  // Q1 finds the covering groups through the decisive-subspace index when
  // d ≤ 16 and walking it visits no more buckets and entries (2^|S| plus
  // the entries of the buckets C ⊆ S) than a scan makes tests (one per
  // group, plus one per group whose maximal subspace contains S), and by
  // testing every group otherwise. A subspace with dimensions beyond
  // num_dims has an empty skyline.

  /// The skyline of `subspace` (ascending ids), derived from the groups.
  std::vector<ObjectId> SubspaceSkyline(
      DimMask subspace, const CancelToken* cancel = nullptr) const;

  /// Number of skyline objects in `subspace` (no id materialization).
  size_t SkylineCardinality(DimMask subspace,
                            const CancelToken* cancel = nullptr) const;

  /// Indices of the groups covering `subspace`, ascending (pairwise
  /// disjoint member sets whose union is the subspace skyline).
  std::vector<size_t> GroupsCoveringSubspace(DimMask subspace) const;

  // ----- Q2 -----

  /// True iff `object` is in the skyline of `subspace`.
  bool IsInSubspaceSkyline(ObjectId object, DimMask subspace) const;

  /// All membership intervals of `object` (one per (group, decisive) pair;
  /// intervals may overlap).
  std::vector<SkylineInterval> MembershipIntervals(ObjectId object) const;

  /// Explicitly enumerates every subspace where `object` is in the skyline,
  /// sorted by (size, value). Output can be exponential; dies if
  /// num_dims > 24.
  std::vector<DimMask> SubspacesWhereSkyline(ObjectId object) const;

  /// The group form of Q2: every subspace whose skyline contains ALL of
  /// `objects` (the paper's "given … a group of objects"). Sorted by
  /// (size, value); same num_dims ≤ 24 bound as SubspacesWhereSkyline.
  std::vector<DimMask> SubspacesWhereAllSkyline(
      const std::vector<ObjectId>& objects) const;

  // ----- Q3 -----

  /// Number of subspaces whose skyline contains `object` (inclusion-
  /// exclusion over the object's intervals; no enumeration).
  uint64_t CountSubspacesWhereSkyline(
      ObjectId object, const CancelToken* cancel = nullptr) const;

  /// Σ over all non-empty subspaces of |Sky(B)| — the SkyCube size of the
  /// paper's Figures 9/10 — computed from the compression alone.
  uint64_t TotalSubspaceSkylineObjects(
      const CancelToken* cancel = nullptr) const;

 private:
  /// Does group `g` cover `subspace` (∃ decisive C ⊆ B ⊆ max_subspace)?
  bool Covers(size_t g, DimMask subspace) const {
    if (!IsSubsetOf(subspace, max_subspaces_[g])) return false;
    for (DimMask decisive : Decisives(g)) {
      if (IsSubsetOf(decisive, subspace)) return true;
    }
    return false;
  }

  /// Calls `visit(g)` for each group covering `subspace`, in ascending
  /// order; stops early (a partial answer) once `cancel` fires.
  template <typename Visit>
  void ForEachCoveringGroup(DimMask subspace, const CancelToken* cancel,
                            Visit&& visit) const;

  std::span<const ObjectId> Members(size_t g) const {
    return {members_.data() + member_offsets_[g],
            members_.data() + member_offsets_[g + 1]};
  }
  std::span<const DimMask> Decisives(size_t g) const {
    return {decisives_.data() + decisive_offsets_[g],
            decisives_.data() + decisive_offsets_[g + 1]};
  }
  std::span<const uint32_t> GroupsOf(ObjectId object) const {
    return {object_groups_.data() + object_offsets_[object],
            object_groups_.data() + object_offsets_[object + 1]};
  }

  int num_dims_;
  size_t num_objects_;
  // Group g: members_[member_offsets_[g], member_offsets_[g + 1]),
  // max_subspaces_[g], decisives_[decisive_offsets_[g], ...[g + 1]).
  std::vector<uint32_t> member_offsets_;
  std::vector<ObjectId> members_;
  std::vector<DimMask> max_subspaces_;
  std::vector<uint32_t> decisive_offsets_;
  std::vector<DimMask> decisives_;
  // Object o's groups, ascending: object_groups_[object_offsets_[o], ...).
  std::vector<uint32_t> object_offsets_;
  std::vector<uint32_t> object_groups_;
  // The decisive-subspace index, empty when d > 16. The groups with
  // decisive subspace C, ascending:
  // bucket_groups_[bucket_offsets_[C], bucket_offsets_[C + 1]); and
  // walk_index_[S], whether Q1 on S walks the index rather than scanning.
  std::vector<uint32_t> bucket_offsets_;
  std::vector<uint32_t> bucket_groups_;
  std::vector<bool> walk_index_;
};

}  // namespace skycube

#endif  // SKYCUBE_CORE_CUBE_H_
