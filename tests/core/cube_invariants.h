// Paper-level invariants of a compressed skyline cube, checked straight
// from the definitions rather than against a second engine. For every
// group (G, B) of the cube:
//  - the group is well formed (GroupWellFormed);
//  - the members share their projection on B, which the group stores, and
//    on no dimension outside B (dimension-maximality);
//  - the decisive list equals the minimal transversals of
//    {T_o : o ∉ G}, T_o = {D ∈ B : G_D < o_D} (Theorem 4), found by
//    enumerating the subsets of B. That checks minimality and
//    completeness, and also object-maximality and G_B ∈ Sky(B): an outside
//    object that ties or beats G on all of B has T_o = ∅, which no subspace
//    hits.
// And for the cube as a whole, Q1 completeness: the CompressedSkylineCube
// built from the groups answers SubspaceSkyline(S) and SkylineCardinality(S)
// as SFS does on the data, on every subspace when d ≤ 10 and on a seeded
// sample of 256 otherwise. That covers both sides of Q1's index-or-scan
// rule and shows that no group is missing.
#ifndef SKYCUBE_TESTS_CORE_CUBE_INVARIANTS_H_
#define SKYCUBE_TESTS_CORE_CUBE_INVARIANTS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/subspace.h"
#include "core/cube.h"
#include "core/skyline_group.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"

namespace skycube {

/// The minimal non-empty subsets of `b` that meet every T_o of the objects
/// of `data` outside `group`, sorted like a normalized decisive list.
inline std::vector<DimMask> EnumeratedDecisives(const Dataset& data,
                                                const SkylineGroup& group) {
  const std::vector<int> dims = MaskDims(group.max_subspace);
  const size_t k = dims.size();
  const uint32_t all = (uint32_t{1} << k) - 1;
  // misses[s] for s ⊆ B (bit t = dims[t]): some T_o is disjoint from s.
  std::vector<char> misses(size_t{1} << k, 0);
  const double* g = data.Row(group.members.front());
  size_t cursor = 0;
  for (ObjectId o = 0; o < data.num_objects(); ++o) {
    if (cursor < group.members.size() && group.members[cursor] == o) {
      ++cursor;
      continue;
    }
    const double* row = data.Row(o);
    uint32_t edge = 0;
    for (size_t t = 0; t < k; ++t) {
      if (g[dims[t]] < row[dims[t]]) edge |= uint32_t{1} << t;
    }
    misses[all & ~edge] = 1;
  }
  for (size_t t = 0; t < k; ++t) {
    for (uint32_t s = 0; s <= all; ++s) {
      if (((s >> t) & 1) == 0 && misses[s | (uint32_t{1} << t)]) {
        misses[s] = 1;
      }
    }
  }
  std::vector<DimMask> decisives;
  for (uint32_t s = 1; s <= all; ++s) {
    if (misses[s]) continue;
    bool minimal = true;
    for (size_t t = 0; t < k && minimal; ++t) {
      const uint32_t smaller = s & ~(uint32_t{1} << t);
      if (smaller != s && smaller != 0 && !misses[smaller]) minimal = false;
    }
    if (!minimal) continue;
    DimMask decisive = 0;
    for (size_t t = 0; t < k; ++t) {
      if ((s >> t) & 1) decisive |= DimBit(dims[t]);
    }
    decisives.push_back(decisive);
  }
  std::sort(decisives.begin(), decisives.end(), MaskSizeThenValueLess{});
  return decisives;
}

/// Q1 completeness of the cube `groups` of `data`, against SFS.
inline void ExpectSubspaceSkylinesMatchSfs(const Dataset& data,
                                           const SkylineGroupSet& groups) {
  const CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                                   groups);
  const auto check = [&](DimMask subspace) {
    const std::vector<ObjectId> expected = ComputeSkyline(data, subspace);
    EXPECT_EQ(cube.SubspaceSkyline(subspace), expected)
        << FormatMask(subspace);
    EXPECT_EQ(cube.SkylineCardinality(subspace), expected.size())
        << FormatMask(subspace);
  };
  if (data.num_dims() <= 10) {
    ForEachNonEmptySubset(data.full_mask(), check);
    return;
  }
  Rng rng(static_cast<uint64_t>(data.num_dims()));
  for (int sampled = 0; sampled < 256;) {
    const DimMask subspace = rng.NextUint64() & data.full_mask();
    if (subspace == 0) continue;
    check(subspace);
    ++sampled;
  }
}

/// Checks every invariant above on `groups`, a cube of `data` whose groups
/// are normalized (NormalizeGroups).
inline void ExpectCubeInvariants(const Dataset& data,
                                 const SkylineGroupSet& groups) {
  for (const SkylineGroup& group : groups) {
    ASSERT_TRUE(GroupWellFormed(group)) << FormatGroup(group, data.num_dims());
    ASSERT_LE(MaskSize(group.max_subspace), 16)
        << "subset enumeration is exponential in |B|";
    DimMask shared = data.full_mask();
    for (ObjectId member : group.members) {
      shared &= data.CoincidenceMask(group.members.front(), member,
                                     data.full_mask());
    }
    EXPECT_EQ(shared, group.max_subspace)
        << FormatGroup(group, data.num_dims());
    EXPECT_EQ(group.projection,
              data.Projection(group.members.front(), group.max_subspace));
    EXPECT_EQ(group.decisive_subspaces, EnumeratedDecisives(data, group))
        << FormatGroup(group, data.num_dims());
  }
  ExpectSubspaceSkylinesMatchSfs(data, groups);
}

}  // namespace skycube

#endif  // SKYCUBE_TESTS_CORE_CUBE_INVARIANTS_H_
