// End-to-end validation against the paper's worked examples:
//  - Example 1 / Figure 1 (the 2-d five-object set with groups ab, b, d, e);
//  - the running example of Figures 2-4 (five objects P1..P5 in ABCD),
//    including the dominance/coincidence matrices (Example 3), the seed
//    lattice of Figure 3(a) (Examples 4-6) and the full skyline-group
//    lattice of Figure 3(b) (Example 7).
// All three engines (Stellar, Skyey, brute-force reference) must agree.
//
// One deliberate deviation: the prose of Example 2 says the decisive
// subspace of P2P5 on S "is adjusted to AD", but Definition 2 (and the
// paper's own Figure 3(b)) give {A}: no object outside {P2,P5} matches
// value 2 on A, and A alone puts the pair in the skyline. We follow the
// definitions and the figure.
#include <vector>

#include <gtest/gtest.h>

#include "core/cube.h"
#include "core/reference.h"
#include "core/seed_lattice.h"
#include "core/skyey.h"
#include "core/skyline_group.h"
#include "core/stellar.h"
#include "dataset/dataset.h"
#include "skyline/algorithms.h"

namespace skycube {
namespace {

// Object ids: P1=0, P2=1, P3=2, P4=3, P5=4.
Dataset RunningExample() {
  return Dataset::FromRows({
                               {5, 6, 10, 7},  // P1
                               {2, 6, 8, 3},   // P2
                               {5, 4, 9, 3},   // P3
                               {6, 4, 8, 5},   // P4
                               {2, 4, 9, 3},   // P5
                           })
      .value();
}

DimMask M(const char* letters) { return MaskFromLetters(letters); }

SkylineGroup Group(std::vector<ObjectId> members, const char* subspace,
                   std::vector<const char*> decisives,
                   std::vector<double> projection) {
  SkylineGroup group;
  group.members = std::move(members);
  group.max_subspace = M(subspace);
  for (const char* d : decisives) group.decisive_subspaces.push_back(M(d));
  group.projection = std::move(projection);
  return group;
}

// Figure 3(b): the complete set of skyline groups on S.
SkylineGroupSet ExpectedRunningExampleCube() {
  SkylineGroupSet expected;
  expected.push_back(Group({1}, "ABCD", {"AC", "CD"}, {2, 6, 8, 3}));  // P2
  expected.push_back(Group({1, 2, 4}, "D", {"D"}, {3}));               // P2P3P5
  expected.push_back(Group({1, 3}, "C", {"C"}, {8}));                  // P2P4
  expected.push_back(Group({1, 4}, "AD", {"A"}, {2, 3}));              // P2P5
  expected.push_back(Group({2, 3, 4}, "B", {"B"}, {4}));               // P3P4P5
  expected.push_back(Group({2, 4}, "BCD", {"BD"}, {4, 9, 3}));         // P3P5
  expected.push_back(Group({3}, "ABCD", {"BC"}, {6, 4, 8, 5}));        // P4
  expected.push_back(Group({4}, "ABCD", {"AB"}, {2, 4, 9, 3}));        // P5
  NormalizeGroups(&expected);
  return expected;
}

TEST(PaperRunningExample, FullSpaceSkylineIsP2P4P5) {
  const Dataset data = RunningExample();
  EXPECT_EQ(ComputeSkyline(data, data.full_mask()),
            (std::vector<ObjectId>{1, 3, 4}));
}

TEST(PaperRunningExample, SubspaceSkylinesOfExample2) {
  const Dataset data = RunningExample();
  // "P3 is in the skylines of subspaces B, D and BD."
  for (const char* sub : {"B", "D", "BD"}) {
    std::vector<ObjectId> sky = ComputeSkyline(data, M(sub));
    EXPECT_TRUE(std::count(sky.begin(), sky.end(), 2) == 1)
        << "P3 missing from skyline of " << sub;
  }
  // "P1 is not in any subspace skylines."
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask sub) {
    std::vector<ObjectId> sky = ComputeSkyline(data, sub);
    EXPECT_EQ(std::count(sky.begin(), sky.end(), 0), 0)
        << "P1 unexpectedly in skyline of " << FormatMask(sub);
  });
}

TEST(PaperRunningExample, DominanceAndCoincidenceMatricesOfFigure4) {
  const Dataset data = RunningExample();
  // Seeds P2, P4, P5 → seed indices 0, 1, 2; Stellar reads both matrices
  // one row at a time.
  const SeedRows rows(data, {1, 3, 4});
  std::vector<std::vector<DimMask>> dom(3);
  std::vector<std::vector<DimMask>> co(3);
  for (uint32_t i = 0; i < 3; ++i) rows.Fill(i, &co[i], &dom[i]);
  // Dominance matrix, Figure 4(a) rows P2, P4, P5.
  EXPECT_EQ(dom[0], (std::vector<DimMask>{kEmptyMask, M("AD"), M("C")}));
  EXPECT_EQ(dom[1], (std::vector<DimMask>{M("B"), kEmptyMask, M("C")}));
  EXPECT_EQ(dom[2], (std::vector<DimMask>{M("B"), M("AD"), kEmptyMask}));
  // Coincidence matrix, Figure 4(b).
  EXPECT_EQ(co[0], (std::vector<DimMask>{M("ABCD"), M("C"), M("AD")}));
  EXPECT_EQ(co[1], (std::vector<DimMask>{M("C"), M("ABCD"), M("B")}));
  EXPECT_EQ(co[2], (std::vector<DimMask>{M("AD"), M("B"), M("ABCD")}));
  // Property 1(3): co = D − dom − dom^T, and symmetry.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(co[i][j], co[j][i]);
      EXPECT_EQ(co[i][j], M("ABCD") & ~dom[i][j] & ~dom[j][i]);
    }
  }
}

TEST(PaperRunningExample, StellarMatchesFigure3b) {
  const Dataset data = RunningExample();
  SkylineGroupSet groups = ComputeStellar(data);
  EXPECT_EQ(groups, ExpectedRunningExampleCube())
      << "got:\n"
      << FormatGroups(groups, 4) << "expected:\n"
      << FormatGroups(ExpectedRunningExampleCube(), 4);
}

TEST(PaperRunningExample, SkyeyMatchesFigure3b) {
  const Dataset data = RunningExample();
  EXPECT_EQ(ComputeSkyey(data), ExpectedRunningExampleCube());
}

TEST(PaperRunningExample, ReferenceMatchesFigure3b) {
  const Dataset data = RunningExample();
  EXPECT_EQ(ComputeReferenceCube(data), ExpectedRunningExampleCube());
}

TEST(PaperRunningExample, StellarStatsMatchNarrative) {
  const Dataset data = RunningExample();
  StellarStats stats;
  ComputeStellar(data, {}, &stats);
  EXPECT_EQ(stats.num_objects, 5u);
  EXPECT_EQ(stats.num_distinct_objects, 5u);
  EXPECT_EQ(stats.num_seeds, 3u);
  // Figure 3(a): six seed groups (3 singletons + P2P4 + P2P5 + P4P5), all
  // of which are skyline groups.
  EXPECT_EQ(stats.num_maximal_cgroups, 6u);
  EXPECT_EQ(stats.num_seed_skyline_groups, 6u);
  EXPECT_EQ(stats.num_groups, 8u);
}

TEST(PaperRunningExample, CubeAnswersSubspaceQueries) {
  const Dataset data = RunningExample();
  CompressedSkylineCube cube(data.num_dims(), data.num_objects(),
                             ComputeStellar(data));
  // Q1 answers must equal the directly computed skyline of every subspace.
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask sub) {
    EXPECT_EQ(cube.SubspaceSkyline(sub), ComputeSkyline(data, sub))
        << "subspace " << FormatMask(sub);
  });
  // Q2: P3's skyline subspaces. Example 2's prose lists "B, D and BD" but
  // omits BCD, where P3 ties P5 on C and stays undominated — the paper's
  // own group (P3P5, BCD, BD) in Figure 3(b) implies BCD as well, and the
  // direct computation above confirms it.
  EXPECT_EQ(cube.SubspacesWhereSkyline(2),
            (std::vector<DimMask>{M("B"), M("D"), M("BD"), M("BCD")}));
  EXPECT_EQ(cube.CountSubspacesWhereSkyline(2), 4u);
  // P1 is in no subspace skyline.
  EXPECT_TRUE(cube.SubspacesWhereSkyline(0).empty());
  // P5 is in the skyline of every superspace of AB and of BD, and of A
  // itself (it ties P2 at the best value 2 — ties both stay in skylines).
  EXPECT_TRUE(cube.IsInSubspaceSkyline(4, M("AB")));
  EXPECT_TRUE(cube.IsInSubspaceSkyline(4, M("ABD")));
  EXPECT_TRUE(cube.IsInSubspaceSkyline(4, M("BD")));
  EXPECT_TRUE(cube.IsInSubspaceSkyline(4, M("A")));
  EXPECT_FALSE(cube.IsInSubspaceSkyline(4, M("C")));  // 9 beaten by 8
}

// --- Example 1 / Figure 1: the 2-d set {a, b, c, d, e}. -------------------

Dataset Example1() {
  return Dataset::FromRows({
                               {2, 6},  // a
                               {2, 4},  // b
                               {5, 3},  // c
                               {4, 2},  // d
                               {7, 1},  // e
                           })
      .value();
}

TEST(PaperExample1, SubspaceSkylinesOfFigure1b) {
  const Dataset data = Example1();
  EXPECT_EQ(ComputeSkyline(data, M("AB")), (std::vector<ObjectId>{1, 3, 4}));
  EXPECT_EQ(ComputeSkyline(data, M("A")), (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(ComputeSkyline(data, M("B")), (std::vector<ObjectId>{4}));
}

TEST(PaperExample1, SkylineGroupsOfExample1) {
  const Dataset data = Example1();
  SkylineGroupSet expected;
  // (ab, X): a and b share X = 2; decisive X.
  expected.push_back(Group({0, 1}, "A", {"A"}, {2}));
  // (b, XY): decisive XY.
  expected.push_back(Group({1}, "AB", {"AB"}, {2, 4}));
  // (d, XY): skyline of XY but of no proper subspace; decisive XY.
  expected.push_back(Group({3}, "AB", {"AB"}, {4, 2}));
  // (e, XY): value 1 on Y is uniquely best; decisive Y.
  expected.push_back(Group({4}, "AB", {"B"}, {7, 1}));
  NormalizeGroups(&expected);
  EXPECT_EQ(ComputeStellar(data), expected);
  EXPECT_EQ(ComputeSkyey(data), expected);
  EXPECT_EQ(ComputeReferenceCube(data), expected);
}

}  // namespace
}  // namespace skycube
