// Tests for the maximal c-group miner: the groups of the paper's Figure 6
// search and Example 8, found per root as the closure of its coincidence
// masks under intersection (a different enumeration; see cgroup_miner.h),
// checked against the brute-force oracle.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cgroup_miner.h"
#include "core/seed_lattice.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

std::vector<MaximalCGroup> Sorted(std::vector<MaximalCGroup> groups) {
  std::sort(groups.begin(), groups.end(),
            [](const MaximalCGroup& a, const MaximalCGroup& b) {
              if (a.member_indices != b.member_indices) {
                return a.member_indices < b.member_indices;
              }
              return a.subspace < b.subspace;
            });
  return groups;
}

// Every root's branch, each mined from the root's coincidence row.
std::vector<MaximalCGroup> MineAll(const Dataset& data,
                                   const std::vector<ObjectId>& seeds) {
  const SeedRows rows(data, seeds);
  std::vector<DimMask> co;
  std::vector<DimMask> dom;
  std::vector<MaximalCGroup> groups;
  for (uint32_t root = 0; root < rows.size(); ++root) {
    rows.Fill(root, &co, &dom);
    MineBranch(root, co, rows.universe(), &groups);
  }
  return groups;
}

void ExpectSameGroups(const std::vector<MaximalCGroup>& a,
                      const std::vector<MaximalCGroup>& b) {
  auto sa = Sorted(a);
  auto sb = Sorted(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].member_indices, sb[i].member_indices) << "group " << i;
    EXPECT_EQ(sa[i].subspace, sb[i].subspace) << "group " << i;
  }
}

TEST(CGroupMinerTest, RunningExampleSeedGroups) {
  // Seeds P2, P4, P5 of the running example (Figure 2).
  const Dataset data = Dataset::FromRows({
                                             {2, 6, 8, 3},  // P2
                                             {6, 4, 8, 5},  // P4
                                             {2, 4, 9, 3},  // P5
                                         })
                           .value();
  std::vector<MaximalCGroup> groups = Sorted(MineAll(data, {0, 1, 2}));
  ASSERT_EQ(groups.size(), 6u);
  // Singletons in the full space.
  EXPECT_EQ(groups[0].member_indices, (std::vector<uint32_t>{0}));
  EXPECT_EQ(groups[0].subspace, MaskFromLetters("ABCD"));
  // P2P4 share C; P2P5 share AD; P4P5 share B.
  EXPECT_EQ(groups[1].member_indices, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(groups[1].subspace, MaskFromLetters("C"));
  EXPECT_EQ(groups[2].member_indices, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(groups[2].subspace, MaskFromLetters("AD"));
  EXPECT_EQ(groups[3].member_indices, (std::vector<uint32_t>{1}));
  EXPECT_EQ(groups[4].member_indices, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(groups[4].subspace, MaskFromLetters("B"));
  EXPECT_EQ(groups[5].member_indices, (std::vector<uint32_t>{2}));
}

TEST(CGroupMinerTest, Example8CoincidenceStructure) {
  // Example 8's coincidence matrix fragment, realized as concrete rows over
  // ABCD: co(o1,o2)=ACD, co(o1,o3)=B, co(o1,o4)=ABCD ... — o4 must equal o1
  // everywhere, i.e. be a duplicate. The expected maximal c-groups with o1
  // per the example: o1o2o4 (ACD), o1o2o4o5 (CD), o1o3o4 (B), o1o4 (ABCD);
  // o1o5 (CD) is NOT maximal.
  const Dataset data = Dataset::FromRows({
                                             {1, 2, 3, 4},  // o1
                                             {1, 5, 3, 4},  // o2: ACD with o1
                                             {9, 2, 8, 7},  // o3: B with o1
                                             {1, 2, 3, 4},  // o4 = o1
                                             {6, 7, 3, 4},  // o5: CD with o1
                                         })
                           .value();
  const std::vector<ObjectId> seeds = {0, 1, 2, 3, 4};
  std::vector<MaximalCGroup> groups = MineAll(data, seeds);
  ExpectSameGroups(groups, MineMaximalCGroupsBruteForce(data, seeds));
  std::set<std::pair<std::vector<uint32_t>, DimMask>> found;
  for (const MaximalCGroup& group : groups) {
    found.insert({group.member_indices, group.subspace});
  }
  EXPECT_TRUE(found.count({{0, 1, 3}, MaskFromLetters("ACD")}));
  EXPECT_TRUE(found.count({{0, 1, 3, 4}, MaskFromLetters("CD")}));
  EXPECT_TRUE(found.count({{0, 2, 3}, MaskFromLetters("B")}));
  EXPECT_TRUE(found.count({{0, 3}, MaskFromLetters("ABCD")}));
  // o1o5 alone is not maximal (o2, o4 also share CD).
  EXPECT_FALSE(found.count({{0, 4}, MaskFromLetters("CD")}));
}

TEST(CGroupMinerTest, NoSharingYieldsOnlySingletons) {
  const Dataset data = Dataset::FromRows({
                                             {1, 10},
                                             {2, 20},
                                             {3, 30},
                                         })
                           .value();
  std::vector<MaximalCGroup> groups = Sorted(MineAll(data, {0, 1, 2}));
  ASSERT_EQ(groups.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(groups[i].member_indices, (std::vector<uint32_t>{(uint32_t)i}));
    EXPECT_EQ(groups[i].subspace, data.full_mask());
  }
}

TEST(CGroupMinerTest, EmitsEachGroupExactlyOnce) {
  Rng rng(5);
  for (int round = 0; round < 75; ++round) {
    // The first 60 rounds are small and low-dimensional. The wide ones go up
    // to 16 dimensions and to the brute force's 20 objects, with duplicate
    // rows, so that a root's row holds many distinct coincidence masks.
    const bool wide = round >= 60;
    const int n = wide ? 12 + static_cast<int>(rng.NextBounded(9))
                       : 2 + static_cast<int>(rng.NextBounded(11));
    const int d = wide ? 6 + static_cast<int>(rng.NextBounded(11))
                       : 1 + static_cast<int>(rng.NextBounded(5));
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < n; ++i) {
      if (wide && i > 0 && rng.NextBounded(4) == 0) {
        rows.push_back(rows[rng.NextBounded(i)]);
        continue;
      }
      std::vector<double> row(d);
      for (int j = 0; j < d; ++j) {
        row[j] = static_cast<double>(rng.NextBounded(3));
      }
      rows.push_back(std::move(row));
    }
    const Dataset data = Dataset::FromRows(std::move(rows)).value();
    std::vector<ObjectId> all(n);
    for (int i = 0; i < n; ++i) all[i] = i;
    std::vector<MaximalCGroup> groups = Sorted(MineAll(data, all));
    for (size_t i = 1; i < groups.size(); ++i) {
      EXPECT_FALSE(groups[i - 1].member_indices == groups[i].member_indices &&
                   groups[i - 1].subspace == groups[i].subspace)
          << "duplicate group in round " << round;
    }
    ExpectSameGroups(groups, MineMaximalCGroupsBruteForce(data, all));
  }
}

}  // namespace
}  // namespace skycube
