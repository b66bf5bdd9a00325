// Moderate-scale randomized differential tests: Stellar vs Skyey on
// thousands of objects (too big for the brute-force oracle, big enough to
// exercise the candidate-sharing, seed-row and extension paths that tiny
// inputs never stress), plus workload shapes the small sweeps don't cover
// (NBA-like prefixes, integer grids, clustered fares). Every output is also
// checked against the paper's definitions (cube_invariants.h).
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lattice.h"
#include "core/serialization.h"
#include "core/skyey.h"
#include "core/stellar.h"
#include "cube_invariants.h"
#include "datagen/nba_like.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

void ExpectEnginesAgree(const Dataset& data, const std::string& label,
                        StellarStats* stats = nullptr) {
  const SkylineGroupSet stellar = ComputeStellar(data, {}, stats);
  const SkylineGroupSet skyey = ComputeSkyey(data);
  ASSERT_EQ(stellar.size(), skyey.size()) << label;
  ASSERT_EQ(stellar, skyey) << label;
  SCOPED_TRACE(label);
  ExpectCubeInvariants(data, stellar);
}

TEST(StressTest, SyntheticMidScale) {
  for (Distribution dist : {Distribution::kIndependent,
                            Distribution::kCorrelated,
                            Distribution::kAntiCorrelated}) {
    for (int d : {4, 7}) {
      SyntheticSpec spec;
      spec.distribution = dist;
      spec.num_objects = 3000;
      spec.num_dims = d;
      spec.truncate_decimals = 2;
      spec.seed = 424242;
      ExpectEnginesAgree(GenerateSynthetic(spec),
                         std::string(DistributionName(dist)) + "/d" +
                             std::to_string(d));
    }
  }
}

// The shape of the benchmark's read workload: 10,000 x 8 independent rows
// with 4 decimals and data seed 2007, which give 2,330 seeds.
TEST(StressTest, ReadWorkloadShape) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_objects = 10000;
  spec.num_dims = 8;
  spec.truncate_decimals = 4;
  spec.seed = 2007;
  const Dataset data = GenerateSynthetic(spec);
  StellarStats stats;
  ExpectEnginesAgree(data, "read-shape", &stats);
  EXPECT_EQ(stats.num_seeds, 2330u);
}

// Tie-heavy and high-dimensional: 2,000 anti-correlated rows at d = 10,
// truncated to one decimal, give 1,844 seeds whose coincidence rows hold
// many distinct masks each, so every seed lies in many maximal c-groups.
TEST(StressTest, TieHeavyAntiCorrelatedTenDims) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = 2000;
  spec.num_dims = 10;
  spec.truncate_decimals = 1;
  spec.seed = 7;
  StellarStats stats;
  ExpectEnginesAgree(GenerateSynthetic(spec), "anti/d10/1-decimal", &stats);
  EXPECT_EQ(stats.num_seeds, 1844u);
  EXPECT_EQ(stats.num_groups, 2168u);
}

TEST(StressTest, NbaLikePrefixes) {
  const Dataset nba = GenerateNbaLike(4000, 11).Negated();
  for (int d : {3, 6, 9}) {
    ExpectEnginesAgree(nba.WithPrefixDims(d), "nba/d" + std::to_string(d));
  }
}

// Q1 on both sides of its index-or-scan rule. The 14-dimensional prefix
// has few groups for its dimensionality, so subspaces with many dimensions
// take the group scan and the rest the decisive-subspace index; at d = 17
// every query scans. Skyey's 2^d subspace pass is too slow here, so the
// oracle is SFS alone.
TEST(StressTest, NbaLikeQ1OnBothSidesOfTheIndexRule) {
  const Dataset nba = GenerateNbaLike(4000, 11).Negated();
  for (int d : {14, 17}) {
    SCOPED_TRACE("nba/d" + std::to_string(d));
    const Dataset data = nba.WithPrefixDims(d);
    ExpectSubspaceSkylinesMatchSfs(data, ComputeStellar(data));
  }
}

TEST(StressTest, CoarseIntegerGrid) {
  // Tiny value domains make nearly everything coincide somewhere — the
  // worst case for the grouping machinery.
  Rng rng(3);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 2500; ++i) {
    rows.push_back({static_cast<double>(rng.NextBounded(4)),
                    static_cast<double>(rng.NextBounded(4)),
                    static_cast<double>(rng.NextBounded(4)),
                    static_cast<double>(rng.NextBounded(4)),
                    static_cast<double>(rng.NextBounded(4))});
  }
  ExpectEnginesAgree(Dataset::FromRows(std::move(rows)).value(), "grid4^5");
}

TEST(StressTest, MixedCardinalityColumns) {
  // One near-unique column next to near-constant columns: maximal
  // subspaces vary wildly across groups.
  Rng rng(8);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back({static_cast<double>(rng.NextBounded(1000000)),
                    static_cast<double>(rng.NextBounded(2)),
                    static_cast<double>(rng.NextBounded(3)),
                    static_cast<double>(rng.NextBounded(500))});
  }
  ExpectEnginesAgree(Dataset::FromRows(std::move(rows)).value(), "mixed");
}

TEST(StressTest, Theorem2QuotientAtScale) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_objects = 1500;
  spec.num_dims = 5;
  spec.truncate_decimals = 2;
  spec.seed = 5;
  EXPECT_TRUE(VerifySeedLatticeIsQuotient(GenerateSynthetic(spec)));
  const Dataset nba = GenerateNbaLike(2000, 77).Negated().WithPrefixDims(6);
  EXPECT_TRUE(VerifySeedLatticeIsQuotient(nba));
}

TEST(StressTest, SerializedCubeAnswersLikeFreshOne) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = 1200;
  spec.num_dims = 5;
  spec.truncate_decimals = 2;
  spec.seed = 99;
  const Dataset data = GenerateSynthetic(spec);
  const SkylineGroupSet groups = ComputeStellar(data);
  const Result<SerializedCube> loaded = DeserializeCube(
      SerializeCube(data.num_dims(), data.num_objects(), groups));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().groups, groups);
}

}  // namespace
}  // namespace skycube
