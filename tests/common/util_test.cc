// Unit tests for Status/Result, FlagParser, Rng, hashing and TablePrinter.
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace skycube {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "Ok");
  const Status error = Status::InvalidArgument("bad input");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(error.ToString(), "InvalidArgument: bad input");
}

TEST(ResultTest, ValueAndStatusAccess) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);
  EXPECT_TRUE(ok_result.status().ok());

  Result<int> err_result(Status::NotFound("missing"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> moved = std::move(result).value();
  EXPECT_EQ(moved, (std::vector<int>{1, 2, 3}));
}

TEST(FlagParserTest, ParsesAllForms) {
  const char* argv[] = {"prog",        "--alpha=3",  "--beta", "7",
                        "--gamma",     "--no-delta", "pos1",   "--eps=hi",
                        "--zeta=2.25", "pos2"};
  FlagParser flags(10, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetInt("beta", 0), 7);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_FALSE(flags.GetBool("delta", true));
  EXPECT_EQ(flags.GetString("eps", ""), "hi");
  EXPECT_DOUBLE_EQ(flags.GetDouble("zeta", 0), 2.25);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
  EXPECT_EQ(flags.GetInt("missing", -5), -5);
  EXPECT_TRUE(flags.Has("alpha"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserDeathTest, RejectsOutOfRangeInteger) {
  const char* argv[] = {"prog", "--tuples=99999999999999999999",
                        "--low=-99999999999999999999"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_DEATH(flags.GetInt("tuples", 0), "flag --tuples expects an integer");
  EXPECT_DEATH(flags.GetInt("low", 0), "flag --low expects an integer");
}

TEST(FlagParserDeathTest, RejectsOutOfRangeDouble) {
  const char* argv[] = {"prog", "--big=1e999", "--low=-1e999", "--tiny=1e-999",
                        "--fine=1e300"};
  FlagParser flags(5, const_cast<char**>(argv));
  EXPECT_DEATH(flags.GetDouble("big", 0), "flag --big expects a number");
  EXPECT_DEATH(flags.GetDouble("low", 0), "flag --low expects a number");
  EXPECT_DEATH(flags.GetDouble("tiny", 0), "flag --tiny expects a number");
  EXPECT_DOUBLE_EQ(flags.GetDouble("fine", 0), 1e300);
}

TEST(FlagParserTest, FirstNegativeNamesTheFirstNegativeFlag) {
  const char* argv[] = {"prog", "--a=3", "--b=-1", "--c=-2", "--d=0"};
  FlagParser flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.FirstNegative({"a", "missing", "c", "b"}), "c");
  EXPECT_EQ(flags.FirstNegative({"a", "d", "missing"}), "");
  EXPECT_EQ(flags.FirstNegative({}), "");
}

TEST(RngTest, DeterministicAndWellDistributed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
  Rng c(124);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = c.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    mean += v;
  }
  mean /= 10000;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(RngTest, BoundedHasNoObviousBias) {
  Rng rng(55);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 50000; ++i) counts[rng.NextBounded(5)]++;
  for (int bucket = 0; bucket < 5; ++bucket) {
    EXPECT_NEAR(counts[bucket], 10000, 500);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double mean = 0;
  double var = 0;
  const int n = 20000;
  std::vector<double> xs(n);
  for (int i = 0; i < n; ++i) {
    xs[i] = rng.NextGaussian();
    mean += xs[i];
  }
  mean /= n;
  for (int i = 0; i < n; ++i) var += (xs[i] - mean) * (xs[i] - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(HashTest, DoubleHashingCanonicalizesZero) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
  EXPECT_NE(HashDouble(1.0), HashDouble(2.0));
}

TEST(HashTest, VectorHashersDifferentiate) {
  VectorDoubleHash hasher;
  EXPECT_EQ(hasher({1, 2}), hasher({1, 2}));
  EXPECT_NE(hasher({1, 2}), hasher({2, 1}));
  EXPECT_NE(hasher({1}), hasher({1, 0}));
  VectorU32Hash id_hasher;
  EXPECT_EQ(id_hasher({3, 4}), id_hasher({3, 4}));
  EXPECT_NE(id_hasher({3, 4}), id_hasher({4, 3}));
}

TEST(TablePrinterTest, AlignedOutput) {
  TablePrinter table({"dim", "runtime"});
  table.NewRow().AddInt(4).AddDouble(1.5, 2);
  table.NewRow().AddInt(12).AddCell("n/a");
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("dim"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("n/a"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, TsvOutput) {
  TablePrinter table({"a", "b"});
  table.NewRow().AddInt(1).AddInt(2);
  std::ostringstream os;
  table.PrintTsv(os);
  EXPECT_EQ(os.str(), "#a\tb\n1\t2\n");
}

}  // namespace
}  // namespace skycube
