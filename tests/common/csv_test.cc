// Unit tests for the CSV reader/writer.
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"

namespace skycube {
namespace {

TEST(CsvTest, ParsesHeaderAndRows) {
  const Result<CsvTable> result =
      ParseNumericCsv("a,b,c\n1,2,3\n4.5,-6,7e2\n");
  ASSERT_TRUE(result.ok());
  const CsvTable& table = result.value();
  EXPECT_EQ(table.column_names,
            (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(table.rows[1], (std::vector<double>{4.5, -6, 700}));
}

TEST(CsvTest, ParsesWithoutHeader) {
  CsvReadOptions options;
  options.has_header = false;
  const Result<CsvTable> result = ParseNumericCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().column_names.empty());
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST(CsvTest, SkipsBlankLinesAndCarriageReturns) {
  const Result<CsvTable> result = ParseNumericCsv("x,y\r\n\n1,2\r\n\n3,4\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().column_names[1], "y");
}

TEST(CsvTest, RejectsRaggedRows) {
  const Result<CsvTable> result = ParseNumericCsv("a,b\n1,2\n3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsNonNumericCells) {
  const Result<CsvTable> result = ParseNumericCsv("a\n1\nbanana\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("banana"), std::string::npos);
}

TEST(CsvTest, RejectsMissingHeader) {
  EXPECT_FALSE(ParseNumericCsv("").ok());
}

TEST(CsvTest, CustomDelimiter) {
  CsvReadOptions options;
  options.delimiter = '\t';
  const Result<CsvTable> result = ParseNumericCsv("a\tb\n1\t2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0], (std::vector<double>{1, 2}));
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/csv_roundtrip.csv";
  CsvTable table;
  table.column_names = {"p", "q"};
  table.rows = {{0.1, 2}, {3, 40000.5}};
  ASSERT_TRUE(WriteNumericCsv(path, table).ok());
  const Result<CsvTable> loaded = ReadNumericCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().column_names, table.column_names);
  EXPECT_EQ(loaded.value().rows, table.rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsNotFound) {
  const Result<CsvTable> result = ReadNumericCsv("/no/such/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// --- Malformed-input matrix ------------------------------------------------
// Every rejection must be kInvalidArgument and carry enough row/column
// context to find the bad cell in a multi-gigabyte input.

struct MalformedCase {
  const char* label;
  std::string text;
  /// Substrings the error message must contain.
  std::vector<std::string> expected;
};

// Print a case as its label. gtest's default byte dump of the struct holds
// the label pointer, which address-space randomisation moves on every run,
// so the discovered ctest names changed from one build to the next.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.label; }

class CsvMalformedTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(CsvMalformedTest, RejectsWithContext) {
  const MalformedCase& c = GetParam();
  const Result<CsvTable> result = ParseNumericCsv(c.text);
  ASSERT_FALSE(result.ok()) << c.label;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << c.label;
  for (const std::string& fragment : c.expected) {
    EXPECT_NE(result.status().message().find(fragment), std::string::npos)
        << c.label << ": message '" << result.status().message()
        << "' lacks '" << fragment << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CsvMalformedTest,
    ::testing::Values(
        MalformedCase{"too-few-cells", "a,b,c\n1,2,3\n4,5\n",
                      {"ragged", "line 3", "got 2", "expected 3"}},
        MalformedCase{"too-many-cells", "a,b\n1,2\n3,4,5\n",
                      {"ragged", "line 3", "got 3", "expected 2"}},
        MalformedCase{"non-numeric", "a,b\n1,potato\n",
                      {"potato", "line 2", "column 2"}},
        MalformedCase{"trailing-garbage", "a\n1.5x\n",
                      {"1.5x", "line 2", "column 1"}},
        MalformedCase{"nan", "a,b\n1,nan\n",
                      {"non-finite", "line 2", "column 2"}},
        MalformedCase{"positive-infinity", "a\ninf\n",
                      {"non-finite", "line 2", "column 1"}},
        MalformedCase{"negative-infinity", "a\n-inf\n",
                      {"non-finite", "line 2", "column 1"}},
        MalformedCase{"overflow-to-infinity", "a\n1e999\n",
                      {"line 2", "column 1"}},
        MalformedCase{"empty-cell", "a,b\n1,\n", {"empty", "line 2"}},
        MalformedCase{"embedded-nul",
                      std::string("a,b\n1,4") + '\0' + "2\n",
                      {"NUL", "line 2", "column 2"}}),
    [](const ::testing::TestParamInfo<MalformedCase>& param_info) {
      std::string name = param_info.param.label;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(CsvTest, EmbeddedNulErrorMessageStaysPrintable) {
  const Result<CsvTable> result =
      ParseNumericCsv(std::string("a\n9") + '\0' + "7\n");
  ASSERT_FALSE(result.ok());
  // The message must survive C-string handling: no raw NUL inside.
  EXPECT_EQ(result.status().message().find('\0'), std::string::npos);
}

}  // namespace
}  // namespace skycube
