// Round-trip and validation tests for cube serialization.
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube {
namespace {

TEST(SerializationTest, RoundTripRunningExample) {
  const Dataset data = Dataset::FromRows({
                                             {5, 6, 10, 7},
                                             {2, 6, 8, 3},
                                             {5, 4, 9, 3},
                                             {6, 4, 8, 5},
                                             {2, 4, 9, 3},
                                         })
                           .value();
  const SkylineGroupSet groups = ComputeStellar(data);
  const std::string text =
      SerializeCube(data.num_dims(), data.num_objects(), groups);
  const Result<SerializedCube> loaded = DeserializeCube(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_dims, 4);
  EXPECT_EQ(loaded.value().num_objects, 5u);
  EXPECT_EQ(loaded.value().groups, groups);
}

TEST(SerializationTest, RoundTripExactDoubles) {
  SyntheticSpec spec;
  spec.num_objects = 150;
  spec.num_dims = 4;
  spec.truncate_decimals = -1;  // full-precision doubles
  spec.seed = 31;
  const Dataset data = GenerateSynthetic(spec);
  const SkylineGroupSet groups = ComputeStellar(data);
  const Result<SerializedCube> loaded =
      DeserializeCube(SerializeCube(4, data.num_objects(), groups));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().groups, groups);  // bit-exact projections
}

TEST(SerializationTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cube_roundtrip.txt";
  const Dataset data = Dataset::FromRows({{1, 2}, {2, 1}}).value();
  const SkylineGroupSet groups = ComputeStellar(data);
  ASSERT_TRUE(SaveCubeToFile(path, 2, 2, groups).ok());
  const Result<SerializedCube> loaded = LoadCubeFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().groups, groups);
  std::remove(path.c_str());
}

TEST(SerializationTest, DimensionNamesRoundTrip) {
  const Dataset data =
      Dataset::FromRows({{1, 2}, {2, 1}}, {"price", "travel time"}).value();
  const SkylineGroupSet groups = ComputeStellar(data);
  const std::string text =
      SerializeCube(2, 2, groups, data.dim_names());
  const Result<SerializedCube> loaded = DeserializeCube(text);
  ASSERT_TRUE(loaded.ok());
  // Whitespace inside a name is rewritten to '_' on save.
  EXPECT_EQ(loaded.value().dim_names,
            (std::vector<std::string>{"price", "travel_time"}));
  EXPECT_EQ(loaded.value().groups, groups);
  // Files without names stay loadable, with empty names.
  const Result<SerializedCube> unnamed =
      DeserializeCube(SerializeCube(2, 2, groups));
  ASSERT_TRUE(unnamed.ok());
  EXPECT_TRUE(unnamed.value().dim_names.empty());
  EXPECT_EQ(unnamed.value().groups, groups);
}

/// Wraps `body` as a v2 file with a correct checksum, so a malformed body
/// gets past the envelope and reaches the group parser.
std::string V2File(std::string_view body) {
  return WrapChecksummed("skycube-cube v2", body);
}

/// Expects `body`, checksummed, to fail inside the body parser: its
/// structural kInvalidArgument, carrying `message`.
void ExpectBodyRejected(std::string_view body, std::string_view message) {
  const Result<SerializedCube> loaded = DeserializeCube(V2File(body));
  ASSERT_FALSE(loaded.ok()) << body;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << body;
  EXPECT_NE(loaded.status().message().find(message), std::string::npos)
      << loaded.status().ToString();
}

TEST(SerializationTest, RejectsBadInput) {
  EXPECT_FALSE(DeserializeCube("").ok());
  EXPECT_FALSE(DeserializeCube("skycube-cube v2\n").ok());
  EXPECT_FALSE(DeserializeCube("banana v1\n").ok());
  // Positive control: a well-formed body through the same wrapper loads.
  const Result<SerializedCube> valid = DeserializeCube(
      V2File("dims 2 objects 2 groups 1\n1 0 3 1 1 0.5 0.5\n"));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(valid.value().groups.size(), 1u);
  // Member id out of range.
  ExpectBodyRejected("dims 2 objects 2 groups 1\n1 7 3 1 1 0.5 0.5\n",
                     "bad member id");
  // Decisive outside the maximal subspace.
  ExpectBodyRejected("dims 2 objects 2 groups 1\n1 0 1 1 2 0.5\n",
                     "bad decisive subspace");
  // Truncated group line.
  ExpectBodyRejected("dims 2 objects 2 groups 1\n1 0\n", "bad subspace data");
  // Empty subspace.
  ExpectBodyRejected("dims 2 objects 2 groups 1\n1 0 0 1 1 0.5\n",
                     "bad subspace data");
  EXPECT_FALSE(LoadCubeFromFile("/no/such/file").ok());
}

// --- Corruption resistance -------------------------------------------------
// A saved cube is the service's startup dependency: a corrupt file must be
// an error, never a crash and never a silently-wrong cube.

std::string ExampleCubeText() {
  const Dataset data = Dataset::FromRows({
                                             {5, 6, 10, 7},
                                             {2, 6, 8, 3},
                                             {5, 4, 9, 3},
                                             {6, 4, 8, 5},
                                             {2, 4, 9, 3},
                                         })
                           .value();
  return SerializeCube(data.num_dims(), data.num_objects(),
                       ComputeStellar(data));
}

TEST(SerializationTest, V2CarriesChecksumHeader) {
  const std::string text = ExampleCubeText();
  EXPECT_EQ(text.rfind("skycube-cube v2\nchecksum ", 0), 0u) << text;
}

TEST(SerializationTest, EveryTruncationFailsCleanly) {
  const std::string text = ExampleCubeText();
  for (size_t keep = 0; keep < text.size(); ++keep) {
    const Result<SerializedCube> loaded =
        DeserializeCube(text.substr(0, keep));
    EXPECT_FALSE(loaded.ok()) << "truncation to " << keep << " bytes parsed";
  }
}

TEST(SerializationTest, EverySingleBitFlipIsDetected) {
  const std::string original = ExampleCubeText();
  for (size_t i = 0; i < original.size(); ++i) {
    std::string corrupt = original;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x4);
    const Result<SerializedCube> loaded = DeserializeCube(corrupt);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << i << " parsed";
  }
}

TEST(SerializationTest, PayloadCorruptionIsInternal) {
  std::string corrupt = ExampleCubeText();
  // Flip a digit inside the payload (past the checksum line), turning a
  // syntactically valid number into a different valid number: only the
  // checksum can catch this.
  const size_t payload = corrupt.find('\n', corrupt.find("checksum")) + 1;
  const size_t digit = corrupt.find_first_of("0123456789", payload);
  ASSERT_NE(digit, std::string::npos);
  corrupt[digit] = corrupt[digit] == '9' ? '8' : '9';
  const Result<SerializedCube> loaded = DeserializeCube(corrupt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(SerializationTest, CorruptFileRoundTripFails) {
  const std::string path = ::testing::TempDir() + "/cube_corrupt.txt";
  const std::string text = ExampleCubeText();
  // Truncated file.
  {
    std::ofstream out(path);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_FALSE(LoadCubeFromFile(path).ok());
  // Bit-flipped file.
  {
    std::string corrupt = text;
    corrupt[text.size() - 2] ^= 0x10;
    std::ofstream out(path);
    out << corrupt;
  }
  EXPECT_FALSE(LoadCubeFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsV1Header) {
  // v1 files (no checksum line) are no longer read: a well-formed v1 body
  // is refused at the header.
  const Result<SerializedCube> loaded =
      DeserializeCube("skycube-cube v1\ndims 2 objects 2 groups 1\n"
                      "1 0 3 1 1 0.5 0.5\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, HugeCountsFailWithoutAllocating) {
  // A corrupt count must not drive a pre-allocation: the parse has to fail
  // on the missing elements, not die in resize().
  ExpectBodyRejected(
      "dims 2 objects 2 groups 1\n1 0 3 18446744073709551615 1 0.5 0.5\n",
      "bad decisive subspace");
  ExpectBodyRejected(
      "dims 2 objects 18446744073709551615 groups 1\n"
      "18446744073709551615 0\n",
      "bad member id");
  ExpectBodyRejected("dims 64 objects 99999999999 groups 99999999999\n",
                     "bad member count");
}

}  // namespace
}  // namespace skycube
