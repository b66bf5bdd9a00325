// Golden bytes of the three on-disk formats: the cube file, the checkpoint
// and a WAL segment. Round-trip tests pass when a writer and its reader
// drift together; these compare what the writers put on disk with bytes
// pinned as literals, so any change to a format shows up here.
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/serialization.h"
#include "core/stellar.h"
#include "dataset/dataset.h"
#include "gtest/gtest.h"
#include "storage/checkpointer.h"
#include "storage/wal.h"

namespace skycube {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string FileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const std::string digits(hex.substr(i, 2));
    bytes.push_back(static_cast<char>(std::stoi(digits, nullptr, 16)));
  }
  return bytes;
}

/// The paper's running example (SerializationTest.RoundTripRunningExample).
Dataset RunningExample() {
  Dataset data(4);
  data.AddRow({5, 6, 10, 7});
  data.AddRow({2, 6, 8, 3});
  data.AddRow({5, 4, 9, 3});
  data.AddRow({6, 4, 8, 5});
  data.AddRow({2, 4, 9, 3});
  return data;
}

constexpr std::string_view kCubeFile = R"(skycube-cube v2
checksum 1bde2f1dc58c4eb7
dims 4 objects 5 groups 8
1 1 15 2 5 12 2 6 8 3
3 1 2 4 8 1 8 3
2 1 3 4 1 4 8
2 1 4 9 1 1 2 3
3 2 3 4 2 1 2 4
2 2 4 14 1 10 4 9 3
1 3 15 1 6 6 4 8 5
1 4 15 1 3 2 4 9 3
)";

constexpr std::string_view kCheckpointFile = R"(skycube-checkpoint v2
checksum 97da18b9e5a397a8
lsn 0
dims 4 rows 5
names A B C D
5 6 10 7
2 6 8 3
5 4 9 3
6 4 8 5
2 4 9 3
dead 0
stamps 0 0 0 0 0
skycube-cube v2
checksum d5a66728f3ba5f31
dims 4 objects 5 groups 8
names A B C D
1 1 15 2 5 12 2 6 8 3
3 1 2 4 8 1 8 3
2 1 3 4 1 4 8
2 1 4 9 1 1 2 3
3 2 3 4 2 1 2 4
2 2 4 14 1 10 4 9 3
1 3 15 1 6 6 4 8 5
1 4 15 1 3 2 4 9 3
)";

/// Segment magic, then insert (row 5), delete (row 1), insert (row 6).
constexpr std::string_view kWalSegmentHex =
    "534b5957414c303131000000010000000000000013e7c1e55c79a51b810068e5"
    "cf8b010000050000000400000000000000000014400000000000001840000000"
    "00000024400000000000001c400d0000000200000000000000c44284233b7046"
    "3682f469e5cf8b010000010000003100000003000000000000002d0d0fbbf162"
    "0cfd81e86be5cf8b010000060000000400000000000000000000400000000000"
    "00104000000000000022400000000000000840";

TEST(StorageFormatTest, CubeFileBytes) {
  const Dataset data = RunningExample();
  EXPECT_EQ(SerializeCube(data.num_dims(), data.num_objects(),
                          ComputeStellar(data)),
            kCubeFile);
}

TEST(StorageFormatTest, CheckpointFileBytes) {
  const std::string dir = FreshDir("format_checkpoint");
  const Dataset data = RunningExample();
  Checkpointer checkpointer(dir, 2);
  ASSERT_TRUE(checkpointer.Write(0, data, ComputeStellar(data)).ok());
  EXPECT_EQ(FileBytes(dir + "/checkpoint-0000000000000000.ckpt"),
            kCheckpointFile);
}

TEST(StorageFormatTest, WalSegmentBytes) {
  const std::string dir = FreshDir("format_wal");
  const std::vector<std::string> payloads = {
      EncodeInsertPayload({5, 6, 10, 7}, 5, 1700000000000),
      EncodeDeletePayload(1, 1700000000500),
      EncodeInsertPayload({2, 4, 9, 3}, 6, 1700000001000)};
  {
    Result<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(dir, 1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(wal.value()->Append(payload).ok());
    }
  }
  EXPECT_EQ(FileBytes(dir + "/wal-0000000000000001.log"),
            FromHex(kWalSegmentHex));
}

}  // namespace
}  // namespace skycube
