// Checkpointer tests: atomic write + load round trip, retention, stray
// .tmp cleanup, and the corruption matrix (bit flips / truncations are
// always detected, never partially loaded).
#include "storage/checkpointer.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "gtest/gtest.h"

namespace skycube {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

Dataset MakeData(size_t n, int dims, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = n;
  spec.num_dims = dims;
  spec.seed = seed;
  spec.truncate_decimals = 3;
  return GenerateSynthetic(spec);
}

TEST(CheckpointTest, WriteLoadRoundTrip) {
  const std::string dir = FreshDir("ckpt_roundtrip");
  const Dataset data = MakeData(60, 4, 3);
  const SkylineGroupSet groups = ComputeStellar(data);

  Checkpointer checkpointer(dir, 2);
  ASSERT_TRUE(checkpointer.Write(17, data, groups).ok());
  EXPECT_EQ(checkpointer.checkpoints_written(), 1u);
  ASSERT_EQ(ListCheckpoints(dir), std::vector<uint64_t>{17});

  Result<CheckpointData> loaded = LoadCheckpoint(dir, 17);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().lsn, 17u);
  EXPECT_EQ(loaded.value().data.num_objects(), data.num_objects());
  EXPECT_EQ(loaded.value().data.num_dims(), data.num_dims());
  EXPECT_EQ(loaded.value().data.dim_names(), data.dim_names());
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    for (int dim = 0; dim < data.num_dims(); ++dim) {
      EXPECT_EQ(loaded.value().data.Value(id, dim), data.Value(id, dim));
    }
  }
  EXPECT_EQ(loaded.value().groups, groups);
}

TEST(CheckpointTest, RetentionKeepsNewestAndSetsHorizon) {
  const std::string dir = FreshDir("ckpt_retention");
  const Dataset data = MakeData(30, 3, 5);
  const SkylineGroupSet groups = ComputeStellar(data);
  Checkpointer checkpointer(dir, 2);
  for (uint64_t lsn : {10u, 20u, 30u, 40u}) {
    ASSERT_TRUE(checkpointer.Write(lsn, data, groups).ok());
  }
  // keep=2 → only 30 and 40 survive; the WAL horizon is the *oldest*
  // retained (30), so a bad 40 can still recover from 30 + WAL suffix.
  EXPECT_EQ(ListCheckpoints(dir), (std::vector<uint64_t>{30, 40}));
  EXPECT_EQ(checkpointer.oldest_retained_lsn(), 30u);
}

TEST(CheckpointTest, StrayTmpFilesIgnoredAndCleaned) {
  const std::string dir = FreshDir("ckpt_tmp");
  fs::create_directories(dir);
  // A crashed writer left a half-written temp file behind.
  std::ofstream(dir + "/checkpoint-00000000000000ff.ckpt.tmp")
      << "half-written";
  EXPECT_TRUE(ListCheckpoints(dir).empty());

  const Dataset data = MakeData(20, 3, 9);
  Checkpointer checkpointer(dir, 1);
  ASSERT_TRUE(checkpointer.Write(5, data, ComputeStellar(data)).ok());
  EXPECT_EQ(ListCheckpoints(dir), std::vector<uint64_t>{5});
  // The successful Write swept the stray temp file.
  size_t tmp_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++tmp_files;
  }
  EXPECT_EQ(tmp_files, 0u);
}

TEST(CheckpointTest, CorruptionAlwaysDetected) {
  const std::string ref_dir = FreshDir("ckpt_corrupt_ref");
  const Dataset data = MakeData(40, 4, 7);
  Checkpointer checkpointer(ref_dir, 1);
  ASSERT_TRUE(checkpointer.Write(9, data, ComputeStellar(data)).ok());
  const std::string ref_file = ref_dir + "/checkpoint-0000000000000009.ckpt";
  ASSERT_TRUE(fs::exists(ref_file));
  const size_t size = static_cast<size_t>(fs::file_size(ref_file));

  struct Case {
    const char* name;
    size_t flip_offset;  // kNpos = truncate to truncate_to instead
    size_t truncate_to;
  };
  const size_t kNpos = static_cast<size_t>(-1);
  const std::vector<Case> cases = {
      {"flip-early-metadata", 60, 0},        // inside lsn/dims lines
      {"flip-middle-row", size / 2, 0},      // inside the row block
      {"flip-embedded-cube", size - 40, 0},  // inside the embedded cube
      {"truncate-half", kNpos, size / 2},
      {"truncate-tail", kNpos, size - 5},
      {"truncate-header", kNpos, 10},
  };
  for (const Case& damage : cases) {
    const std::string dir =
        FreshDir(std::string("ckpt_corrupt_") + damage.name);
    fs::create_directories(dir);
    const std::string copy = dir + "/checkpoint-0000000000000009.ckpt";
    fs::copy_file(ref_file, copy);
    if (damage.flip_offset == kNpos) {
      fs::resize_file(copy, damage.truncate_to);
    } else {
      std::fstream stream(copy,
                          std::ios::in | std::ios::out | std::ios::binary);
      stream.seekg(static_cast<std::streamoff>(damage.flip_offset));
      char byte = 0;
      stream.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x01);
      stream.seekp(static_cast<std::streamoff>(damage.flip_offset));
      stream.write(&byte, 1);
    }
    // Still listed (the name is intact) but must NEVER load.
    EXPECT_EQ(ListCheckpoints(dir), std::vector<uint64_t>{9}) << damage.name;
    EXPECT_FALSE(LoadCheckpoint(dir, 9).ok()) << damage.name;
  }
}

TEST(CheckpointTest, RejectsV1Header) {
  // v1 checkpoints (from before deletes existed) are no longer read. The
  // header is outside the checksum, so this file's digest still matches:
  // the header alone must refuse it.
  const std::string dir = FreshDir("ckpt_v1_header");
  const Dataset data = MakeData(20, 3, 2);
  Checkpointer checkpointer(dir, 1);
  ASSERT_TRUE(checkpointer.Write(4, data, ComputeStellar(data)).ok());
  std::ifstream file(dir + "/checkpoint-0000000000000004.ckpt",
                     std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  ASSERT_TRUE(ParseCheckpoint(text).ok());
  ASSERT_EQ(text.rfind("skycube-checkpoint v2\n", 0), 0u);
  text[text.find('\n') - 1] = '1';  // "skycube-checkpoint v1"
  Result<CheckpointData> parsed = ParseCheckpoint(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, LsnFilenameMismatchRejected) {
  const std::string dir = FreshDir("ckpt_rename_attack");
  const Dataset data = MakeData(20, 3, 1);
  Checkpointer checkpointer(dir, 1);
  ASSERT_TRUE(checkpointer.Write(3, data, ComputeStellar(data)).ok());
  // Rename the file to claim a different LSN: content says 3, name says 4.
  fs::rename(dir + "/checkpoint-0000000000000003.ckpt",
             dir + "/checkpoint-0000000000000004.ckpt");
  EXPECT_FALSE(LoadCheckpoint(dir, 4).ok());
}

}  // namespace
}  // namespace skycube
