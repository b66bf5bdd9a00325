// Direct properties of the replication shipped-record codec
// (EncodeShippedRecords / DecodeShippedRecords) — previously exercised
// only end-to-end through the replication harness. The codec carries the
// primary's WAL bytes to followers, so its contract is: exact round-trip
// of every record, canonical bytes (decode ∘ encode = identity), and a
// clean kInvalidArgument — never a crash or a silent partial batch — on
// every truncation and on corruption that changes the structure.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "storage/replication.h"
#include "storage/wal.h"

namespace skycube {
namespace {

std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> records;
  records.push_back({101, EncodeInsertPayload({1.5, -2.0, 3.25}, 7,
                                              1700000000000)});
  records.push_back({102, EncodeDeletePayload(3, 1700000000500)});
  records.push_back({103, EncodeInsertPayload({9.0, 8.0, 7.0}, 8, 0)});
  records.push_back({104, std::string()});                      // empty payload
  records.push_back({105, std::string(1000, '\xab')});          // binary blob
  return records;
}

TEST(ReplicationCodecTest, RoundTripPreservesEveryRecord) {
  const std::vector<WalRecord> records = SampleRecords();
  const std::string encoded = EncodeShippedRecords(records);
  Result<std::vector<WalRecord>> decoded = DecodeShippedRecords(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].lsn, records[i].lsn) << "record " << i;
    EXPECT_EQ(decoded.value()[i].payload, records[i].payload)
        << "record " << i;
  }
}

TEST(ReplicationCodecTest, EmptyBatchRoundTrips) {
  const std::string encoded = EncodeShippedRecords({});
  EXPECT_TRUE(encoded.empty());
  Result<std::vector<WalRecord>> decoded = DecodeShippedRecords(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(ReplicationCodecTest, EncodingIsCanonical) {
  // decode ∘ encode must reproduce the exact bytes: followers re-append
  // payloads verbatim, so any re-encoding ambiguity would fork replicas.
  const std::string encoded = EncodeShippedRecords(SampleRecords());
  Result<std::vector<WalRecord>> decoded = DecodeShippedRecords(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeShippedRecords(decoded.value()), encoded);
}

TEST(ReplicationCodecTest, EveryPrefixTruncationFailsCleanly) {
  const std::string encoded = EncodeShippedRecords(SampleRecords());
  // Every strict prefix is either a valid shorter batch (a cut exactly on
  // a record boundary) or kInvalidArgument — never a crash, and never a
  // record the full batch does not contain.
  const std::vector<WalRecord> full =
      DecodeShippedRecords(encoded).value();
  size_t boundary_cuts = 0;
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Result<std::vector<WalRecord>> decoded =
        DecodeShippedRecords(std::string_view(encoded).substr(0, cut));
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "cut at " << cut;
      continue;
    }
    ++boundary_cuts;
    ASSERT_LE(decoded.value().size(), full.size());
    for (size_t i = 0; i < decoded.value().size(); ++i) {
      EXPECT_EQ(decoded.value()[i].lsn, full[i].lsn);
      EXPECT_EQ(decoded.value()[i].payload, full[i].payload);
    }
  }
  // Cuts on record boundaries (including the empty prefix) parse; there
  // are exactly as many as there are records.
  EXPECT_EQ(boundary_cuts, full.size());
}

TEST(ReplicationCodecTest, PerByteCorruptionNeverCrashes) {
  const std::vector<WalRecord> records = SampleRecords();
  const std::string encoded = EncodeShippedRecords(records);
  for (size_t pos = 0; pos < encoded.size(); ++pos) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupted = encoded;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ bit);
      // The codec has no checksum of its own (the frame layer carries
      // one), so a flipped byte may decode as a *different* batch — but
      // it must either fail with kInvalidArgument or return records whose
      // total payload volume stays bounded by the input size.
      Result<std::vector<WalRecord>> decoded =
          DecodeShippedRecords(corrupted);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
            << "corrupt byte " << pos;
        continue;
      }
      size_t payload_bytes = 0;
      for (const WalRecord& record : decoded.value()) {
        payload_bytes += record.payload.size();
      }
      EXPECT_LE(payload_bytes, corrupted.size())
          << "decoded more payload than input bytes at " << pos;
    }
  }
}

TEST(ReplicationCodecTest, TrailingBytesRejected) {
  std::string encoded = EncodeShippedRecords(SampleRecords());
  encoded.append("x");
  Result<std::vector<WalRecord>> decoded = DecodeShippedRecords(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReplicationCodecTest, OversizedDeclaredLengthRejectedWithoutAllocating) {
  // A batch whose one record declares ~4 GiB of payload but carries 4
  // bytes: the decoder must reject from the *available* size, not resize
  // to the declared one.
  std::string bytes;
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(i == 0));
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(0xff));
  bytes.append("abcd");
  Result<std::vector<WalRecord>> decoded = DecodeShippedRecords(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skycube
