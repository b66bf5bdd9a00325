// Shared helpers for the decoder fuzz harnesses (docs/STATIC_ANALYSIS.md,
// "Fuzzing & memory sanitizer").
//
// Every harness follows the same contract: LLVMFuzzerTestOneInput must
// never crash, overflow, or allocate unboundedly on arbitrary bytes, and
// whenever a decode *succeeds* the harness re-encodes and re-decodes to
// assert the round-trip property. Violations abort() — under libFuzzer
// that is a finding with a reproducer; under the plain-build replay
// driver (fuzz_driver.cc) it is a failing ctest.
//
// Structure-aware inputs: most harnesses treat the first input byte as a
// mode selector. Mode 0 is always "raw bytes straight into the decoder";
// higher modes wrap the remaining bytes so checksum/framing gates pass and
// the fuzzer reaches the structural validation underneath (a mutation-only
// fuzzer essentially never forges an FNV-1a digest on its own). The text
// formats wrap through WrapChecksummed (core/serialization.h), the one
// envelope the cube file and the checkpoint share.
#ifndef SKYCUBE_FUZZ_FUZZ_UTIL_H_
#define SKYCUBE_FUZZ_FUZZ_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace skycube::fuzz {

/// Round-trip assertion: prints the property that broke, then aborts so
/// the fuzzing engine (or the replay driver) records a finding.
inline void Expect(bool ok, const char* property) {
  if (ok) return;
  std::fprintf(stderr, "fuzz: round-trip property violated: %s\n", property);
  std::abort();
}

/// Sequential little-endian reader over the raw fuzz input. Reads past the
/// end yield zeros — harnesses use it for *deriving* structure (modes,
/// chunk sizes), never for the bytes under test.
class InputReader {
 public:
  InputReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t TakeByte() {
    return pos_ < size_ ? data_[pos_++] : 0;
  }

  uint32_t TakeU32() {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(TakeByte()) << (8 * i);
    }
    return value;
  }

  /// The unconsumed remainder as a string_view.
  std::string_view Rest() const {
    return std::string_view(reinterpret_cast<const char*>(data_ + pos_),
                            size_ - pos_);
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Bit-pattern equality for double vectors: binary codecs carry doubles
/// verbatim, so a NaN payload must round-trip to the *same* NaN — `==`
/// would report a spurious mismatch (NaN != NaN) on a perfect codec.
inline bool BitEqual(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

inline void AppendU32Le(uint32_t value, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

inline void AppendU64Le(uint64_t value, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

/// A correctly framed net-protocol frame around `payload` (u32 len |
/// u64 FNV-1a checksum | payload) — built here rather than via
/// net::AppendFrame so the harness still compiles if the encoder under
/// test is the thing being broken.
inline std::string FramedPayload(std::string_view payload) {
  std::string out;
  AppendU32Le(static_cast<uint32_t>(payload.size()), &out);
  AppendU64Le(Fnv1a64(payload), &out);
  out.append(payload);
  return out;
}

/// A correctly checksummed WAL record (u32 len | u64 lsn | u64 digest |
/// payload); the digest covers the len and lsn fields plus the payload,
/// mirroring storage/wal.cc.
inline std::string WalRecordBytes(uint64_t lsn, std::string_view payload) {
  std::string out;
  AppendU32Le(static_cast<uint32_t>(payload.size()), &out);
  AppendU64Le(lsn, &out);
  AppendU64Le(Fnv1a64(payload, Fnv1a64(out)), &out);
  out.append(payload);
  return out;
}

}  // namespace skycube::fuzz

#endif  // SKYCUBE_FUZZ_FUZZ_UTIL_H_
