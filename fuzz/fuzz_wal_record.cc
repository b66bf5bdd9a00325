// Fuzz target: the WAL payload codec — DecodeOpPayload (v3 op records)
// over arbitrary payload bytes. Record framing (len|lsn|checksum) is the
// segment harness's job; this one lands every mutation directly on the
// payload parser, the layer a checksummed-but-hostile record reaches.
//
// Properties: never crashes or over-allocates; a payload that decodes
// re-encodes (via the matching encoder) to the exact same bytes, and those
// decode to the same op/values — encode ∘ decode is the identity on the
// wire bytes.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "fuzz_util.h"
#include "storage/wal.h"

using skycube::fuzz::BitEqual;
using skycube::fuzz::Expect;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view payload(reinterpret_cast<const char*>(data), size);

  skycube::Result<skycube::WalOpRecord> first =
      skycube::DecodeOpPayload(payload);
  if (!first.ok()) return 0;
  const skycube::WalOpRecord& a = first.value();
  const std::string encoded =
      a.op == skycube::WalOp::kInsert
          ? skycube::EncodeInsertPayload(a.values, a.row, a.timestamp_ms)
          : skycube::EncodeDeletePayload(a.row, a.timestamp_ms);
  // The codec is canonical: decode ∘ encode must reproduce the exact wire
  // bytes, not just an equivalent record.
  Expect(encoded == payload,
         "op payload encoding must be canonical (byte-identical)");
  skycube::Result<skycube::WalOpRecord> second =
      skycube::DecodeOpPayload(encoded);
  Expect(second.ok(), "re-encoded op payload must re-decode");
  const skycube::WalOpRecord& b = second.value();
  Expect(a.op == b.op && a.timestamp_ms == b.timestamp_ms &&
             BitEqual(a.values, b.values) && a.row == b.row,
         "op payload round-trip must preserve every field");
  return 0;
}
