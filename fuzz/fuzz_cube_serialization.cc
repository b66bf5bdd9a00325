// Fuzz target: the compressed-cube text codec (core/serialization.h) —
// the format embedded inside every checkpoint and served from disk.
//
// Modes (first input byte % 2):
//   0  raw bytes straight into DeserializeCube
//   1  the remaining bytes wrapped with a "skycube-cube v2" header and a
//      correct checksum (reaches the structural parser behind the digest)
//
// Properties: DeserializeCube never crashes or over-allocates; whatever
// it accepts re-serializes and re-parses to the same cube (projections
// compared bit-for-bit, so NaN payloads round-trip too).
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/serialization.h"
#include "fuzz_util.h"

using skycube::fuzz::BitEqual;
using skycube::fuzz::Expect;
using skycube::fuzz::InputReader;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  InputReader in(data, size);
  const uint8_t mode = in.TakeByte() % 2;
  const std::string_view rest = in.Rest();

  const std::string text =
      mode == 0 ? std::string(rest)
                : skycube::WrapChecksummed("skycube-cube v2", rest);

  skycube::Result<skycube::SerializedCube> first =
      skycube::DeserializeCube(text);
  if (!first.ok()) return 0;
  const skycube::SerializedCube& a = first.value();

  const std::string serialized = skycube::SerializeCube(
      a.num_dims, a.num_objects, a.groups, a.dim_names);
  skycube::Result<skycube::SerializedCube> second =
      skycube::DeserializeCube(serialized);
  Expect(second.ok(), "re-serialized cube must re-parse");
  const skycube::SerializedCube& b = second.value();
  Expect(a.num_dims == b.num_dims && a.num_objects == b.num_objects &&
             a.dim_names == b.dim_names && a.groups.size() == b.groups.size(),
         "cube round-trip must preserve shape and names");
  for (size_t i = 0; i < a.groups.size(); ++i) {
    Expect(a.groups[i].members == b.groups[i].members &&
               a.groups[i].max_subspace == b.groups[i].max_subspace &&
               a.groups[i].decisive_subspaces ==
                   b.groups[i].decisive_subspaces &&
               BitEqual(a.groups[i].projection, b.groups[i].projection),
           "cube round-trip must preserve every group");
  }
  return 0;
}
