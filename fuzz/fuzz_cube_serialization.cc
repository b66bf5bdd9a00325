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
// compared bit-for-bit, so NaN payloads round-trip too). An accepted cube
// of at most 4096 objects (the object map is O(num_objects)) also answers
// Q1 like a brute scan over the parsed groups, on the full space and on
// up to four subspaces read from the input's last 32 bytes: both the
// decisive-subspace index and the group scan must keep the scan's meaning
// on group sets Stellar never emits (overlapping or unsorted members, up
// to 64 dimensions).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/cube.h"
#include "core/serialization.h"
#include "fuzz_util.h"

using skycube::DimMask;
using skycube::ObjectId;
using skycube::fuzz::BitEqual;
using skycube::fuzz::Expect;
using skycube::fuzz::InputReader;

namespace {

void ExpectQ1MatchesScan(const skycube::SerializedCube& parsed,
                         const skycube::CompressedSkylineCube& cube,
                         DimMask subspace) {
  std::vector<ObjectId> expected;
  size_t count = 0;
  for (const skycube::SkylineGroup& group : parsed.groups) {
    if (!skycube::IsSubsetOf(subspace, group.max_subspace) ||
        std::none_of(group.decisive_subspaces.begin(),
                     group.decisive_subspaces.end(), [&](DimMask decisive) {
                       return skycube::IsSubsetOf(decisive, subspace);
                     })) {
      continue;
    }
    expected.insert(expected.end(), group.members.begin(),
                    group.members.end());
    count += group.members.size();
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  Expect(cube.SubspaceSkyline(subspace) == expected,
         "Q1 must equal a scan over the parsed groups");
  Expect(cube.SkylineCardinality(subspace) == count,
         "Q1 cardinality must equal the covering groups' member count");
}

}  // namespace

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

  if (a.num_objects > 4096) return 0;
  const skycube::CompressedSkylineCube cube(a.num_dims, a.num_objects,
                                            a.groups);
  const DimMask full = skycube::FullMask(a.num_dims);
  ExpectQ1MatchesScan(a, cube, full);
  for (size_t end = size; end >= 8 && size - end < 32; end -= 8) {
    DimMask subspace = 0;
    for (size_t i = 0; i < 8; ++i) {
      subspace |= static_cast<DimMask>(data[end - 8 + i]) << (8 * i);
    }
    ExpectQ1MatchesScan(a, cube, subspace & full);
  }
  return 0;
}
