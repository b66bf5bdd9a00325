// Text serialization of a compressed skyline cube, so a computed cube can
// be stored next to the data and reloaded for querying without recomputing
// (the cube is the *materialized* summary the paper proposes to keep).
//
// Format (line-oriented, whitespace-separated, version-tagged):
//   skycube-cube v2
//   checksum <fnv1a64-hex>                    (over everything below)
//   dims <d> objects <n> groups <g>
//   names <name0> <name1> ...                 (optional; no whitespace)
//   <member_count> <members...> <max_subspace> <decisive_count>
//       <decisives...> <projection...>        (one line per group)
// Masks are decimal DimMask values; projections use max-precision doubles.
// v2 is the only version written or read: any other header, the checksum-
// less v1 included, is kInvalidArgument. A failed checksum (truncation, bit
// flips) loads as StatusCode::kInternal; structural violations as
// kInvalidArgument. The header and checksum lines are the checksummed-text
// envelope below, which the checkpoint file (storage/checkpointer.h) uses
// too.
#ifndef SKYCUBE_CORE_SERIALIZATION_H_
#define SKYCUBE_CORE_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/skyline_group.h"

namespace skycube {

/// The checksummed-text envelope: `header`, a newline, "checksum " and the
/// payload's 16-hex-digit FNV-1a 64 digest, a newline, then `payload`.
std::string WrapChecksummed(std::string_view header, std::string_view payload);

/// Checks the envelope and returns the payload it covers, a view into
/// `text`. A first line other than `header` is kInvalidArgument; a
/// malformed checksum line or a digest that does not match the payload is
/// kInternal.
[[nodiscard]] Result<std::string_view> UnwrapChecksummed(
    std::string_view text, std::string_view header);

/// A deserialized cube with its space metadata.
struct SerializedCube {
  int num_dims = 0;
  size_t num_objects = 0;
  /// Dimension names when the file carries them; empty otherwise.
  std::vector<std::string> dim_names;
  SkylineGroupSet groups;
};

/// Serializes to the text format above. `dim_names`, when non-empty, must
/// have num_dims entries; whitespace inside names becomes '_'.
std::string SerializeCube(int num_dims, size_t num_objects,
                          const SkylineGroupSet& groups,
                          const std::vector<std::string>& dim_names = {});

/// Parses the text format; validates header, counts, arities and mask
/// ranges. Round-trips exactly (doubles are emitted with max_digits10).
[[nodiscard]] Result<SerializedCube> DeserializeCube(const std::string& text);

/// File convenience wrappers.
Status SaveCubeToFile(const std::string& path, int num_dims,
                      size_t num_objects, const SkylineGroupSet& groups,
                      const std::vector<std::string>& dim_names = {});
[[nodiscard]] Result<SerializedCube> LoadCubeFromFile(const std::string& path);

}  // namespace skycube

#endif  // SKYCUBE_CORE_SERIALIZATION_H_
