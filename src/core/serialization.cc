#include "core/serialization.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/fault_injection.h"
#include "common/hash.h"

namespace skycube {

namespace {

constexpr std::string_view kCubeHeader = "skycube-cube v2";

std::string ChecksumHex(uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Parses the payload behind the envelope: the metadata line, the optional
/// names line, and the group lines.
Result<SerializedCube> ParseCubeBody(std::istream& is) {
  SerializedCube cube;
  size_t num_groups = 0;
  std::string k_dims;
  std::string k_objects;
  std::string k_groups;
  is >> k_dims >> cube.num_dims >> k_objects >> cube.num_objects >>
      k_groups >> num_groups;
  if (!is || k_dims != "dims" || k_objects != "objects" ||
      k_groups != "groups") {
    return Status::InvalidArgument("bad metadata line");
  }
  if (cube.num_dims < 1 || cube.num_dims > kMaxDims) {
    return Status::InvalidArgument("dims out of range");
  }
  const DimMask full = FullMask(cube.num_dims);
  // Optional names line.
  {
    std::streampos before = is.tellg();
    std::string maybe_names;
    if (is >> maybe_names && maybe_names == "names") {
      cube.dim_names.resize(cube.num_dims);
      for (std::string& name : cube.dim_names) {
        if (!(is >> name)) {
          return Status::InvalidArgument("truncated names line");
        }
      }
    } else {
      is.clear();
      is.seekg(before);
    }
  }
  // Bounded like the per-group reserves below: a corrupt group count must
  // fail on its missing lines, not allocate terabytes up front.
  cube.groups.reserve(std::min(num_groups, size_t{1} << 16));
  for (size_t g = 0; g < num_groups; ++g) {
    SkylineGroup group;
    size_t member_count = 0;
    if (!(is >> member_count) || member_count == 0 ||
        member_count > cube.num_objects) {
      return Status::InvalidArgument("bad member count in group " +
                                     std::to_string(g));
    }
    // Read element-by-element rather than resizing up front: a corrupt
    // count must fail on the first bad/missing token, not allocate first.
    group.members.reserve(std::min(member_count, size_t{1} << 16));
    for (size_t i = 0; i < member_count; ++i) {
      ObjectId member = 0;
      if (!(is >> member) || member >= cube.num_objects) {
        return Status::InvalidArgument("bad member id in group " +
                                       std::to_string(g));
      }
      group.members.push_back(member);
    }
    size_t decisive_count = 0;
    if (!(is >> group.max_subspace >> decisive_count) ||
        group.max_subspace == 0 || !IsSubsetOf(group.max_subspace, full) ||
        decisive_count == 0) {
      return Status::InvalidArgument("bad subspace data in group " +
                                     std::to_string(g));
    }
    group.decisive_subspaces.reserve(std::min(decisive_count, size_t{1} << 16));
    for (size_t i = 0; i < decisive_count; ++i) {
      DimMask decisive = 0;
      if (!(is >> decisive) || decisive == 0 ||
          !IsSubsetOf(decisive, group.max_subspace)) {
        return Status::InvalidArgument("bad decisive subspace in group " +
                                       std::to_string(g));
      }
      group.decisive_subspaces.push_back(decisive);
    }
    group.projection.resize(MaskSize(group.max_subspace));
    for (double& value : group.projection) {
      if (!(is >> value)) {
        return Status::InvalidArgument("bad projection in group " +
                                       std::to_string(g));
      }
    }
    cube.groups.push_back(std::move(group));
  }
  return cube;
}

}  // namespace

std::string WrapChecksummed(std::string_view header, std::string_view payload) {
  std::string text(header);
  text += "\nchecksum ";
  text += ChecksumHex(Fnv1a64(payload));
  text += '\n';
  text.append(payload);
  return text;
}

Result<std::string_view> UnwrapChecksummed(std::string_view text,
                                           std::string_view header) {
  const std::string name(header);
  if (!text.starts_with(name + "\n")) {
    return Status::InvalidArgument("bad header: expected '" + name + "'");
  }
  // "checksum ", 16 hex digits and a newline, then the payload.
  constexpr size_t kLineBytes = 9 + 16 + 1;
  const std::string_view line = text.substr(header.size() + 1, kLineBytes);
  if (line.size() != kLineBytes || !line.starts_with("checksum ") ||
      line.back() != '\n') {
    return Status::Internal("corrupt " + name + ": malformed checksum line");
  }
  const std::string_view payload = text.substr(header.size() + 1 + kLineBytes);
  if (ChecksumHex(Fnv1a64(payload)) != line.substr(9, 16)) {
    return Status::Internal("corrupt " + name +
                            ": checksum mismatch (truncated or bit-flipped)");
  }
  return payload;
}

std::string SerializeCube(int num_dims, size_t num_objects,
                          const SkylineGroupSet& groups,
                          const std::vector<std::string>& dim_names) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "dims " << num_dims << " objects " << num_objects << " groups "
     << groups.size() << "\n";
  if (!dim_names.empty()) {
    SKYCUBE_CHECK_MSG(static_cast<int>(dim_names.size()) == num_dims,
                      "dim_names must match num_dims");
    os << "names";
    for (std::string name : dim_names) {
      for (char& c : name) {
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
      }
      os << ' ' << name;
    }
    os << "\n";
  }
  for (const SkylineGroup& group : groups) {
    os << group.members.size();
    for (ObjectId member : group.members) os << ' ' << member;
    os << ' ' << group.max_subspace << ' ' << group.decisive_subspaces.size();
    for (DimMask decisive : group.decisive_subspaces) os << ' ' << decisive;
    for (double value : group.projection) os << ' ' << value;
    os << '\n';
  }
  return WrapChecksummed(kCubeHeader, os.str());
}

Result<SerializedCube> DeserializeCube(const std::string& text) {
  if (SKYCUBE_FAULT_POINT("serialization.load")) {
    return Status::Internal("fault injection: serialization.load");
  }
  Result<std::string_view> payload = UnwrapChecksummed(text, kCubeHeader);
  if (!payload.ok()) return payload.status();
  std::istringstream is{std::string(payload.value())};
  return ParseCubeBody(is);
}

Status SaveCubeToFile(const std::string& path, int num_dims,
                      size_t num_objects, const SkylineGroupSet& groups,
                      const std::vector<std::string>& dim_names) {
  std::ofstream file(path);
  if (!file) return Status::Internal("cannot open for write: " + path);
  file << SerializeCube(num_dims, num_objects, groups, dim_names);
  file.flush();
  if (!file) return Status::Internal("I/O error writing: " + path);
  return Status::Ok();
}

Result<SerializedCube> LoadCubeFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return DeserializeCube(buffer.str());
}

}  // namespace skycube
