#include "common/subspace.h"

#include <algorithm>
#include <string>
#include <vector>

namespace skycube {

std::vector<int> MaskDims(DimMask mask) {
  std::vector<int> dims;
  dims.reserve(MaskSize(mask));
  ForEachDim(mask, [&](int dim) { dims.push_back(dim); });
  return dims;
}

DimMask MaskFromLetters(const std::string& letters, int num_dims) {
  DimMask mask = 0;
  for (char c : letters) {
    SKYCUBE_CHECK_MSG(c >= 'A' && c <= 'Z', "subspace letters must be A-Z");
    const int dim = c - 'A';
    SKYCUBE_CHECK_MSG(dim < num_dims, "dimension letter beyond num_dims");
    mask |= DimBit(dim);
  }
  return mask;
}

std::string FormatMask(DimMask mask) {
  if (mask == 0) return "{}";
  if ((mask >> 26) != 0) return FormatMaskNumeric(mask);
  std::string out;
  ForEachDim(mask,
             [&](int dim) { out.push_back(static_cast<char>('A' + dim)); });
  return out;
}

std::string FormatMaskNumeric(DimMask mask) {
  std::string out = "{";
  bool first = true;
  ForEachDim(mask, [&](int dim) {
    if (!first) out += ",";
    out += std::to_string(dim);
    first = false;
  });
  out += "}";
  return out;
}

namespace {

// Shared frontier filter: keeps masks for which `drop(other, m)` is false
// for every other kept mask.
std::vector<DimMask> FilterFrontier(std::vector<DimMask> masks,
                                    bool keep_smallest) {
  std::sort(masks.begin(), masks.end(), MaskSizeThenValueLess{});
  if (!keep_smallest) std::reverse(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  std::vector<DimMask> kept;
  for (DimMask m : masks) {
    bool dominated = false;
    for (DimMask k : kept) {
      const bool drop = keep_smallest ? IsSubsetOf(k, m) : IsSubsetOf(m, k);
      if (drop) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(m);
  }
  std::sort(kept.begin(), kept.end(), MaskSizeThenValueLess{});
  return kept;
}

}  // namespace

std::vector<DimMask> MinimalMasks(std::vector<DimMask> masks) {
  return FilterFrontier(std::move(masks), /*keep_smallest=*/true);
}

std::vector<DimMask> MaximalMasks(std::vector<DimMask> masks) {
  return FilterFrontier(std::move(masks), /*keep_smallest=*/false);
}

}  // namespace skycube
