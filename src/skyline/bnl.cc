// Block-nested-loops skyline (Börzsönyi, Kossmann, Stocker, ICDE 2001).
// Maintains a window of incomparable objects; every incoming object is
// compared against the window, possibly evicting dominated window entries.
// With the dataset in memory the "blocks" degenerate to a single pass, which
// is the standard in-memory formulation.
#include <algorithm>
#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {

std::vector<ObjectId> SkylineBnl(const Dataset& data, DimMask subspace,
                                 const std::vector<ObjectId>& candidates) {
  std::vector<ObjectId> window;
  for (ObjectId candidate : candidates) {
    const double* row = data.Row(candidate);
    bool dominated = false;
    size_t keep = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      const DomOrder order = CompareRows(data.Row(window[i]), row, subspace);
      if (order == DomOrder::kFirstDominates) {
        dominated = true;
        // Window entries are pairwise incomparable, so nothing scanned so
        // far was evicted; retain the unscanned tail verbatim.
        for (size_t j = i; j < window.size(); ++j) window[keep++] = window[j];
        break;
      }
      if (order != DomOrder::kSecondDominates) {
        window[keep++] = window[i];  // incomparable or equal: keep
      }
      // kSecondDominates: candidate evicts window[i] (skip it).
    }
    window.resize(keep);
    if (!dominated) window.push_back(candidate);
  }
  std::sort(window.begin(), window.end());
  return window;
}

}  // namespace skycube
