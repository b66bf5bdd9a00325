// Algorithm Stellar (the paper's contribution, §5): computes the complete
// set of skyline groups and decisive subspaces — the compressed skyline
// cube — by searching only the full-space skyline, never the 2^d − 1
// subspaces.
//
// Pipeline (paper Figure 7):
//   1. full-space skyline F(S), gathered for the per-root rows of the
//      dominance/coincidence matrices (byproduct);
//   2. maximal c-groups over F(S), the groups of Fig. 6 found per root as
//      the closure of its coincidence masks under intersection
//      (core/cgroup_miner.h);
//   3. decisive subspaces per group via minimal transversals (Corollary 1);
//   4. drop c-groups with no non-empty decisive subspace;
//   5. accommodate non-seed objects (Theorem 5).
#ifndef SKYCUBE_CORE_STELLAR_H_
#define SKYCUBE_CORE_STELLAR_H_

#include <cstdint>

#include "core/skyline_group.h"
#include "dataset/dataset.h"

namespace skycube {

/// Stellar has no tuning knobs: it runs sequentially, as in the paper's
/// setting. The empty struct keeps ComputeStellar's signature, which
/// callers spell with an `{}` or `StellarOptions{}` argument.
struct StellarOptions {};

/// Phase timings and counters of one Stellar run. The library has one
/// dominance path, on the dataset's doubles (skyline/dominance.h), and
/// builds no rank-compressed view, so seconds_ranked_view stays 0; the
/// field is kept for perfbench, which reports it as dataset.ranked_view_s.
struct StellarStats {
  uint64_t num_objects = 0;
  uint64_t num_distinct_objects = 0;
  uint64_t num_seeds = 0;                  // |F(S)|
  uint64_t num_maximal_cgroups = 0;        // step 2 output
  uint64_t num_seed_skyline_groups = 0;    // after step 4
  uint64_t num_groups = 0;                 // final cube size
  double seconds_ranked_view = 0;
  double seconds_full_skyline = 0;
  double seconds_matrices = 0;             // gathering the seed rows
  double seconds_seed_groups = 0;          // steps 2–4
  double seconds_nonseed = 0;              // step 5
  double seconds_total = 0;
};

/// Computes the compressed skyline cube of `data` with Stellar. Returned
/// groups are normalized (NormalizeGroups); member ids refer to `data`
/// rows, with duplicate-bound objects expanded back into every group of
/// their representative.
SkylineGroupSet ComputeStellar(const Dataset& data,
                               const StellarOptions& options = {},
                               StellarStats* stats = nullptr);

}  // namespace skycube

#endif  // SKYCUBE_CORE_STELLAR_H_
