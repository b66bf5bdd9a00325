#include "core/nonseed_extension.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"
#include "core/transversals.h"

namespace skycube {

namespace {

// Canonicalizes -0.0 to +0.0 so value-index lookups agree with operator==.
double CanonicalValue(double v) { return v == 0.0 ? 0.0 : v; }

// Per-dimension inverted index over the non-seed objects:
// index[dim][value] = non-seed ids having `value` on `dim`. Only values
// that some *seed* actually takes on that dimension are indexed — lookups
// always probe a seed group's projection, so everything else is dead
// weight (and on correlated data, where seeds are few, this shrinks the
// index by orders of magnitude).
class NonSeedValueIndex {
 public:
  NonSeedValueIndex(const Dataset& data, const std::vector<ObjectId>& seeds,
                    const std::vector<char>& is_seed)
      : maps_(data.num_dims()) {
    std::vector<std::unordered_set<double>> seed_values(data.num_dims());
    for (ObjectId seed : seeds) {
      const double* row = data.Row(seed);
      for (int dim = 0; dim < data.num_dims(); ++dim) {
        seed_values[dim].insert(CanonicalValue(row[dim]));
      }
    }
    for (ObjectId id = 0; id < data.num_objects(); ++id) {
      if (is_seed[id]) continue;
      const double* row = data.Row(id);
      for (int dim = 0; dim < data.num_dims(); ++dim) {
        const double value = CanonicalValue(row[dim]);
        if (seed_values[dim].count(value) > 0) {
          maps_[dim][value].push_back(id);
        }
      }
    }
  }

  static const std::vector<ObjectId>& Empty() {
    static const std::vector<ObjectId> kEmpty;
    return kEmpty;
  }

  /// Non-seeds whose value on `dim` equals `value`.
  const std::vector<ObjectId>& Matches(int dim, double value) const {
    auto it = maps_[dim].find(CanonicalValue(value));
    return it == maps_[dim].end() ? Empty() : it->second;
  }

 private:
  std::vector<std::unordered_map<double, std::vector<ObjectId>>> maps_;
};

// A relevant non-seed for the current seed group.
struct RelevantNonSeed {
  ObjectId id;
  DimMask share_mask;  // s_o ⊆ B'
};

}  // namespace

SkylineGroupSet ExtendWithNonSeeds(
    const Dataset& data, const std::vector<ObjectId>& seeds,
    const std::vector<SeedSkylineGroup>& seed_groups,
    NonSeedExtensionStats* stats, int num_threads) {
  std::vector<char> is_seed(data.num_objects(), 0);
  for (ObjectId seed : seeds) is_seed[seed] = 1;
  const NonSeedValueIndex index(data, seeds, is_seed);

  // Per-chunk outputs keep the parallel path deterministic: chunk results
  // are concatenated in order (final ordering is NormalizeGroups' job
  // anyway, but stats and tests like reproducible intermediate order).
  const int threads = EffectiveThreads(num_threads, seed_groups.size());
  std::vector<SkylineGroupSet> chunk_out(std::max(threads, 1));
  std::vector<NonSeedExtensionStats> chunk_stats(std::max(threads, 1));
  ParallelChunks(
      seed_groups.size(), threads, [&](int chunk, size_t begin, size_t end) {
        NonSeedExtensionStats& local_stats = chunk_stats[chunk];
        SkylineGroupSet& out = chunk_out[chunk];

        std::vector<RelevantNonSeed> relevant;
        std::vector<DimMask> edges;
        for (size_t group_index = begin; group_index < end; ++group_index) {
          const SeedSkylineGroup& seed_group = seed_groups[group_index];
          const DimMask b = seed_group.max_subspace;
          const ObjectId representative =
              seeds[seed_group.seed_indices.front()];
          const double* rep_row = data.Row(representative);

          // Collect the relevant non-seeds: s_o ⊇ some decisive C'_i (fact
          // F3). For each decisive, probe the value index on its most
          // selective dimension, then verify the full share-mask condition.
          relevant.clear();
          for (DimMask decisive : seed_group.decisive) {
            int best_dim = -1;
            size_t best_size = 0;
            ForEachDim(decisive, [&](int dim) {
              const size_t size = index.Matches(dim, rep_row[dim]).size();
              if (best_dim == -1 || size < best_size) {
                best_dim = dim;
                best_size = size;
              }
            });
            for (ObjectId candidate :
                 index.Matches(best_dim, rep_row[best_dim])) {
              const DimMask share =
                  data.CoincidenceMask(candidate, representative, b);
              if (!IsSubsetOf(decisive, share)) continue;
              relevant.push_back({candidate, share});
            }
          }
          // Deduplicate (an object can qualify via several decisives).
          std::sort(relevant.begin(), relevant.end(),
                    [](const RelevantNonSeed& x, const RelevantNonSeed& y) {
                      return x.id < y.id;
                    });
          relevant.erase(std::unique(relevant.begin(), relevant.end(),
                                     [](const RelevantNonSeed& x,
                                        const RelevantNonSeed& y) {
                                       return x.id == y.id;
                                     }),
                         relevant.end());
          local_stats.relevant_pairs += relevant.size();

          // Expand seed indices to object ids once.
          std::vector<ObjectId> seed_member_ids;
          seed_member_ids.reserve(seed_group.seed_indices.size());
          for (uint32_t seed_index : seed_group.seed_indices) {
            seed_member_ids.push_back(seeds[seed_index]);
          }
          std::sort(seed_member_ids.begin(), seed_member_ids.end());

          if (relevant.empty()) {
            // Unaffected: the seed group is a skyline group of S as-is (fact F4
            // with the only valid mask m = B' and no extra edges).
            SkylineGroup group;
            group.members = seed_member_ids;
            group.max_subspace = b;
            group.decisive_subspaces = seed_group.decisive;
            group.projection = data.Projection(representative, b);
            out.push_back(std::move(group));
            continue;
          }

          // Candidate masks: the intersection-closed family generated by B' and
          // the share masks (fact F4). Typically a handful of masks.
          std::set<DimMask> mask_family = {b};
          for (const RelevantNonSeed& entry : relevant) {
            std::vector<DimMask> new_masks;
            for (DimMask m : mask_family) {
              new_masks.push_back(m & entry.share_mask);
            }
            mask_family.insert(new_masks.begin(), new_masks.end());
          }

          for (DimMask m : mask_family) {
            // The derived mask must still contain a seed decisive (fact F1).
            bool contains_decisive = false;
            for (DimMask decisive : seed_group.decisive) {
              if (IsSubsetOf(decisive, m)) {
                contains_decisive = true;
                break;
              }
            }
            if (!contains_decisive) continue;

            // T(m) and the dimension-closure check: (G' ∪ T(m)) must share
            // exactly m, otherwise the same member set is emitted at its true
            // (larger) mask.
            DimMask closure = b;
            std::vector<ObjectId> extra_members;
            for (const RelevantNonSeed& entry : relevant) {
              if (IsSubsetOf(m, entry.share_mask)) {
                extra_members.push_back(entry.id);
                closure &= entry.share_mask;
              }
            }
            if (closure != m) continue;

            // Decisive subspaces of the derived group: seed edges restricted
            // to m plus one edge per relevant non-seed outside the group
            // (fact F4).
            edges.clear();
            for (DimMask edge : seed_group.reduced_edges) {
              edges.push_back(edge & m);
            }
            // A relevant non-seed outside the group cannot dominate or tie the
            // group value on m (it would otherwise be a member), so its edge is
            // non-empty; guard anyway.
            for (const RelevantNonSeed& entry : relevant) {
              if (IsSubsetOf(m, entry.share_mask)) continue;  // a member
              const DimMask edge =
                  data.DominanceMask(representative, entry.id, m);
              SKYCUBE_DCHECK(edge != 0);
              edges.push_back(edge);
            }

            SkylineGroup group;
            group.members.reserve(seed_member_ids.size() +
                                  extra_members.size());
            std::sort(extra_members.begin(), extra_members.end());
            std::merge(seed_member_ids.begin(), seed_member_ids.end(),
                       extra_members.begin(), extra_members.end(),
                       std::back_inserter(group.members));
            group.max_subspace = m;
            group.decisive_subspaces = DecisiveFromEdges(std::move(edges), m);
            group.projection = data.Projection(representative, m);
            if (m != b || !extra_members.empty()) ++local_stats.derived_groups;
            out.push_back(std::move(group));
          }
        }
      });  // ParallelChunks

  SkylineGroupSet out;
  out.reserve(seed_groups.size());
  NonSeedExtensionStats local_stats;
  for (int chunk = 0; chunk < static_cast<int>(chunk_out.size()); ++chunk) {
    for (SkylineGroup& group : chunk_out[chunk]) {
      out.push_back(std::move(group));
    }
    local_stats.relevant_pairs += chunk_stats[chunk].relevant_pairs;
    local_stats.derived_groups += chunk_stats[chunk].derived_groups;
  }
  if (stats != nullptr) *stats = local_stats;
  return out;
}

}  // namespace skycube
