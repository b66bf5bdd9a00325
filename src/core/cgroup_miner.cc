#include "core/cgroup_miner.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace skycube {

void MineBranch(uint32_t root, const std::vector<DimMask>& coincidence,
                DimMask universe, std::vector<MaximalCGroup>* out) {
  // Bucket the other objects by their non-empty mask co(root, o). Members
  // are pushed in order, so a bucket's front() is its smallest object.
  std::unordered_map<DimMask, size_t> bucket_of;
  std::vector<DimMask> masks;
  std::vector<std::vector<uint32_t>> buckets;
  for (uint32_t o = 0; o < coincidence.size(); ++o) {
    const DimMask mask = coincidence[o];
    if (o == root || mask == 0) continue;
    const auto [it, inserted] = bucket_of.emplace(mask, masks.size());
    if (inserted) {
      masks.push_back(mask);
      buckets.emplace_back();
    }
    buckets[it->second].push_back(o);
  }
  // Close {universe} ∪ masks under intersection. Every non-empty
  // intersection is reached by intersecting one mask at a time, because
  // each prefix of it is a superset and so non-empty too.
  std::vector<DimMask> closed = {universe};
  std::unordered_set<DimMask> seen = {universe};
  for (size_t i = 0; i < closed.size(); ++i) {
    for (DimMask mask : masks) {
      const DimMask b = closed[i] & mask;
      if (b != 0 && seen.insert(b).second) closed.push_back(b);
    }
  }
  // G_B = {root} ∪ the buckets whose mask contains B. It is in this branch
  // iff no member precedes the root.
  std::vector<uint32_t> members;
  for (DimMask b : closed) {
    bool in_branch = true;
    members.assign(1, root);
    for (size_t k = 0; k < masks.size() && in_branch; ++k) {
      if (!IsSubsetOf(b, masks[k])) continue;
      in_branch = buckets[k].front() > root;
      members.insert(members.end(), buckets[k].begin(), buckets[k].end());
    }
    if (!in_branch) continue;
    std::sort(members.begin(), members.end());
    out->push_back({members, b});
  }
}

std::vector<MaximalCGroup> MineMaximalCGroupsBruteForce(
    const Dataset& data, const std::vector<ObjectId>& seeds) {
  const size_t n = seeds.size();
  SKYCUBE_CHECK_MSG(n <= 20, "brute-force miner is exponential; n ≤ 20 only");
  const DimMask universe = data.full_mask();
  // Every pair's coincidence mask, computed once per call.
  std::vector<DimMask> masks(n * n);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      masks[a * n + b] = data.CoincidenceMask(seeds[a], seeds[b], universe);
    }
  }
  auto co = [&](uint32_t a, uint32_t b) { return masks[a * n + b]; };
  // For every non-empty subset, compute its shared mask; a subset is a
  // maximal c-group iff its shared mask is non-empty and both closure
  // directions are fixed points. Deduplicate via (closure of the subset).
  std::map<std::vector<uint32_t>, DimMask> closed;
  std::vector<uint32_t> subset;
  for (uint64_t bits = 1; bits < (uint64_t{1} << n); ++bits) {
    subset.clear();
    for (uint32_t i = 0; i < n; ++i) {
      if ((bits >> i) & 1) subset.push_back(i);
    }
    // Shared mask of the subset (pairwise coincidence against the first).
    DimMask shared = universe;
    for (uint32_t member : subset) shared &= co(subset.front(), member);
    if (shared == 0) continue;
    // Object closure: everything coinciding on the whole shared mask.
    std::vector<uint32_t> closure;
    for (uint32_t o = 0; o < n; ++o) {
      if (IsSubsetOf(shared, co(subset.front(), o))) closure.push_back(o);
    }
    // Recompute the shared mask of the closure (it can only stay equal:
    // absorbed objects contain `shared`, but be defensive).
    DimMask closed_mask = universe;
    for (uint32_t member : closure) closed_mask &= co(closure.front(), member);
    closed.emplace(std::move(closure), closed_mask);
  }
  std::vector<MaximalCGroup> out;
  out.reserve(closed.size());
  for (auto& [members, mask] : closed) {
    out.push_back({members, mask});
  }
  return out;
}

}  // namespace skycube
