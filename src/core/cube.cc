#include "core/cube.h"

#include <algorithm>
#include <bit>
#include <compare>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/interval_counting.h"

namespace skycube {

namespace {

// Decisive-subspace index limit: 2^16 + 1 bucket offsets and 2^16
// walk-or-scan flags.
constexpr int kMaxIndexedDims = 16;

uint32_t Offset(size_t size) {
  SKYCUBE_CHECK_MSG(size <= std::numeric_limits<uint32_t>::max(),
                    "cube too large for 32-bit offsets");
  return static_cast<uint32_t>(size);
}

// Fills a CSR map from keys to group ids, ascending within each key.
// `keys_of(g)` lists group g's keys, each < num_keys.
template <typename KeysOf>
void BuildCsr(size_t num_keys, size_t num_groups, KeysOf keys_of,
              std::vector<uint32_t>* offsets, std::vector<uint32_t>* values) {
  offsets->assign(num_keys + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    for (auto key : keys_of(g)) ++(*offsets)[key];
  }
  // (*offsets)[k] becomes the end of k's range; filling backwards moves it
  // to the start.
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  values->resize(offsets->back());
  for (size_t g = num_groups; g-- > 0;) {
    for (auto key : keys_of(g)) {
      (*values)[--(*offsets)[key]] = static_cast<uint32_t>(g);
    }
  }
}

}  // namespace

CompressedSkylineCube::CompressedSkylineCube(int num_dims, size_t num_objects,
                                             const SkylineGroupSet& groups)
    : num_dims_(num_dims), num_objects_(num_objects) {
  const size_t n = groups.size();
  size_t total_members = 0;
  size_t total_decisives = 0;
  for (const SkylineGroup& group : groups) {
    total_members += group.members.size();
    total_decisives += group.decisive_subspaces.size();
  }
  // Members in input order, each list sorted, to find the canonical order.
  members_.reserve(total_members);
  member_offsets_.reserve(n + 1);
  member_offsets_.push_back(0);
  for (const SkylineGroup& group : groups) {
    members_.insert(members_.end(), group.members.begin(),
                    group.members.end());
    std::sort(members_.end() - group.members.size(), members_.end());
    member_offsets_.push_back(Offset(members_.size()));
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto canonical = [&](uint32_t a, uint32_t b) {
    const std::span<const ObjectId> ma = Members(a);
    const std::span<const ObjectId> mb = Members(b);
    const auto members = std::lexicographical_compare_three_way(
        ma.begin(), ma.end(), mb.begin(), mb.end());
    if (members != 0) return members < 0;
    return groups[a].max_subspace < groups[b].max_subspace;
  };
  if (!std::is_sorted(order.begin(), order.end(), canonical)) {
    std::stable_sort(order.begin(), order.end(), canonical);
    std::vector<ObjectId> members;
    members.reserve(total_members);
    std::vector<uint32_t> offsets{0};
    offsets.reserve(n + 1);
    for (uint32_t g : order) {
      const std::span<const ObjectId> slice = Members(g);
      members.insert(members.end(), slice.begin(), slice.end());
      offsets.push_back(Offset(members.size()));
    }
    members_ = std::move(members);
    member_offsets_ = std::move(offsets);
  }

  const DimMask full = FullMask(num_dims);
  max_subspaces_.reserve(n);
  decisives_.reserve(total_decisives);
  decisive_offsets_.reserve(n + 1);
  decisive_offsets_.push_back(0);
  for (uint32_t g : order) {
    const SkylineGroup& group = groups[g];
    SKYCUBE_CHECK_MSG(IsSubsetOf(group.max_subspace, full),
                      "max subspace beyond num_dims");
    max_subspaces_.push_back(group.max_subspace);
    for (DimMask decisive : group.decisive_subspaces) {
      SKYCUBE_CHECK_MSG(IsSubsetOf(decisive, group.max_subspace),
                        "decisive subspace outside the max subspace");
      decisives_.push_back(decisive);
    }
    std::sort(decisives_.end() - group.decisive_subspaces.size(),
              decisives_.end(), MaskSizeThenValueLess{});
    decisive_offsets_.push_back(Offset(decisives_.size()));
  }

  for (ObjectId member : members_) {
    SKYCUBE_CHECK_MSG(member < num_objects_, "member id out of range");
  }
  BuildCsr(
      num_objects_, n, [&](size_t g) { return Members(g); }, &object_offsets_,
      &object_groups_);
  if (num_dims <= kMaxIndexedDims) {
    const size_t masks = size_t{1} << num_dims;
    BuildCsr(
        masks, n, [&](size_t g) { return Decisives(g); }, &bucket_offsets_,
        &bucket_groups_);
    // reach[S]: the entries in the buckets C ⊆ S (bucket sizes summed over
    // submasks); holders[S]: the groups with S ⊆ B (summed over supermasks).
    std::vector<uint64_t> reach(masks);
    std::vector<uint64_t> holders(masks);
    for (size_t c = 0; c < masks; ++c) {
      reach[c] = bucket_offsets_[c + 1] - bucket_offsets_[c];
    }
    for (DimMask b : max_subspaces_) ++holders[b];
    for (int dim = 0; dim < num_dims; ++dim) {
      for (size_t s = 0; s < masks; ++s) {
        if ((s & DimBit(dim)) == 0) continue;
        reach[s] += reach[s ^ DimBit(dim)];
        holders[s ^ DimBit(dim)] += holders[s];
      }
    }
    // The walk visits 2^|S| buckets and reach[S] entries. The scan tests
    // all n maximal subspaces and at least one decisive subspace of each of
    // the holders[S] groups that pass: walk when that is no more visits.
    walk_index_.resize(masks);
    for (size_t s = 0; s < masks; ++s) {
      walk_index_[s] =
          (uint64_t{1} << MaskSize(s)) + reach[s] <= n + holders[s];
    }
  }
}

CompressedSkylineCube::GroupView CompressedSkylineCube::group(
    size_t index) const {
  SKYCUBE_CHECK(index < num_groups());
  return {Members(index), max_subspaces_[index], Decisives(index)};
}

template <typename Visit>
void CompressedSkylineCube::ForEachCoveringGroup(DimMask subspace,
                                                 const CancelToken* cancel,
                                                 Visit&& visit) const {
  if (!IsSubsetOf(subspace, FullMask(num_dims_))) return;
  const size_t n = num_groups();
  if (!walk_index_.empty() && walk_index_[subspace]) {
    // A group is found once per decisive subspace inside S: mark it, then
    // visit the marks in group order.
    CancelPoll poll(cancel);
    std::vector<uint64_t> marks((n + 63) / 64, 0);
    for (DimMask c = subspace;; c = (c - 1) & subspace) {
      if (poll.ShouldStop()) break;  // partial; caller checks token
      for (uint32_t i = bucket_offsets_[c]; i < bucket_offsets_[c + 1]; ++i) {
        const uint32_t g = bucket_groups_[i];
        if (IsSubsetOf(subspace, max_subspaces_[g])) {
          marks[g / 64] |= uint64_t{1} << (g % 64);
        }
      }
      if (c == 0) break;
    }
    for (size_t word = 0; word < marks.size(); ++word) {
      for (uint64_t bits = marks[word]; bits != 0; bits &= bits - 1) {
        visit(word * 64 + std::countr_zero(bits));
      }
    }
    return;
  }
  // Most groups fail the subset test in a few instructions, fewer than a
  // poll costs: poll once per block of 64 groups.
  CancelPoll poll(cancel, 1);
  for (size_t begin = 0; begin < n; begin += 64) {
    if (poll.ShouldStop()) return;  // partial; caller checks token
    const size_t end = std::min(n, begin + 64);
    for (size_t g = begin; g < end; ++g) {
      if (Covers(g, subspace)) visit(g);
    }
  }
}

std::vector<ObjectId> CompressedSkylineCube::SubspaceSkyline(
    DimMask subspace, const CancelToken* cancel) const {
  std::vector<ObjectId> result;
  ForEachCoveringGroup(subspace, cancel, [&](size_t g) {
    const std::span<const ObjectId> members = Members(g);
    result.insert(result.end(), members.begin(), members.end());
  });
  // Covering groups are pairwise disjoint and come in canonical order, so
  // the ids are often ascending already: sort only when they are not, and
  // deduplicate defensively.
  if (!std::is_sorted(result.begin(), result.end())) {
    std::sort(result.begin(), result.end());
  }
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

size_t CompressedSkylineCube::SkylineCardinality(
    DimMask subspace, const CancelToken* cancel) const {
  size_t count = 0;
  ForEachCoveringGroup(subspace, cancel,
                       [&](size_t g) { count += Members(g).size(); });
  return count;
}

std::vector<size_t> CompressedSkylineCube::GroupsCoveringSubspace(
    DimMask subspace) const {
  std::vector<size_t> indices;
  ForEachCoveringGroup(subspace, nullptr,
                       [&](size_t g) { indices.push_back(g); });
  return indices;
}

bool CompressedSkylineCube::IsInSubspaceSkyline(ObjectId object,
                                                DimMask subspace) const {
  SKYCUBE_CHECK(object < num_objects_);
  for (uint32_t g : GroupsOf(object)) {
    if (Covers(g, subspace)) return true;
  }
  return false;
}

std::vector<CompressedSkylineCube::SkylineInterval>
CompressedSkylineCube::MembershipIntervals(ObjectId object) const {
  SKYCUBE_CHECK(object < num_objects_);
  std::vector<SkylineInterval> intervals;
  for (uint32_t g : GroupsOf(object)) {
    for (DimMask decisive : Decisives(g)) {
      intervals.push_back({decisive, max_subspaces_[g], g});
    }
  }
  return intervals;
}

std::vector<DimMask> CompressedSkylineCube::SubspacesWhereSkyline(
    ObjectId object) const {
  SKYCUBE_CHECK_MSG(num_dims_ <= 24,
                    "explicit enumeration limited to 24 dimensions");
  std::set<DimMask> subspaces;
  for (const SkylineInterval& interval : MembershipIntervals(object)) {
    const DimMask free = interval.upper & ~interval.lower;
    // All A = lower ∪ (subset of free).
    DimMask sub = free;
    for (;;) {
      subspaces.insert(interval.lower | sub);
      if (sub == 0) break;
      sub = (sub - 1) & free;
    }
  }
  std::vector<DimMask> out(subspaces.begin(), subspaces.end());
  std::sort(out.begin(), out.end(), MaskSizeThenValueLess{});
  return out;
}

std::vector<DimMask> CompressedSkylineCube::SubspacesWhereAllSkyline(
    const std::vector<ObjectId>& objects) const {
  if (objects.empty()) return {};
  // Intersect the per-object enumerations, smallest candidate set first.
  std::vector<DimMask> common = SubspacesWhereSkyline(objects.front());
  for (size_t i = 1; i < objects.size() && !common.empty(); ++i) {
    std::vector<DimMask> kept;
    kept.reserve(common.size());
    for (DimMask subspace : common) {
      if (IsInSubspaceSkyline(objects[i], subspace)) {
        kept.push_back(subspace);
      }
    }
    common = std::move(kept);
  }
  return common;
}

uint64_t CompressedSkylineCube::CountSubspacesWhereSkyline(
    ObjectId object, const CancelToken* cancel) const {
  SKYCUBE_CHECK(object < num_objects_);
  uint64_t total = 0;
  // Inclusion–exclusion per group can be exponential in the decisive count,
  // so poll per group with stride 1.
  CancelPoll poll(cancel, 1);
  for (uint32_t g : GroupsOf(object)) {
    if (poll.ShouldStop()) return total;  // partial; caller checks token
    // Distinct groups of one object cover disjoint subspace sets (two
    // covering groups at the same subspace would both equal its tie class).
    total += CountCoveredSubspaces(max_subspaces_[g], Decisives(g));
  }
  return total;
}

uint64_t CompressedSkylineCube::TotalSubspaceSkylineObjects(
    const CancelToken* cancel) const {
  uint64_t total = 0;
  CancelPoll poll(cancel, 16);
  for (size_t g = 0; g < num_groups(); ++g) {
    if (poll.ShouldStop()) return total;  // partial; caller checks token
    total += Members(g).size() *
             CountCoveredSubspaces(max_subspaces_[g], Decisives(g));
  }
  return total;
}

}  // namespace skycube
