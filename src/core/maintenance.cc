#include "core/maintenance.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/nonseed_extension.h"
#include "core/stellar.h"
#include "dataset/duplicate_binding.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {

namespace {

// Maps distinct-row member ids in `groups` to original object ids.
void ExpandGroups(
    const std::vector<std::vector<ObjectId>>& members_of_distinct,
    SkylineGroupSet* groups) {
  for (SkylineGroup& group : *groups) {
    std::vector<ObjectId> expanded;
    for (ObjectId distinct_id : group.members) {
      const std::vector<ObjectId>& twins = members_of_distinct[distinct_id];
      expanded.insert(expanded.end(), twins.begin(), twins.end());
    }
    std::sort(expanded.begin(), expanded.end());
    group.members = std::move(expanded);
  }
}

}  // namespace

const char* InsertPathName(InsertPath path) {
  switch (path) {
    case InsertPath::kDuplicate:
      return "duplicate";
    case InsertPath::kNoOp:
      return "noop";
    case InsertPath::kExtensionOnly:
      return "extension";
    case InsertPath::kFullRecompute:
      return "recompute";
  }
  return "unknown";
}

const char* DeletePathName(DeletePath path) {
  switch (path) {
    case DeletePath::kAlreadyDead:
      return "dead";
    case DeletePath::kMembershipPatch:
      return "patch";
    case DeletePath::kExtensionOnly:
      return "extension";
    case DeletePath::kFullRecompute:
      return "recompute";
  }
  return "unknown";
}

SkylineGroupSet StellarOverLive(const Dataset& data,
                                const std::vector<uint8_t>& live) {
  SKYCUBE_CHECK_MSG(live.size() == data.num_objects(),
                    "live flags must cover every row");
  Dataset compact(data.num_dims(), data.dim_names());
  std::vector<ObjectId> original_id;
  std::vector<double> row(data.num_dims());
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    if (!live[id]) continue;
    row.assign(data.Row(id), data.Row(id) + data.num_dims());
    compact.AddRow(row);
    original_id.push_back(id);
  }
  SkylineGroupSet groups = ComputeStellar(compact);
  for (SkylineGroup& group : groups) {
    for (ObjectId& member : group.members) member = original_id[member];
  }
  NormalizeGroups(&groups);
  return groups;
}

IncrementalCubeMaintainer::IncrementalCubeMaintainer(Dataset initial)
    : data_(std::move(initial)),
      distinct_(data_.num_dims(), data_.dim_names()),
      live_(data_.num_objects(), 1),
      timestamps_(data_.num_objects(), 0),
      num_live_(data_.num_objects()) {
  BuildDistinctView();
  RebuildFromScratch();
}

IncrementalCubeMaintainer::IncrementalCubeMaintainer(
    Dataset initial, std::vector<uint8_t> live,
    std::vector<uint64_t> timestamps)
    : data_(std::move(initial)),
      distinct_(data_.num_dims(), data_.dim_names()),
      live_(std::move(live)),
      timestamps_(std::move(timestamps)) {
  SKYCUBE_CHECK_MSG(live_.size() == data_.num_objects() &&
                        timestamps_.size() == data_.num_objects(),
                    "live/timestamp vectors must cover every row");
  num_live_ = static_cast<size_t>(
      std::count(live_.begin(), live_.end(), uint8_t{1}));
  BuildDistinctView();
  RebuildFromScratch();
}

void IncrementalCubeMaintainer::BuildDistinctView() {
  distinct_ = Dataset(data_.num_dims(), data_.dim_names());
  distinct_of_row_.clear();
  members_of_distinct_.clear();
  std::vector<double> row(data_.num_dims());
  for (ObjectId id = 0; id < data_.num_objects(); ++id) {
    if (!live_[id]) continue;
    row.assign(data_.Row(id), data_.Row(id) + data_.num_dims());
    auto [it, inserted] = distinct_of_row_.emplace(
        row, static_cast<ObjectId>(members_of_distinct_.size()));
    if (inserted) {
      distinct_.AddRow(row);
      members_of_distinct_.emplace_back();
    }
    members_of_distinct_[it->second].push_back(id);
  }
}

void IncrementalCubeMaintainer::RebuildDistinctView(bool remap_seeds) {
  // Capture the seed tuples by value before the old view is dropped; the
  // caller guarantees they all survive (delete-extension path only).
  std::vector<std::vector<double>> seed_rows;
  if (remap_seeds) {
    seed_rows.reserve(seeds_.size());
    for (ObjectId seed : seeds_) {
      seed_rows.emplace_back(distinct_.Row(seed),
                             distinct_.Row(seed) + distinct_.num_dims());
    }
  }
  BuildDistinctView();
  if (remap_seeds) {
    for (size_t i = 0; i < seeds_.size(); ++i) {
      auto it = distinct_of_row_.find(seed_rows[i]);
      SKYCUBE_CHECK_MSG(it != distinct_of_row_.end(),
                        "seed tuple vanished during non-seed delete");
      seeds_[i] = it->second;
    }
  }
}

void IncrementalCubeMaintainer::RebuildFromScratch() {
  ++stats_.full_recomputes;
  seeds_ = ComputeSkyline(distinct_, distinct_.full_mask());
  seed_groups_ = BuildSeedSkylineGroups(SeedRows(distinct_, seeds_));
  RerunExtension();
  --stats_.extension_reruns;  // counted by RerunExtension; not a path-3 event
}

void IncrementalCubeMaintainer::RerunExtension() {
  ++stats_.extension_reruns;
  groups_ = ExtendWithNonSeeds(distinct_, seeds_, seed_groups_);
  ExpandGroups(members_of_distinct_, &groups_);
  NormalizeGroups(&groups_);
}

void IncrementalCubeMaintainer::EraseMembers(
    const std::vector<ObjectId>& ids) {
  for (SkylineGroup& group : groups_) {
    auto erased = std::remove_if(
        group.members.begin(), group.members.end(), [&](ObjectId member) {
          return std::binary_search(ids.begin(), ids.end(), member);
        });
    group.members.erase(erased, group.members.end());
  }
  NormalizeGroups(&groups_);
}

bool IncrementalCubeMaintainer::DominatedBySeed(
    const std::vector<double>& row) const {
  for (ObjectId seed : seeds_) {
    if (RowDominates(distinct_.Row(seed), row.data(),
                     distinct_.full_mask())) {
      return true;
    }
  }
  return false;
}

bool IncrementalCubeMaintainer::RelevantToSeedLattice(
    const std::vector<double>& row) const {
  for (const SeedSkylineGroup& group : seed_groups_) {
    const double* rep = distinct_.Row(seeds_[group.seed_indices.front()]);
    for (DimMask decisive : group.decisive) {
      bool coincides = true;
      ForEachDim(decisive, [&](int dim) {
        coincides &= (row[dim] == rep[dim]);
      });
      if (coincides) return true;
    }
  }
  return false;
}

CompressedSkylineCube IncrementalCubeMaintainer::MakeCube() const {
  return CompressedSkylineCube(data_.num_dims(), data_.num_objects(),
                               groups_);
}

InsertPath IncrementalCubeMaintainer::Insert(const std::vector<double>& values,
                                             uint64_t timestamp_ms) {
  SKYCUBE_CHECK_MSG(static_cast<int>(values.size()) == data_.num_dims(),
                    "insert width must equal num_dims");
  ++stats_.inserts;
  ++version_;

  // Path 1: duplicate of a live row — bind and patch memberships.
  if (auto it = distinct_of_row_.find(values); it != distinct_of_row_.end()) {
    data_.AddRow(values);
    const ObjectId new_id = static_cast<ObjectId>(data_.num_objects() - 1);
    live_.push_back(1);
    timestamps_.push_back(timestamp_ms);
    ++num_live_;
    const ObjectId twin = members_of_distinct_[it->second].front();
    members_of_distinct_[it->second].push_back(new_id);
    for (SkylineGroup& group : groups_) {
      if (std::binary_search(group.members.begin(), group.members.end(),
                             twin)) {
        group.members.push_back(new_id);  // new_id is the maximum id
      }
    }
    NormalizeGroups(&groups_);
    ++stats_.duplicate_patches;
    return InsertPath::kDuplicate;
  }

  // Classify before mutating (checks run against the current seed lattice).
  const bool dominated = DominatedBySeed(values);
  const bool relevant = dominated && RelevantToSeedLattice(values);

  data_.AddRow(values);
  const ObjectId new_id = static_cast<ObjectId>(data_.num_objects() - 1);
  live_.push_back(1);
  timestamps_.push_back(timestamp_ms);
  ++num_live_;
  distinct_.AddRow(values);
  distinct_of_row_.emplace(
      values, static_cast<ObjectId>(members_of_distinct_.size()));
  members_of_distinct_.push_back({new_id});

  if (!dominated) {
    // Path 4: the object joins F(S) (and may evict seeds).
    RebuildFromScratch();
    return InsertPath::kFullRecompute;
  }
  if (!relevant) {
    // Path 2: Theorem 5 — an irrelevant dominated object cannot join or
    // split any group.
    ++stats_.noop_inserts;
    return InsertPath::kNoOp;
  }
  // Path 3: seeds unchanged ⇒ seed lattice unchanged; rerun only step 5.
  RerunExtension();
  return InsertPath::kExtensionOnly;
}

DeletePath IncrementalCubeMaintainer::Remove(ObjectId id) {
  if (id >= data_.num_objects() || !live_[id]) {
    // Replayed deletes of never-acked rows land here: a checksummed delete
    // record can outlive the insert it targeted only if the target was
    // never durable, so ignoring it is the correct replay semantics.
    ++stats_.already_dead_deletes;
    return DeletePath::kAlreadyDead;
  }
  ++stats_.deletes;
  ++version_;
  live_[id] = 0;
  --num_live_;

  std::vector<double> row(data_.Row(id), data_.Row(id) + data_.num_dims());
  auto it = distinct_of_row_.find(row);
  SKYCUBE_CHECK_MSG(it != distinct_of_row_.end(),
                    "live row missing from the distinct view");
  const ObjectId distinct_id = it->second;
  std::vector<ObjectId>& twins = members_of_distinct_[distinct_id];
  twins.erase(std::find(twins.begin(), twins.end(), id));

  if (!twins.empty()) {
    // Path 2: the distinct tuple survives through a live twin, so every
    // group keeps its identity — only the member lists shrink.
    EraseMembers({id});
    ++stats_.delete_patches;
    return DeletePath::kMembershipPatch;
  }

  const bool was_seed =
      std::find(seeds_.begin(), seeds_.end(), distinct_id) != seeds_.end();
  if (was_seed) {
    // Path 4: a seed died — formerly-dominated rows can be promoted into
    // F(S) and every decisive subspace can shift.
    RebuildDistinctView(/*remap_seeds=*/false);
    RebuildFromScratch();
    ++stats_.delete_recomputes;
    return DeletePath::kFullRecompute;
  }
  // Path 3: a non-seed tuple died. F(S \ {p}) == F(S) for dominated p
  // (transitivity), so the seed lattice stands; rerun step 5 over the
  // surviving non-seeds.
  RebuildDistinctView(/*remap_seeds=*/true);
  RerunExtension();
  ++stats_.delete_extension_reruns;
  return DeletePath::kExtensionOnly;
}

size_t IncrementalCubeMaintainer::ExpireOlderThan(uint64_t cutoff_ms) {
  ++stats_.expiry_passes;
  std::vector<ObjectId> expired;
  for (ObjectId id = 0; id < data_.num_objects(); ++id) {
    if (live_[id] && timestamps_[id] != 0 && timestamps_[id] < cutoff_ms) {
      expired.push_back(id);
    }
  }
  if (expired.empty()) return 0;

  ++version_;
  bool tuple_died = false;
  bool seed_died = false;
  std::vector<double> row(data_.num_dims());
  for (ObjectId id : expired) {
    live_[id] = 0;
    --num_live_;
    row.assign(data_.Row(id), data_.Row(id) + data_.num_dims());
    auto it = distinct_of_row_.find(row);
    SKYCUBE_CHECK_MSG(it != distinct_of_row_.end(),
                      "live row missing from the distinct view");
    std::vector<ObjectId>& twins = members_of_distinct_[it->second];
    twins.erase(std::find(twins.begin(), twins.end(), id));
    if (twins.empty()) {
      tuple_died = true;
      seed_died = seed_died || std::find(seeds_.begin(), seeds_.end(),
                                         it->second) != seeds_.end();
    }
  }
  if (!tuple_died) {
    EraseMembers(expired);  // expired is built in ascending id order
  } else if (seed_died) {
    RebuildDistinctView(/*remap_seeds=*/false);
    RebuildFromScratch();
  } else {
    RebuildDistinctView(/*remap_seeds=*/true);
    RerunExtension();
  }
  stats_.expired_rows += expired.size();
  return expired.size();
}

}  // namespace skycube
