// Incremental maintenance of the compressed skyline cube under insertions
// and deletions — the extension direction the paper cites as [14] (Xia &
// Zhang, "Refreshing the sky: the compressed skycube with efficient support
// for frequent updates", SIGMOD'06).
//
// The maintainer caches Stellar's intermediates (the distinct-row view, the
// seed set and the seed lattice) and classifies each insert into one of
// four paths, cheapest first:
//
//  1. duplicate  — the new object equals an existing row: it binds to its
//     twin (paper §5) and joins exactly the twin's groups (membership
//     patch; no recomputation);
//  2. no-op      — the object is dominated in the full space and coincides
//     with no seed group on any of its decisive subspaces: by Theorem 5 it
//     can neither join nor split any group;
//  3. extension  — the object is dominated (seed set unchanged ⇒ the seed
//     lattice is unchanged) but is relevant to some seed group: only
//     Stellar's step 5 (non-seed accommodation) reruns;
//  4. recompute  — the object enters the full-space skyline (possibly
//     evicting seeds): the seed lattice changes; full pipeline rerun.
//
// Deletions tombstone rows in place: object ids stay stable (WAL delete
// records and published group member ids keep meaning across deletes), the
// dataset stays append-only, and a live bitmap tracks which rows count.
// Each delete is classified symmetrically, cheapest first:
//
//  1. already-dead — the id is out of range or tombstoned: no-op;
//  2. patch      — a live duplicate twin remains: the distinct tuple set is
//     unchanged, so the cube changes only by dropping the id from its
//     groups' member lists;
//  3. extension  — the last live copy of a *non-seed* tuple dies: the
//     full-space skyline is unchanged (anything it dominated is still
//     dominated by whatever dominates it — transitivity), so the seed
//     lattice stands and only step 5 reruns over the surviving non-seeds;
//  4. recompute  — a seed's last live copy dies: formerly-dominated rows
//     can be promoted into the skyline; full pipeline rerun.
//
// Rows carry an optional ingest timestamp; ExpireOlderThan() batch-deletes
// every live row older than a cutoff (the sliding-window pass). Timestamp 0
// means "no timestamp" and never expires — bootstrap rows and inserts
// logged without a timestamp replay with 0.
#ifndef SKYCUBE_CORE_MAINTENANCE_H_
#define SKYCUBE_CORE_MAINTENANCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/cube.h"
#include "core/seed_lattice.h"
#include "core/skyline_group.h"
#include "dataset/dataset.h"

namespace skycube {

/// Which update path an insert took (see file comment).
enum class InsertPath { kDuplicate, kNoOp, kExtensionOnly, kFullRecompute };

/// Short lowercase name ("duplicate", "noop", "extension", "recompute").
const char* InsertPathName(InsertPath path);

/// Which update path a delete took (see file comment).
enum class DeletePath {
  kAlreadyDead,
  kMembershipPatch,
  kExtensionOnly,
  kFullRecompute,
};

/// Short lowercase name ("dead", "patch", "extension", "recompute").
const char* DeletePathName(DeletePath path);

/// Counters over the maintainer's lifetime.
struct MaintenanceStats {
  uint64_t inserts = 0;
  uint64_t duplicate_patches = 0;
  uint64_t noop_inserts = 0;
  uint64_t extension_reruns = 0;
  uint64_t full_recomputes = 0;  // includes the initial build
  uint64_t deletes = 0;          // effective deletes (already-dead excluded)
  uint64_t already_dead_deletes = 0;
  uint64_t delete_patches = 0;
  uint64_t delete_extension_reruns = 0;
  uint64_t delete_recomputes = 0;
  uint64_t expiry_passes = 0;
  uint64_t expired_rows = 0;
};

/// The skyline-group oracle for a tombstoned dataset: ComputeStellar over
/// the live rows of `data`, with member ids mapped back to the original
/// (gapped) row ids. This is what IncrementalCubeMaintainer::groups() must
/// equal after any mix of inserts, deletes, and expiry — the live-set
/// invariant recovery and the crashtest check against.
SkylineGroupSet StellarOverLive(const Dataset& data,
                                const std::vector<uint8_t>& live);

/// Owns a growing dataset and keeps its compressed skyline cube current.
/// Invariant after every operation:
///   groups() == StellarOverLive(data(), live()).
class IncrementalCubeMaintainer {
 public:
  /// Builds the initial cube from `initial` with Stellar (all rows live,
  /// timestamps 0).
  explicit IncrementalCubeMaintainer(Dataset initial);

  /// Restores a maintainer from checkpointed state: `initial` includes
  /// tombstoned rows, `live` flags which count (size == num_objects), and
  /// `timestamps` carries per-row ingest times in ms (size == num_objects;
  /// 0 = none). The cube is rebuilt from the live rows.
  IncrementalCubeMaintainer(Dataset initial, std::vector<uint8_t> live,
                            std::vector<uint64_t> timestamps);

  /// Inserts one object (values.size() == num_dims) and updates the cube.
  /// Returns the path taken. `timestamp_ms` is the row's ingest time for
  /// window expiry (0 = never expires).
  InsertPath Insert(const std::vector<double>& values,
                    uint64_t timestamp_ms = 0);

  /// Tombstones object `id` and updates the cube. Out-of-range or
  /// already-dead ids return kAlreadyDead without touching the cube or the
  /// version (a replayed delete of a never-acked row must be a no-op).
  DeletePath Remove(ObjectId id);

  /// Tombstones every live row with 0 < timestamp < `cutoff_ms` in one
  /// batch (one cube fix-up, one version bump). Returns the number of rows
  /// expired. Rows with timestamp 0 never expire.
  size_t ExpireOlderThan(uint64_t cutoff_ms);

  /// The current dataset (initial rows plus inserts, in insertion order,
  /// including tombstoned rows — ids are stable).
  const Dataset& data() const { return data_; }

  /// Per-row liveness flags (size == data().num_objects()).
  const std::vector<uint8_t>& live() const { return live_; }

  /// Per-row ingest timestamps in ms (size == data().num_objects()).
  const std::vector<uint64_t>& timestamps() const { return timestamps_; }

  size_t num_live() const { return num_live_; }
  bool IsLive(ObjectId id) const {
    return id < live_.size() && live_[id] != 0;
  }

  /// The current compressed cube over the live rows, normalized.
  const SkylineGroupSet& groups() const { return groups_; }

  /// Monotonically increasing cube version: 1 after construction, +1 per
  /// Insert / effective Remove / effective expiry pass. Lets a serving
  /// layer detect that a snapshot it published is stale.
  uint64_t version() const { return version_; }

  /// Packages the current groups as an immutable queryable snapshot, ready
  /// for SkycubeService::Reload (service/service.h). The snapshot copies
  /// the groups, so the maintainer can keep mutating afterwards. Tombstoned
  /// ids are simply absent from every group (membership answers false).
  CompressedSkylineCube MakeCube() const;

  const MaintenanceStats& stats() const { return stats_; }

 private:
  void BuildDistinctView();
  /// Rebuilds the distinct view over the current live rows. When
  /// `remap_seeds` is set, the cached seed ids (which index the old
  /// distinct view) are translated by value into the new one — valid only
  /// when the seed tuples all survive (the delete-extension path).
  void RebuildDistinctView(bool remap_seeds);
  void RebuildFromScratch();
  void RerunExtension();
  /// Drops `ids` (sorted) from every group's member list.
  void EraseMembers(const std::vector<ObjectId>& ids);
  /// True iff some current seed strictly dominates `row` in the full space.
  bool DominatedBySeed(const std::vector<double>& row) const;
  /// Theorem 5 relevance: does `row` coincide with some seed group's
  /// projection on one of its decisive subspaces (w.r.t. F(S))?
  bool RelevantToSeedLattice(const std::vector<double>& row) const;

  uint64_t version_ = 1;
  Dataset data_;      // original rows, tombstones included
  Dataset distinct_;  // one row per distinct *live* tuple
  SkylineGroupSet groups_;
  MaintenanceStats stats_;

  std::vector<uint8_t> live_;        // parallel to data_ rows
  std::vector<uint64_t> timestamps_; // parallel to data_ rows; 0 = none
  size_t num_live_ = 0;

  // Distinct-row bookkeeping (paper §5 duplicate binding, kept incremental;
  // live rows only).
  std::unordered_map<std::vector<double>, ObjectId, VectorDoubleHash>
      distinct_of_row_;
  std::vector<std::vector<ObjectId>> members_of_distinct_;

  // Cached Stellar intermediates over distinct_, valid between recomputes.
  std::vector<ObjectId> seeds_;  // distinct ids in F(S)
  std::vector<SeedSkylineGroup> seed_groups_;
};

}  // namespace skycube

#endif  // SKYCUBE_CORE_MAINTENANCE_H_
