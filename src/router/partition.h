// Row-ownership bookkeeping of the scatter–gather router
// (docs/SHARDING.md).
//
// The router keeps its own append-only copy of every row value: it
// bootstraps each shard's partition deterministically from the shared data
// source and sees every insert, so shards never need to ship row values
// back — a shard answers a subspace-skyline request with *local* row ids
// only, and the RouterTopology translates local <-> global and feeds the
// merge pass (router/merge.h) the actual values.
//
// Concurrency model: appends are serialized by the router's ingest mutex
// (single writer); readers are lock-free and concurrent. Both RowStore and
// the per-shard id lists store their elements in fixed-size chunks behind a
// preallocated atomic slot array and publish growth with a release store of
// the size counter — a reader that acquires size N may touch any element
// below N without ever racing a reallocation (there are none) or a
// half-written row (ordered before the size store).
#ifndef SKYCUBE_ROUTER_PARTITION_H_
#define SKYCUBE_ROUTER_PARTITION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/consistent_hash.h"
#include "common/deadline.h"
#include "dataset/dataset.h"

namespace skycube::router {

/// Append-only chunked array of rows (num_dims doubles each). Single
/// writer, lock-free concurrent readers; see file comment.
class RowStore {
 public:
  explicit RowStore(int num_dims);
  ~RowStore();

  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  /// Appends one row (exactly num_dims values); returns its global id.
  /// Caller serializes appends.
  ObjectId Append(const double* values);

  /// Rows visible to this reader (acquire).
  ObjectId size() const { return size_.load(std::memory_order_acquire); }

  /// Values of row `gid`; gid must be below a size() this thread observed.
  const double* Row(ObjectId gid) const;

  int num_dims() const { return num_dims_; }

 private:
  static constexpr size_t kRowsPerChunk = 4096;
  static constexpr size_t kMaxChunks = 1 << 16;  // 268M rows

  int num_dims_;
  std::unique_ptr<std::atomic<double*>[]> chunks_;
  std::atomic<ObjectId> size_{0};
};

/// Append-only chunked array of object ids with the same single-writer /
/// lock-free-reader contract as RowStore. Ids are appended in ascending
/// order (global ids grow monotonically), so IndexOf is a binary search.
class AppendOnlyIds {
 public:
  AppendOnlyIds();
  ~AppendOnlyIds();

  AppendOnlyIds(const AppendOnlyIds&) = delete;
  AppendOnlyIds& operator=(const AppendOnlyIds&) = delete;

  void Append(ObjectId id);
  size_t size() const { return size_.load(std::memory_order_acquire); }
  ObjectId At(size_t index) const;

  /// Index of `id` in [0, size()), or -1 when absent.
  int64_t IndexOf(ObjectId id) const;

 private:
  static constexpr size_t kIdsPerChunk = 8192;
  static constexpr size_t kMaxChunks = 1 << 16;

  std::unique_ptr<std::atomic<ObjectId*>[]> chunks_;
  std::atomic<size_t> size_{0};
};

/// Append-only chunked array of u64 epoch stamps with the same
/// single-writer / lock-free-reader append contract as AppendOnlyIds, plus
/// in-place atomic element updates — a row's delete epoch is stamped long
/// after its insert append, so elements are atomics (Set publishes with a
/// release store, At acquires).
class AppendOnlyU64 {
 public:
  AppendOnlyU64();
  ~AppendOnlyU64();

  AppendOnlyU64(const AppendOnlyU64&) = delete;
  AppendOnlyU64& operator=(const AppendOnlyU64&) = delete;

  void Append(uint64_t v);
  size_t size() const { return size_.load(std::memory_order_acquire); }
  uint64_t At(size_t index) const;
  /// Updates an existing element; index must be below a size() this thread
  /// observed.
  void Set(size_t index, uint64_t v);

 private:
  static constexpr size_t kPerChunk = 8192;
  static constexpr size_t kMaxChunks = 1 << 16;

  std::unique_ptr<std::atomic<std::atomic<uint64_t>*>[]> chunks_;
  std::atomic<size_t> size_{0};
};

/// The router's view of the sharded row population: the consistent-hash
/// ring assigning every global row id an owner shard, the full row values,
/// and per-shard ascending global-id lists giving the local <-> global
/// translation (a shard's local id L is position L in its list — shards
/// load their partition in the same ascending-gid order, see
/// skycube_serve --shard-index).
///
/// Epoch model (kEpochDiff): the topology carries a mutation epoch,
/// starting at 1 (the bootstrap state); every routed mutation advances it.
/// Each row remembers the epoch it appeared at (bootstrap rows: 1) and, if
/// deleted, the epoch its delete landed at — so "the rows live at epoch e"
/// is reconstructible for any past e without retaining snapshots, and the
/// router answers epoch-diff queries of any depth.
class RouterTopology {
 public:
  RouterTopology(int num_dims, size_t num_shards, uint64_t ring_seed = 0,
                 int ring_vnodes = 64);

  int num_dims() const { return rows_.num_dims(); }
  size_t num_shards() const { return ring_.num_shards(); }
  const HashRing& ring() const { return ring_; }

  /// The shard owning global row `gid`.
  size_t OwnerOf(ObjectId gid) const { return ring_.OwnerOf(gid); }

  /// Appends one row to the store and its owner's id list; returns the
  /// global id. Caller serializes (router ingest mutex) and must have
  /// confirmed the owner shard applied the row first.
  ObjectId AppendRow(const double* values);

  ObjectId total_rows() const { return rows_.size(); }
  const RowStore& rows() const { return rows_; }

  /// Global id of `shard`'s local row `local`; the row must already be in
  /// the shard's id list as this thread observed it (see WaitForLocal).
  ObjectId GlobalId(size_t shard, ObjectId local) const {
    return shard_ids_[shard]->At(local);
  }

  /// Local id of `gid` on its owner shard, or -1 when not yet appended.
  int64_t LocalId(size_t shard, ObjectId gid) const {
    return shard_ids_[shard]->IndexOf(gid);
  }

  /// Waits until shard's id list covers `local` (it can lag a shard answer
  /// by the microseconds between the shard applying an insert and the
  /// router's ingest thread appending it here). False on deadline expiry.
  bool WaitForLocal(size_t shard, ObjectId local, Deadline deadline) const;

  // --- Mutation epochs and liveness (kDelete / kEpochDiff) ---------------

  /// Current mutation epoch (starts at 1: the bootstrap state).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Advances the epoch by one mutation; returns the new epoch. Caller
  /// serializes (router ingest mutex).
  uint64_t AdvanceEpoch() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Stamps `gid` deleted as of `epoch`. Caller serializes and must have
  /// confirmed the owner shard tombstoned the row first.
  void MarkDeleted(ObjectId gid, uint64_t epoch);

  /// True while `gid` has no delete stamp.
  bool IsLive(ObjectId gid) const { return delete_epochs_.At(gid) == 0; }

  /// True iff `gid` existed and was not yet deleted at `at_epoch`.
  bool LiveAt(ObjectId gid, uint64_t at_epoch) const {
    if (insert_epochs_.At(gid) > at_epoch) return false;
    const uint64_t deleted = delete_epochs_.At(gid);
    return deleted == 0 || deleted > at_epoch;
  }

  /// Rows appended minus rows deleted.
  ObjectId num_live() const {
    return total_rows() -
           num_deleted_.load(std::memory_order_acquire);
  }

 private:
  HashRing ring_;
  RowStore rows_;
  std::vector<std::unique_ptr<AppendOnlyIds>> shard_ids_;
  AppendOnlyU64 insert_epochs_;
  AppendOnlyU64 delete_epochs_;
  std::atomic<uint64_t> epoch_{1};
  std::atomic<ObjectId> num_deleted_{0};
};

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_PARTITION_H_
