// Scatter–gather query engine of the shard router (docs/SHARDING.md).
//
// One ScatterGather fans each query out to N shard backends, collects the
// per-shard answers, translates shard-local row ids to global ids through
// the RouterTopology, and merges subspace skylines with the single
// union-then-refilter pass of router/merge.h. Degradation is explicit:
// when a shard is down, refuses the call, or misses its deadline budget,
// the query is answered over the surviving shards with the response's
// `partial` flag set — never silently, never by failing the whole query
// (unless zero shards are reachable, which is kUnavailable).
//
// Query plans:
//  - skyline / cardinality: one subspace-skyline request per live shard;
//    merge; answer ids / |ids|.
//  - membership(o, B): the merged skyline plus o itself as an extra merge
//    candidate — if o is dominated anywhere reachable, transitivity
//    guarantees a reachable *skyline* row dominates it, so the refilter
//    pass alone decides membership (no second round trip). This also
//    answers correctly-over-reachable-rows when o's own shard is down:
//    the router holds o's values.
//  - membership_count / skycube_size: one pipelined burst of all 2^d - 1
//    subspace-skyline requests per shard, merged subspace by subspace.
//  - insert: routed to the owning shard only (consistent hash of the new
//    global id), serialized under the router ingest mutex, appended to the
//    topology only after the shard acknowledged. Inserts are never partial
//    and never hedged: an unreachable owner is kUnavailable.
//  - delete: routed to the owning shard only (global id translated to the
//    shard-local id), serialized like inserts; the topology marks the row
//    deleted only after the shard acknowledged the tombstone. An
//    already-dead (or never-existing) target answers the "dead" path
//    without contacting any shard — deletes are idempotent.
//  - epoch_diff(B, since): the *current* Sky(B) comes from a shard wave
//    (merged as usual); the *historical* Sky(B) at router epoch `since` is
//    computed locally from the topology's per-row insert/delete epoch
//    stamps — no snapshot retention, any depth. Both sides are restricted
//    to the shards that contributed to the wave, so under degradation the
//    diff reflects real row churn, never shard loss (flagged partial).
//
// Merged-answer metadata: snapshot_version is the max over contributing
// shards, cache_hit is true iff every contributing shard answered from its
// cache.
#ifndef SKYCUBE_ROUTER_SCATTER_GATHER_H_
#define SKYCUBE_ROUTER_SCATTER_GATHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "router/partition.h"
#include "service/request.h"

namespace skycube::router {

/// One in-flight pipelined batch against one shard. Obtained from
/// ShardBackend::Start; single-owner (the dispatching thread).
class ShardCall {
 public:
  virtual ~ShardCall() = default;

  /// Collects one response per request passed to Start, in request order,
  /// within the deadline budget given to Start. False on transport failure
  /// (timeout, EOF, goaway, framing error — *error says why); the
  /// responses are invalid then and the shard counts as lost for this
  /// query.
  virtual bool Collect(std::vector<QueryResponse>* responses,
                       std::string* error) = 0;
};

/// A connection (or in-process binding) to one shard. Thread-safe: many
/// dispatch threads Start concurrent calls.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Starts a pipelined batch with per-call deadline `budget`. Null when
  /// the shard is known down and not due for a retry probe, or transport
  /// setup failed.
  virtual std::unique_ptr<ShardCall> Start(
      const std::vector<QueryRequest>& requests, Deadline budget) = 0;

  /// True while the backend considers the shard unreachable.
  virtual bool down() = 0;
};

struct ScatterGatherOptions {
  /// Fraction of the request's remaining deadline given to the shard wave
  /// (the rest is merge + translation headroom).
  double budget_fraction = 0.9;
};

/// Point-in-time counters (plain data, copyable).
struct ScatterGatherStats {
  uint64_t queries = 0;
  uint64_t shard_calls = 0;
  uint64_t shard_losses = 0;     // calls lost to down/refused/failed shards
  uint64_t partial_answers = 0;  // responses flagged partial
  uint64_t merge_candidates = 0;  // rows entering refilter passes
  uint64_t inserts_routed = 0;
  uint64_t deletes_routed = 0;   // deletes acknowledged by an owner shard
  uint64_t epoch_diffs = 0;      // kEpochDiff queries answered ok
};

class ScatterGather {
 public:
  /// `topology` and every backend outlive this object; backends_[k] serves
  /// the rows the ring assigns to shard k.
  ScatterGather(RouterTopology* topology,
                std::vector<ShardBackend*> backends,
                ScatterGatherOptions options = {});

  /// Answers one query (thread-safe). Inserts serialize internally.
  QueryResponse Execute(const QueryRequest& request) EXCLUDES(ingest_mu_);

  /// Max snapshot version seen across shards (monotonic).
  uint64_t known_version() const {
    return known_version_.load(std::memory_order_acquire);
  }

  ScatterGatherStats stats() const;

 private:
  /// One shard wave: the same `batch` to every non-down backend.
  struct Wave {
    /// responses[s] is empty when shard s was lost.
    std::vector<std::vector<QueryResponse>> responses;
    size_t live = 0;
    bool partial = false;  // at least one shard lost
  };
  Wave RunWave(const std::vector<QueryRequest>& batch, Deadline budget);

  /// Merged-skyline machinery shared by every read plan.
  struct Merged {
    bool ok = true;
    StatusCode code = StatusCode::kOk;
    std::string error;
    std::vector<ObjectId> ids;  // ascending global ids
    uint64_t version = 0;
    bool all_hit = true;
    bool partial = false;
  };
  /// Merges one subspace from an already-collected wave item `item_index`
  /// (every live shard's responses[s][item_index] must be a skyline
  /// answer). `extra` global ids join the candidate union.
  Merged MergeWaveItem(const Wave& wave, size_t item_index, DimMask subspace,
                       const std::vector<ObjectId>& extra, Deadline budget);

  QueryResponse ExecuteSkyline(const QueryRequest& request, bool want_ids);
  QueryResponse ExecuteMembership(const QueryRequest& request);
  QueryResponse ExecuteEnumeration(const QueryRequest& request);
  QueryResponse ExecuteInsert(const QueryRequest& request)
      EXCLUDES(ingest_mu_);
  QueryResponse ExecuteDelete(const QueryRequest& request)
      EXCLUDES(ingest_mu_);
  QueryResponse ExecuteEpochDiff(const QueryRequest& request);

  /// nullptr if well-formed, else the error text.
  const char* ValidationError(const QueryRequest& request) const;

  Deadline WaveBudget(const Deadline& request_deadline) const;
  void NoteVersion(uint64_t version);
  QueryResponse ErrorResponse(const QueryRequest& request, StatusCode code,
                              std::string error);

  RouterTopology* topology_;
  std::vector<ShardBackend*> backends_;
  ScatterGatherOptions options_;

  Mutex ingest_mu_;  // serializes insert-forward + topology append

  std::atomic<uint64_t> known_version_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> shard_calls_{0};
  std::atomic<uint64_t> shard_losses_{0};
  std::atomic<uint64_t> partial_answers_{0};
  std::atomic<uint64_t> merge_candidates_{0};
  std::atomic<uint64_t> inserts_routed_{0};
  std::atomic<uint64_t> deletes_routed_{0};
  std::atomic<uint64_t> epoch_diffs_{0};
};

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_SCATTER_GATHER_H_
