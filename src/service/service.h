// SkycubeService: a long-lived, thread-safe query front end over an
// immutable CompressedSkylineCube snapshot.
//
// Architecture (docs/SERVICE.md):
//  - the cube lives behind std::atomic<std::shared_ptr<const Snapshot>>;
//    readers load the pointer once per query and keep the snapshot alive
//    for the duration — Reload() swaps the pointer and never blocks
//    readers, so a query overlapping a swap is answered consistently by
//    exactly one of the two snapshots (its version says which);
//  - answers are memoized in a sharded LRU ResultCache keyed by
//    (kind, subspace, object, snapshot_version); keying by version makes a
//    swap an implicit whole-cache invalidation (Clear() just reclaims the
//    memory eagerly);
//  - batches fan out over a ThreadPool; single queries run on the caller's
//    thread (a cached Q1 answer is a hash probe — cheaper than a handoff);
//  - overload protection: an optional max-in-flight admission gate sheds
//    excess arrivals with kResourceExhausted after at most
//    queue_wait_timeout, and per-request deadlines are enforced at
//    admission, before the cache probe, and inside the cube traversals
//    (kDeadlineExceeded) — see docs/ROBUSTNESS.md.
#ifndef SKYCUBE_SERVICE_SERVICE_H_
#define SKYCUBE_SERVICE_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>  // std::once_flag
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/cube.h"
#include "service/executor.h"
#include "service/ingest.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/service_stats.h"

namespace skycube {

/// Construction knobs for a SkycubeService.
struct SkycubeServiceOptions {
  /// Result cache sizing; capacity 0 disables caching.
  ResultCacheOptions cache;
  /// Worker threads for batch fan-out (0 = hardware concurrency). The pool
  /// is created lazily on the first ExecuteBatch call.
  int batch_threads = 0;
  /// Admission control: maximum concurrently executing operations (an
  /// Execute call or a whole ExecuteBatch call each hold one slot).
  /// 0 = unlimited (no gate, no in-flight tracking).
  size_t max_in_flight = 0;
  /// How long an over-limit arrival may wait for a slot before being shed
  /// with kResourceExhausted. 0 = shed immediately.
  std::chrono::milliseconds queue_wait_timeout{0};
  /// Snapshots retained for kEpochDiff queries (a bounded ring: the newest
  /// `epoch_history` versions stay answerable; older since_versions answer
  /// kNotFound). 0 disables epoch-diff entirely.
  size_t epoch_history = 32;
  /// Wall clock (ms since epoch) stamped on each inserted row as its
  /// ingest timestamp — what the sliding-window expiry pass compares
  /// against. Null uses the system clock; tests inject a fake.
  std::function<uint64_t()> ingest_clock;
};

class SkycubeService : public QueryExecutor {
 public:
  /// Starts serving `cube` as snapshot version 1.
  SkycubeService(std::shared_ptr<const CompressedSkylineCube> cube,
                 SkycubeServiceOptions options = {});
  ~SkycubeService();

  SkycubeService(const SkycubeService&) = delete;
  SkycubeService& operator=(const SkycubeService&) = delete;

  /// Answers one query on the calling thread (admission → cache →
  /// snapshot). Safe from any number of threads concurrently, including
  /// across Reload calls. Never blocks longer than queue_wait_timeout plus
  /// the query's own compute time; requests carrying an expired deadline
  /// (before or during compute) answer kDeadlineExceeded, shed requests
  /// kResourceExhausted.
  QueryResponse Execute(const QueryRequest& request) override;

  /// Answers a batch, fanning the requests out across the service pool;
  /// responses[i] answers requests[i]. The calling thread participates, so
  /// this never deadlocks even with a saturated pool. Items fail
  /// independently (invalid, deadlined, or thrown-from computations become
  /// per-item error responses) — a batch is never all-or-nothing. The batch
  /// holds one admission slot; if shed, every item answers
  /// kResourceExhausted.
  std::vector<QueryResponse> ExecuteBatch(
      const std::vector<QueryRequest>& requests);

  /// Atomically replaces the served snapshot (version + 1) and invalidates
  /// the result cache. In-flight queries finish against whichever snapshot
  /// they loaded; new queries see `cube`.
  void Reload(std::shared_ptr<const CompressedSkylineCube> cube);

  /// Enables kInsert/kDelete requests (disabled by default: they answer
  /// kInvalidArgument on a read-only service). `handler` is not owned and
  /// must outlive the service. Call before serving traffic.
  void AttachInsertHandler(InsertHandler* handler);

  /// Sliding-window expiry: tombstones every live row with a nonzero ingest
  /// timestamp older than `cutoff_ms` and publishes the post-expiry
  /// snapshot (bumping the version, which invalidates the result cache).
  /// Serialized with inserts/deletes under the ingest mutex, so the swap
  /// order matches the WAL order. Returns the number of rows expired (0 is
  /// a successful no-op). Fails kInvalidArgument on a read-only service.
  Result<uint64_t> ApplyExpiry(uint64_t cutoff_ms) EXCLUDES(ingest_mu_);

  /// Graceful-shutdown gate: after this, every new Execute/ExecuteBatch
  /// answers kUnavailable without touching cache or cube; in-flight work
  /// finishes normally. Irreversible.
  void BeginDrain() override;
  bool draining() const override {
    return draining_.load(std::memory_order_acquire);
  }

  /// The currently served cube (shared ownership keeps it valid even if a
  /// Reload lands immediately after).
  std::shared_ptr<const CompressedSkylineCube> snapshot() const;
  uint64_t snapshot_version() const override;

  /// Row width of the served cube (QueryExecutor introspection).
  int num_dims() const override;

  /// Default serve-tool health/stats renderings (text_format.h). Tools that
  /// add suffixes (durable ingest counters) format their own lines instead.
  std::string HealthLine() const override;
  std::string StatsLine() const override;

  ServiceStats stats() const EXCLUDES(admission_mu_);

 private:
  struct Snapshot {
    std::shared_ptr<const CompressedSkylineCube> cube;
    uint64_t version = 0;
  };

  std::shared_ptr<const Snapshot> LoadSnapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// nullptr if `request` is well-formed for `cube`, else the error text.
  static const char* ValidationError(const QueryRequest& request,
                                     const CompressedSkylineCube& cube);

  /// Computes a validated `request` against `snap` (no cache involvement).
  QueryResponse Compute(const QueryRequest& request,
                        const Snapshot& snap) const;

  /// Cache-through execution against `snap`.
  QueryResponse ExecuteOn(const QueryRequest& request, const Snapshot& snap);

  /// Admission gate. True = a slot was acquired (pair with ReleaseSlot);
  /// false = shed. Always true when max_in_flight == 0.
  bool AdmitSlot() EXCLUDES(admission_mu_);
  void ReleaseSlot() EXCLUDES(admission_mu_);

  /// Builds + counts a kResourceExhausted response for a shed request.
  QueryResponse ShedResponse(const QueryRequest& request, uint64_t version);

  /// Builds + counts a kUnavailable response for a draining service.
  QueryResponse DrainingResponse(const QueryRequest& request,
                                 uint64_t version);

  /// The kInsert path: serialize under ingest_mu_, apply through the
  /// handler, swap the post-insert snapshot in (which invalidates the
  /// result cache by version). Never cached.
  QueryResponse ExecuteInsert(const QueryRequest& request)
      EXCLUDES(ingest_mu_);

  /// The kDelete path: same shape as ExecuteInsert (serialize, apply,
  /// swap). An already-dead target succeeds without a snapshot swap — the
  /// served cube did not change, so cached answers stay valid.
  QueryResponse ExecuteDelete(const QueryRequest& request)
      EXCLUDES(ingest_mu_);

  /// Computes a kEpochDiff answer: the ids that entered/left
  /// Sky(request.subspace) between the retained snapshot at
  /// request.since_version and `snap`. kNotFound if that version fell out
  /// of the bounded history ring.
  QueryResponse ComputeEpochDiff(const QueryRequest& request,
                                 const Snapshot& snap) const
      EXCLUDES(history_mu_);

  /// Remembers `snap` in the bounded epoch-history ring (no-op when
  /// epoch_history == 0).
  void RetainSnapshot(std::shared_ptr<const Snapshot> snap)
      EXCLUDES(history_mu_);

  ThreadPool& BatchPool();

  SkycubeServiceOptions options_;
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
  ResultCache cache_;

  std::atomic<uint64_t> snapshot_swaps_{0};
  std::array<std::atomic<uint64_t>, kNumQueryKinds> queries_by_kind_{};
  std::atomic<uint64_t> invalid_requests_{0};
  std::atomic<uint64_t> batches_{0};
  LatencyHistogram latency_;

  // Overload / failure accounting.
  std::array<std::atomic<uint64_t>, kNumQueryKinds> shed_by_kind_{};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> internal_errors_{0};
  std::atomic<uint64_t> admission_waits_{0};

  // Ingest path (only active once AttachInsertHandler was called).
  std::atomic<InsertHandler*> insert_handler_{nullptr};
  Mutex ingest_mu_;  // serializes {insert,delete,expiry} + Reload pairs
  std::atomic<uint64_t> inserts_applied_{0};
  std::atomic<uint64_t> insert_failures_{0};
  std::atomic<uint64_t> deletes_applied_{0};
  std::atomic<uint64_t> delete_failures_{0};
  std::atomic<uint64_t> expiry_passes_{0};
  std::atomic<uint64_t> expired_rows_{0};

  // Epoch history for kEpochDiff: the newest options_.epoch_history
  // snapshots, oldest first. Mutable so const ComputeEpochDiff can probe it.
  mutable Mutex history_mu_;
  std::deque<std::shared_ptr<const Snapshot>> history_
      GUARDED_BY(history_mu_);

  // Graceful drain (BeginDrain).
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> drained_rejects_{0};

  // Admission gate (only used when options_.max_in_flight > 0). Mutable so
  // const stats() can take it for a consistent high-water read.
  mutable Mutex admission_mu_;
  CondVar admission_cv_;
  size_t in_flight_ GUARDED_BY(admission_mu_) = 0;
  size_t in_flight_high_water_ GUARDED_BY(admission_mu_) = 0;

  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
  /// Set (once) after pool_ is constructed; lets stats() read the pool
  /// without racing its lazy creation.
  std::atomic<ThreadPool*> pool_ptr_{nullptr};
};

}  // namespace skycube

#endif  // SKYCUBE_SERVICE_SERVICE_H_
