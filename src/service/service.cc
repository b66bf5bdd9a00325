#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <iterator>
#include <new>
#include <utility>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "service/text_format.h"

namespace skycube {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSubspaceSkyline:
      return "skyline";
    case QueryKind::kSkylineCardinality:
      return "cardinality";
    case QueryKind::kMembership:
      return "membership";
    case QueryKind::kMembershipCount:
      return "membership_count";
    case QueryKind::kSkycubeSize:
      return "skycube_size";
    case QueryKind::kInsert:
      return "insert";
    case QueryKind::kDelete:
      return "delete";
    case QueryKind::kEpochDiff:
      return "epoch_diff";
  }
  return "unknown";
}

namespace {

QueryResponse ErrorResponse(const QueryRequest& request, uint64_t version,
                            StatusCode code, std::string why) {
  QueryResponse response;
  response.kind = request.kind;
  response.ok = false;
  response.code = code;
  response.error = std::move(why);
  response.snapshot_version = version;
  return response;
}

}  // namespace

SkycubeService::SkycubeService(
    std::shared_ptr<const CompressedSkylineCube> cube,
    SkycubeServiceOptions options)
    : options_(options), cache_(options.cache) {
  SKYCUBE_CHECK_MSG(cube != nullptr, "SkycubeService needs a cube");
  auto snap = std::make_shared<Snapshot>();
  snap->cube = std::move(cube);
  snap->version = 1;
  snapshot_ = snap;
  RetainSnapshot(std::move(snap));
}

SkycubeService::~SkycubeService() = default;

bool SkycubeService::AdmitSlot() {
  if (options_.max_in_flight == 0) return true;
  MutexLock lock(&admission_mu_);
  if (in_flight_ >= options_.max_in_flight) {
    admission_waits_.fetch_add(1, std::memory_order_relaxed);
    if (options_.queue_wait_timeout.count() <= 0) return false;
    const auto give_up =
        std::chrono::steady_clock::now() + options_.queue_wait_timeout;
    while (in_flight_ >= options_.max_in_flight) {
      if (!admission_cv_.WaitUntil(&admission_mu_, give_up) &&
          in_flight_ >= options_.max_in_flight) {
        return false;  // timed out still over the limit: shed
      }
    }
  }
  ++in_flight_;
  in_flight_high_water_ = std::max(in_flight_high_water_, in_flight_);
  return true;
}

void SkycubeService::ReleaseSlot() {
  if (options_.max_in_flight == 0) return;
  {
    MutexLock lock(&admission_mu_);
    --in_flight_;
  }
  admission_cv_.NotifyOne();
}

QueryResponse SkycubeService::ShedResponse(const QueryRequest& request,
                                           uint64_t version) {
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  shed_by_kind_[static_cast<int>(request.kind)].fetch_add(
      1, std::memory_order_relaxed);
  return ErrorResponse(request, version, StatusCode::kResourceExhausted,
                       "overloaded: request shed by admission control");
}

QueryResponse SkycubeService::DrainingResponse(const QueryRequest& request,
                                               uint64_t version) {
  drained_rejects_.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(request, version, StatusCode::kUnavailable,
                       "service is draining for shutdown");
}

QueryResponse SkycubeService::Execute(const QueryRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  if (draining()) {
    return DrainingResponse(request, LoadSnapshot()->version);
  }
  if (!AdmitSlot()) {
    return ShedResponse(request, LoadSnapshot()->version);
  }
  // Local class: inherits this member function's access to ReleaseSlot().
  struct SlotGuard {
    SkycubeService* service;
    bool held;
    ~SlotGuard() {
      if (held) service->ReleaseSlot();
    }
  } slot{this, options_.max_in_flight > 0};
  const std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  QueryResponse response = ExecuteOn(request, *snap);
  latency_.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return response;
}

QueryResponse SkycubeService::ExecuteOn(const QueryRequest& request,
                                        const Snapshot& snap) {
  queries_by_kind_[static_cast<int>(request.kind)].fetch_add(
      1, std::memory_order_relaxed);
  // Reject malformed requests before the cache probe: they are never
  // cached, so probing for them would only pollute the miss counter.
  if (const char* error = ValidationError(request, *snap.cube)) {
    invalid_requests_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, snap.version, StatusCode::kInvalidArgument,
                         error);
  }
  // Writes bypass the cache entirely and never run against `snap`: the
  // mutation produces its own (newer) snapshot and reports *that* version.
  if (request.kind == QueryKind::kInsert) {
    return ExecuteInsert(request);
  }
  if (request.kind == QueryKind::kDelete) {
    return ExecuteDelete(request);
  }
  // A request that arrives past its deadline never touches cache or cube.
  if (request.deadline.expired()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, snap.version, StatusCode::kDeadlineExceeded,
                         "deadline expired before execution");
  }
  // kEpochDiff answers depend on the *pair* of versions, so since_version
  // rides in the key's epoch field (0 for every other kind).
  const uint64_t epoch = request.kind == QueryKind::kEpochDiff
                             ? request.since_version
                             : 0;
  const ResultCache::Key key{request.kind, request.subspace, request.object,
                             snap.version, epoch};
  QueryResponse response;
  if (cache_.enabled() && cache_.Lookup(key, &response)) {
    response.cache_hit = true;
    return response;
  }
  // The compute path may throw (e.g. allocation failure); convert to a
  // kInternal response so one poisoned query cannot take down the process
  // or a whole batch.
  try {
    response = Compute(request, snap);
  } catch (const std::exception& e) {
    internal_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, snap.version, StatusCode::kInternal,
                         std::string("query computation failed: ") + e.what());
  } catch (...) {
    internal_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, snap.version, StatusCode::kInternal,
                         "query computation failed: unknown exception");
  }
  // The traversals return *partial* values once the deadline fires, so an
  // expired deadline here means the answer cannot be trusted (and the
  // client's budget is gone either way). Never cache it.
  if (request.deadline.expired()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, snap.version, StatusCode::kDeadlineExceeded,
                         "deadline expired during execution");
  }
  // Compute-level error responses (an epoch-diff since_version that fell
  // out of the history ring) and partial answers are never cached.
  if (response.ok && !response.partial) cache_.Insert(key, response);
  return response;
}

const char* SkycubeService::ValidationError(
    const QueryRequest& request, const CompressedSkylineCube& cube) {
  const bool needs_subspace = request.kind == QueryKind::kSubspaceSkyline ||
                              request.kind == QueryKind::kSkylineCardinality ||
                              request.kind == QueryKind::kMembership ||
                              request.kind == QueryKind::kEpochDiff;
  if (needs_subspace) {
    if (request.subspace == kEmptyMask) return "empty subspace";
    if (!IsSubsetOf(request.subspace, FullMask(cube.num_dims()))) {
      return "subspace has dimensions beyond the cube";
    }
  }
  const bool needs_object = request.kind == QueryKind::kMembership ||
                            request.kind == QueryKind::kMembershipCount;
  if (needs_object && request.object >= cube.num_objects()) {
    return "object id out of range";
  }
  if (request.kind == QueryKind::kInsert &&
      static_cast<int>(request.values.size()) != cube.num_dims()) {
    return "insert row width must equal num_dims";
  }
  // A kDelete object beyond the row population is *not* invalid: deletes
  // are idempotent, and an unknown id answers the "dead" path.
  if (request.kind == QueryKind::kEpochDiff && request.since_version == 0) {
    return "epoch diff needs a since_version";
  }
  return nullptr;
}

QueryResponse SkycubeService::Compute(const QueryRequest& request,
                                      const Snapshot& snap) const {
  // Test-only failure points: a forced slowdown (overload and deadline
  // tests) and a forced allocation failure (batch exception-safety test).
  (void)SKYCUBE_FAULT_POINT("service.compute_delay");
  if (SKYCUBE_FAULT_POINT("service.compute_throw")) throw std::bad_alloc();

  const CompressedSkylineCube& cube = *snap.cube;
  const CancelToken cancel(request.deadline);
  QueryResponse response;
  response.kind = request.kind;
  response.snapshot_version = snap.version;

  switch (request.kind) {
    case QueryKind::kSubspaceSkyline:
      response.ids = std::make_shared<const std::vector<ObjectId>>(
          cube.SubspaceSkyline(request.subspace, &cancel));
      response.count = response.ids->size();
      break;
    case QueryKind::kSkylineCardinality:
      response.count = cube.SkylineCardinality(request.subspace, &cancel);
      break;
    case QueryKind::kMembership:
      response.member =
          cube.IsInSubspaceSkyline(request.object, request.subspace);
      break;
    case QueryKind::kMembershipCount:
      response.count = cube.CountSubspacesWhereSkyline(request.object,
                                                       &cancel);
      break;
    case QueryKind::kSkycubeSize:
      response.count = cube.TotalSubspaceSkylineObjects(&cancel);
      break;
    case QueryKind::kEpochDiff:
      return ComputeEpochDiff(request, snap);
    case QueryKind::kInsert:
    case QueryKind::kDelete:
      // Unreachable: ExecuteOn routes mutations to ExecuteInsert /
      // ExecuteDelete before the cache probe and never calls Compute for
      // them.
      SKYCUBE_CHECK_MSG(false, "mutation reached the read compute path");
      break;
  }
  return response;
}

QueryResponse SkycubeService::ComputeEpochDiff(const QueryRequest& request,
                                               const Snapshot& snap) const {
  std::shared_ptr<const Snapshot> since;
  {
    MutexLock lock(&history_mu_);
    for (const auto& old : history_) {
      if (old->version == request.since_version) {
        since = old;
        break;
      }
    }
  }
  if (since == nullptr) {
    return ErrorResponse(
        request, snap.version, StatusCode::kNotFound,
        "since_version is not a retained snapshot version (too old, future, "
        "or epoch history is disabled)");
  }
  const CancelToken cancel(request.deadline);
  const std::vector<ObjectId> before =
      since->cube->SubspaceSkyline(request.subspace, &cancel);
  const std::vector<ObjectId> now =
      snap.cube->SubspaceSkyline(request.subspace, &cancel);
  auto entered = std::make_shared<std::vector<ObjectId>>();
  auto left = std::make_shared<std::vector<ObjectId>>();
  // Both skylines come back in ascending id order, so the diff is one
  // linear merge each way.
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(*entered));
  std::set_difference(before.begin(), before.end(), now.begin(), now.end(),
                      std::back_inserter(*left));
  QueryResponse response;
  response.kind = request.kind;
  response.snapshot_version = snap.version;
  response.count = entered->size() + left->size();
  response.ids = std::move(entered);
  response.left_ids = std::move(left);
  return response;
}

void SkycubeService::RetainSnapshot(std::shared_ptr<const Snapshot> snap) {
  if (options_.epoch_history == 0) return;
  MutexLock lock(&history_mu_);
  history_.push_back(std::move(snap));
  while (history_.size() > options_.epoch_history) history_.pop_front();
}

void SkycubeService::AttachInsertHandler(InsertHandler* handler) {
  insert_handler_.store(handler, std::memory_order_release);
}

void SkycubeService::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

QueryResponse SkycubeService::ExecuteInsert(const QueryRequest& request) {
  InsertHandler* handler = insert_handler_.load(std::memory_order_acquire);
  if (handler == nullptr) {
    invalid_requests_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, LoadSnapshot()->version,
                         StatusCode::kInvalidArgument,
                         "service is read-only: no insert handler attached");
  }
  // One writer at a time: the handler mutates shared state (maintainer,
  // WAL) and the apply→Reload pair must publish snapshots in apply order so
  // snapshot_version stays monotone with the WAL.
  MutexLock lock(&ingest_mu_);
  // Stamp the ingest time so the sliding-window expiry pass can age the
  // row out later (0 = no clock configured = the row never expires).
  const uint64_t now_ms = options_.ingest_clock ? options_.ingest_clock() : 0;
  Result<InsertHandler::Applied> applied = handler->ApplyInsert(
      request.values, now_ms);
  if (!applied.ok()) {
    insert_failures_.fetch_add(1, std::memory_order_relaxed);
    const Status& status = applied.status();
    return ErrorResponse(request, LoadSnapshot()->version, status.code(),
                         status.message());
  }
  // Swapping the snapshot bumps the version, which invalidates every cached
  // read answer (cache keys carry the version) — a reader can never see a
  // pre-insert answer labeled with a post-insert version.
  Reload(applied.value().cube);
  inserts_applied_.fetch_add(1, std::memory_order_relaxed);

  QueryResponse response;
  response.kind = QueryKind::kInsert;
  response.insert_path = InsertPathName(applied.value().path);
  response.lsn = applied.value().lsn;
  response.count = applied.value().num_objects;
  response.snapshot_version = snapshot_version();
  return response;
}

QueryResponse SkycubeService::ExecuteDelete(const QueryRequest& request) {
  InsertHandler* handler = insert_handler_.load(std::memory_order_acquire);
  if (handler == nullptr) {
    invalid_requests_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(request, LoadSnapshot()->version,
                         StatusCode::kInvalidArgument,
                         "service is read-only: no insert handler attached");
  }
  MutexLock lock(&ingest_mu_);
  Result<InsertHandler::Applied> applied =
      handler->ApplyDelete(request.object);
  if (!applied.ok()) {
    delete_failures_.fetch_add(1, std::memory_order_relaxed);
    const Status& status = applied.status();
    return ErrorResponse(request, LoadSnapshot()->version, status.code(),
                         status.message());
  }
  // An already-dead target leaves the cube untouched (no swap, so cached
  // answers stay valid); a live one publishes the post-delete snapshot,
  // which invalidates every cached read answer by version.
  if (applied.value().cube != nullptr) {
    Reload(applied.value().cube);
    deletes_applied_.fetch_add(1, std::memory_order_relaxed);
  }

  QueryResponse response;
  response.kind = QueryKind::kDelete;
  response.insert_path = DeletePathName(applied.value().delete_path);
  response.lsn = applied.value().lsn;
  response.count = applied.value().num_live;
  response.snapshot_version = snapshot_version();
  return response;
}

Result<uint64_t> SkycubeService::ApplyExpiry(uint64_t cutoff_ms) {
  InsertHandler* handler = insert_handler_.load(std::memory_order_acquire);
  if (handler == nullptr) {
    return Status::InvalidArgument(
        "service is read-only: no insert handler attached");
  }
  MutexLock lock(&ingest_mu_);
  Result<InsertHandler::Applied> applied = handler->ApplyExpire(cutoff_ms);
  if (!applied.ok()) return applied.status();
  // A pass that expired nothing returns no cube — keep the snapshot (and
  // the result cache) untouched.
  if (applied.value().cube != nullptr) {
    Reload(applied.value().cube);
  }
  expiry_passes_.fetch_add(1, std::memory_order_relaxed);
  expired_rows_.fetch_add(applied.value().num_expired,
                          std::memory_order_relaxed);
  return static_cast<uint64_t>(applied.value().num_expired);
}

std::vector<QueryResponse> SkycubeService::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<QueryResponse> responses(requests.size());
  if (requests.empty()) return responses;
  const auto start = std::chrono::steady_clock::now();
  if (draining()) {
    const uint64_t version = LoadSnapshot()->version;
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i] = DrainingResponse(requests[i], version);
    }
    return responses;
  }
  if (!AdmitSlot()) {
    const uint64_t version = LoadSnapshot()->version;
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i] = ShedResponse(requests[i], version);
    }
    return responses;
  }
  struct SlotGuard {
    SkycubeService* service;
    bool held;
    ~SlotGuard() {
      if (held) service->ReleaseSlot();
    }
  } slot{this, options_.max_in_flight > 0};
  // One snapshot load for the whole batch: every response is consistent
  // with the same cube version.
  const std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  ThreadPool& pool = BatchPool();
  std::atomic<size_t> next{0};
  Mutex mu;
  CondVar all_exited;
  int exited = 0;  // guarded by mu (locals cannot carry GUARDED_BY)
  auto runner = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) break;
      // ExecuteOn fails items independently (validation, deadline,
      // exception → error response), so one bad item never voids the batch.
      responses[i] = ExecuteOn(requests[i], *snap);
    }
    // Notify under the lock: the caller's stack frame (and this condvar)
    // dies as soon as it can observe the predicate, which requires mu.
    MutexLock lock(&mu);
    ++exited;
    all_exited.NotifyOne();
  };
  int submitted = 0;
  const int helpers = std::min(static_cast<int>(requests.size()) - 1,
                               pool.num_threads());
  for (int i = 0; i < helpers; ++i) {
    std::function<void()> task = runner;
    if (!pool.TrySubmit(task)) break;
    ++submitted;
  }
  runner();  // the caller works through the batch too
  {
    MutexLock lock(&mu);
    while (exited != submitted + 1) all_exited.Wait(&mu);
  }
  latency_.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return responses;
}

void SkycubeService::Reload(
    std::shared_ptr<const CompressedSkylineCube> cube) {
  SKYCUBE_CHECK_MSG(cube != nullptr, "Reload needs a cube");
  auto next = std::make_shared<Snapshot>();
  next->cube = std::move(cube);
  std::shared_ptr<const Snapshot> previous;
  {
    MutexLock lock(&snapshot_mu_);
    next->version = snapshot_->version + 1;
    previous = std::exchange(snapshot_, next);
  }
  // `previous` is released at return, outside snapshot_mu_: a cube
  // destructor never runs under the lock readers take.
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);
  // Version-keyed entries of the old snapshot can never be served again;
  // Clear() just releases their memory promptly.
  cache_.Clear();
  RetainSnapshot(std::move(next));
}

std::shared_ptr<const CompressedSkylineCube> SkycubeService::snapshot()
    const {
  return LoadSnapshot()->cube;
}

uint64_t SkycubeService::snapshot_version() const {
  return LoadSnapshot()->version;
}

int SkycubeService::num_dims() const {
  return LoadSnapshot()->cube->num_dims();
}

std::string SkycubeService::HealthLine() const {
  return FormatHealthLine(*this);
}

std::string SkycubeService::StatsLine() const {
  return FormatStatsLine(*this);
}

namespace {

/// Bounded work-queue capacity of the batch pool.
constexpr size_t kBatchQueueCapacity = 1024;

}  // namespace

ThreadPool& SkycubeService::BatchPool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(
        ThreadPoolOptions{options_.batch_threads, kBatchQueueCapacity});
    pool_ptr_.store(pool_.get(), std::memory_order_release);
  });
  return *pool_;
}

ServiceStats SkycubeService::stats() const {
  ServiceStats stats;
  for (int kind = 0; kind < kNumQueryKinds; ++kind) {
    stats.queries_by_kind[kind] =
        queries_by_kind_[kind].load(std::memory_order_relaxed);
    stats.queries_total += stats.queries_by_kind[kind];
    stats.shed_by_kind[kind] =
        shed_by_kind_[kind].load(std::memory_order_relaxed);
    stats.shed_total += stats.shed_by_kind[kind];
  }
  stats.invalid_requests = invalid_requests_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  stats.admission_waits = admission_waits_.load(std::memory_order_relaxed);
  stats.inserts_applied = inserts_applied_.load(std::memory_order_relaxed);
  stats.insert_failures = insert_failures_.load(std::memory_order_relaxed);
  stats.deletes_applied = deletes_applied_.load(std::memory_order_relaxed);
  stats.delete_failures = delete_failures_.load(std::memory_order_relaxed);
  stats.expiry_passes = expiry_passes_.load(std::memory_order_relaxed);
  stats.expired_rows = expired_rows_.load(std::memory_order_relaxed);
  stats.drained_rejects = drained_rejects_.load(std::memory_order_relaxed);
  stats.draining = draining();
  if (options_.max_in_flight > 0) {
    MutexLock lock(&admission_mu_);
    stats.in_flight_high_water = in_flight_high_water_;
  }

  const ResultCacheStats cache = cache_.stats();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_evictions = cache.evictions;
  stats.cache_entries = cache.entries;
  stats.cache_hit_rate = cache.HitRate();

  const std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  stats.snapshot_version = snap->version;
  stats.snapshot_swaps = snapshot_swaps_.load(std::memory_order_relaxed);
  if (const ThreadPool* pool = pool_ptr_.load(std::memory_order_acquire)) {
    stats.queue_depth_high_water = pool->stats().queue_depth_high_water;
  }

  stats.latency_mean_nanos = latency_.MeanNanos();
  stats.latency_p50_nanos = latency_.PercentileNanos(0.50);
  stats.latency_p95_nanos = latency_.PercentileNanos(0.95);
  stats.latency_p99_nanos = latency_.PercentileNanos(0.99);
  return stats;
}

}  // namespace skycube
