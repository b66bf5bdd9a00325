#include "router/sharded_service.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/macros.h"

namespace skycube::router {

namespace {

/// ShardCall over an already-computed batch: LocalShardBackend executes
/// synchronously in Start, so Collect just moves the answers out.
class LocalShardCall : public ShardCall {
 public:
  explicit LocalShardCall(std::vector<QueryResponse> responses)
      : responses_(std::move(responses)) {}

  bool Collect(std::vector<QueryResponse>* responses,
               std::string* error) override {
    (void)error;
    *responses = std::move(responses_);
    return true;
  }

 private:
  std::vector<QueryResponse> responses_;
};

}  // namespace

std::unique_ptr<ShardCall> LocalShardBackend::Start(
    const std::vector<QueryRequest>& requests, Deadline budget) {
  if (down()) return nullptr;
  std::vector<QueryRequest> budgeted = requests;
  for (QueryRequest& request : budgeted) {
    // Tighten (never widen) each item's deadline to the wave budget so an
    // in-process shard sheds over-budget work exactly like a remote one.
    if (request.deadline.infinite() ||
        budget.remaining() < request.deadline.remaining()) {
      request.deadline = budget;
    }
  }
  std::vector<QueryResponse> responses = service_->ExecuteBatch(budgeted);
  return std::make_unique<LocalShardCall>(std::move(responses));
}

ShardedSkycubeService::ShardedSkycubeService(const Dataset& source,
                                             ShardedServiceOptions options)
    : topology_(source.num_dims(), std::max<size_t>(options.num_shards, 1),
                options.ring_seed, options.ring_vnodes) {
  const size_t num_shards = topology_.num_shards();
  const ObjectId num_rows = static_cast<ObjectId>(source.num_objects());

  // Partition by ring ownership in ascending-gid order: shard-local id L is
  // the L-th owned global id, the same order a shard process loads its
  // partition with (tools/skycube_serve.cc --shard-index).
  std::vector<Dataset> partitions;
  partitions.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    partitions.emplace_back(source.num_dims(), source.dim_names());
  }
  for (ObjectId gid = 0; gid < num_rows; ++gid) {
    const double* row = source.Row(gid);
    const ObjectId appended = topology_.AppendRow(row);
    SKYCUBE_CHECK_MSG(appended == gid, "topology append out of order");
    partitions[topology_.OwnerOf(gid)].AddRow(
        std::vector<double>(row, row + source.num_dims()));
  }

  shards_.reserve(num_shards);
  backends_.reserve(num_shards);
  std::vector<ShardBackend*> backend_ptrs;
  backend_ptrs.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard;
    shard.maintainer =
        std::make_unique<IncrementalCubeMaintainer>(std::move(partitions[s]));
    shard.handler =
        std::make_unique<MaintainerInsertHandler>(shard.maintainer.get());
    shard.service = std::make_unique<SkycubeService>(
        std::make_shared<const CompressedSkylineCube>(
            shard.maintainer->MakeCube()),
        options.service);
    shard.service->AttachInsertHandler(shard.handler.get());
    backends_.push_back(
        std::make_unique<LocalShardBackend>(shard.service.get()));
    backend_ptrs.push_back(backends_.back().get());
    shards_.push_back(std::move(shard));
  }
  scatter_ = std::make_unique<ScatterGather>(&topology_,
                                             std::move(backend_ptrs),
                                             options.scatter);
}

ShardedSkycubeService::~ShardedSkycubeService() = default;

QueryResponse ShardedSkycubeService::Execute(const QueryRequest& request) {
  if (draining()) {
    drained_rejects_.fetch_add(1, std::memory_order_relaxed);
    QueryResponse response;
    response.kind = request.kind;
    response.ok = false;
    response.code = StatusCode::kUnavailable;
    response.error = "service is draining";
    response.snapshot_version = snapshot_version();
    return response;
  }
  return scatter_->Execute(request);
}

uint64_t ShardedSkycubeService::snapshot_version() const {
  uint64_t version = scatter_->known_version();
  for (const Shard& shard : shards_) {
    version = std::max(version, shard.service->snapshot_version());
  }
  return version;
}

void ShardedSkycubeService::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  for (const Shard& shard : shards_) shard.service->BeginDrain();
}

std::string ShardedSkycubeService::HealthLine() const {
  size_t down = 0;
  for (const auto& backend : backends_) {
    if (backend->down()) ++down;
  }
  std::ostringstream out;
  out << "ok status=" << (draining() ? "draining" : "ready")
      << " version=" << snapshot_version()
      << " shards=" << num_shards() << " shards_down=" << down
      << " rows=" << topology_.total_rows();
  return out.str();
}

std::string ShardedSkycubeService::StatsLine() const {
  const ScatterGatherStats stats = scatter_->stats();
  std::ostringstream out;
  out << "ok queries=" << stats.queries
      << " shard_calls=" << stats.shard_calls
      << " shard_losses=" << stats.shard_losses
      << " partial_answers=" << stats.partial_answers
      << " merge_candidates=" << stats.merge_candidates
      << " inserts=" << stats.inserts_routed
      << " drained_rejects="
      << drained_rejects_.load(std::memory_order_relaxed)
      << " version=" << snapshot_version()
      << " draining=" << (draining() ? 1 : 0);
  return out.str();
}

}  // namespace skycube::router
