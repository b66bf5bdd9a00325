// In-process sharded serving tier (docs/SHARDING.md).
//
// ShardedSkycubeService partitions a dataset over N real SkycubeService
// instances by consistent hash (each with its own cube, result cache, and
// maintainer-backed insert path) and answers queries
// through the same ScatterGather engine the TCP router uses — just with
// in-process backends instead of sockets. Two jobs:
//  - the router correctness oracle: merged answers must be byte-identical
//    to a single-node SkycubeService over the same rows (tests/router/);
//  - a single-process deployment shape where the sharding win is cache and
//    maintainer locality, without paying the network hop.
//
// LocalShardBackend also carries the SetDown test hook that simulates a
// dead shard for degradation tests without killing a process.
#ifndef SKYCUBE_ROUTER_SHARDED_SERVICE_H_
#define SKYCUBE_ROUTER_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/maintenance.h"
#include "dataset/dataset.h"
#include "router/partition.h"
#include "router/scatter_gather.h"
#include "service/executor.h"
#include "service/ingest.h"
#include "service/service.h"

namespace skycube::router {

/// ShardBackend over an in-process SkycubeService: Start executes the
/// batch synchronously and Collect hands the answers back.
class LocalShardBackend : public ShardBackend {
 public:
  explicit LocalShardBackend(SkycubeService* service) : service_(service) {}

  std::unique_ptr<ShardCall> Start(const std::vector<QueryRequest>& requests,
                                   Deadline budget) override;
  bool down() override {
    return forced_down_.load(std::memory_order_acquire);
  }

  /// Degradation test hook: a down backend refuses every call, exactly
  /// like a SIGKILLed shard process.
  void SetDown(bool down) {
    forced_down_.store(down, std::memory_order_release);
  }

 private:
  SkycubeService* service_;
  std::atomic<bool> forced_down_{false};
};

struct ShardedServiceOptions {
  size_t num_shards = 4;
  uint64_t ring_seed = 0;
  int ring_vnodes = 64;
  /// Per-shard service knobs (cache sizing, admission, ...).
  SkycubeServiceOptions service;
  ScatterGatherOptions scatter;
};

class ShardedSkycubeService : public QueryExecutor {
 public:
  /// Partitions `source`'s rows by the ring (row id -> owner shard) and
  /// builds each shard's cube. Row order within a shard is ascending
  /// global id — the local <-> global translation contract.
  ShardedSkycubeService(const Dataset& source,
                        ShardedServiceOptions options = {});
  ~ShardedSkycubeService() override;

  ShardedSkycubeService(const ShardedSkycubeService&) = delete;
  ShardedSkycubeService& operator=(const ShardedSkycubeService&) = delete;

  QueryResponse Execute(const QueryRequest& request) override;
  uint64_t snapshot_version() const override;
  int num_dims() const override { return topology_.num_dims(); }
  void BeginDrain() override;
  bool draining() const override {
    return draining_.load(std::memory_order_acquire);
  }
  std::string HealthLine() const override;
  std::string StatsLine() const override;

  size_t num_shards() const { return topology_.num_shards(); }
  const RouterTopology& topology() const { return topology_; }
  ScatterGatherStats scatter_stats() const { return scatter_->stats(); }

  /// Degradation test hook (see LocalShardBackend::SetDown).
  void SetShardDown(size_t shard, bool down) {
    backends_[shard]->SetDown(down);
  }

 private:
  struct Shard {
    std::unique_ptr<IncrementalCubeMaintainer> maintainer;
    std::unique_ptr<MaintainerInsertHandler> handler;
    std::unique_ptr<SkycubeService> service;
  };

  RouterTopology topology_;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<LocalShardBackend>> backends_;
  std::unique_ptr<ScatterGather> scatter_;
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> drained_rejects_{0};
};

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_SHARDED_SERVICE_H_
