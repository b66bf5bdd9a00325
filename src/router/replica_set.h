// ReplicaSetBackend: one shard as a primary plus R hot-standby replicas
// (docs/REPLICATION.md, docs/SHARDING.md "Failover").
//
// Wraps one RemoteShardBackend per member behind the single ShardBackend
// interface the scatter–gather engine already speaks, so the router's
// query plans are replication-blind. Routing policy:
//  - every batch goes to the current primary while it is up (the member
//    backend's own hedging covers tail latency);
//  - when the primary is down-marked, the set fails over: each member is
//    probed with kReplState, the most-caught-up live replica receives
//    kReplPromote fenced at its own applied LSN, and on acknowledgement it
//    becomes the new primary for reads and writes alike;
//  - while no promotion has succeeded, read-only batches may be served by
//    a live replica within the bounded-staleness window (applied LSN no
//    more than max_staleness_records behind the most-caught-up member);
//    under semi-synchronous fencing every client-acked write is already on
//    such a replica, so these reads never lose acked data;
//  - mutations are primary-only, always: a replica answering an insert
//    would fork the LSN sequence. With the primary down and promotion
//    failing, mutations fail (and the scatter layer answers kUnavailable
//    for them — inserts are never partial).
//
// down() is true only when the ENTIRE set is unreachable — this is what
// makes the router fail over instead of degrading: a dead primary with a
// live replica never yields a partial answer.
//
// Control-plane calls (kReplState, kReplPromote) use a short-lived
// NetClient per call with their own timeout; they are low-rate (state
// probes are cached for 500 ms, kStateTtlMillis in the .cc) and never
// touch the pooled query connections.
#ifndef SKYCUBE_ROUTER_REPLICA_SET_H_
#define SKYCUBE_ROUTER_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/protocol.h"
#include "router/remote_backend.h"
#include "router/scatter_gather.h"

namespace skycube::router {

/// One shard-server address.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// One shard's full replica set: the initial primary plus its standbys.
struct ShardEndpointSet {
  ShardEndpoint primary;
  std::vector<ShardEndpoint> replicas;
};

struct ReplicaSetOptions {
  /// Template for every member backend (host and port are overridden).
  RemoteShardOptions shard;
  /// Bounded staleness for replica reads while no primary is available: a
  /// replica is read-eligible iff its applied LSN is within this many
  /// records of the most-caught-up member's.
  uint64_t max_staleness_records = 4096;
};

/// Point-in-time view of one member (plain data, copyable).
struct ReplicaMemberStatus {
  std::string host;
  uint16_t port = 0;
  bool is_primary = false;
  bool down = false;
  /// False until a kReplState probe has ever succeeded.
  bool state_known = false;
  uint64_t applied_lsn = 0;
  /// Records behind the most-caught-up member (0 for that member).
  uint64_t lag = 0;
  std::string role;  // server-reported: "primary" / "replica"
};

/// Point-in-time counters (plain data, copyable).
struct ReplicaSetStats {
  size_t members = 0;
  size_t members_down = 0;
  uint64_t promotions = 0;
  uint64_t failed_promotions = 0;
  uint64_t replica_reads = 0;  // read batches served by a non-primary
  uint64_t max_lag = 0;        // from the freshest state probes
  bool down = false;           // entire set unreachable
};

class ReplicaSetBackend : public ShardBackend {
 public:
  /// Member 0 is the initial primary.
  ReplicaSetBackend(const ShardEndpointSet& endpoints,
                    ReplicaSetOptions options = {});
  ~ReplicaSetBackend() override;

  ReplicaSetBackend(const ReplicaSetBackend&) = delete;
  ReplicaSetBackend& operator=(const ReplicaSetBackend&) = delete;

  std::unique_ptr<ShardCall> Start(const std::vector<QueryRequest>& requests,
                                   Deadline budget) override;
  /// True only when every member is unreachable.
  bool down() override;

  ReplicaSetStats stats() EXCLUDES(mu_);
  /// Per-member health (probes members whose cached state went stale).
  std::vector<ReplicaMemberStatus> Members() EXCLUDES(mu_);
  /// The member currently addressed as primary.
  size_t current_primary() EXCLUDES(mu_);
  size_t num_members() const { return members_.size(); }
  /// The current primary's query backend (router stats aggregation).
  RemoteShardStats primary_stats() EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Member {
    ShardEndpoint endpoint;
    std::unique_ptr<RemoteShardBackend> backend;
    // Cached kReplState answer.
    bool state_known = false;
    bool state_fresh = false;  // last probe (not necessarily fresh) worked
    uint64_t applied_lsn = 0;
    std::string role;
    Clock::time_point state_at = Clock::time_point::min();
  };

  /// One control-plane request on a fresh connection. Thread-safe (no
  /// member state touched).
  Result<net::WireResponse> ControlCall(const ShardEndpoint& endpoint,
                                        net::WireRequest request);
  /// Re-probes members whose cached state is older than state_ttl.
  void RefreshStatesLocked() REQUIRES(mu_);
  /// Promotes the most-caught-up live replica; true when the set has a
  /// working primary afterwards. Serialized by mu_.
  bool TryFailoverLocked() REQUIRES(mu_);
  /// Read-eligible replica under the staleness bound, or members_.size().
  size_t PickReadReplicaLocked() REQUIRES(mu_);

  ReplicaSetOptions options_;
  std::vector<std::unique_ptr<Member>> members_;

  Mutex mu_;
  size_t primary_ GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> failed_promotions_{0};
  std::atomic<uint64_t> replica_reads_{0};
};

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_REPLICA_SET_H_
