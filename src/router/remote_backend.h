// Remote shard backend of the scatter–gather router (docs/SHARDING.md).
//
// One RemoteShardBackend speaks the src/net binary protocol to one shard
// server (tools/skycube_serve --shard-index). Per call it takes a pooled
// connection, pipelines the whole request batch as one burst, and collects
// the responses in order.
//
// Tail-latency control — hedged requests: the backend tracks a ring of
// recent call latencies and derives a p95. When a read-only call has
// produced nothing for max(hedge_min_millis, hedge_factor × p95), the
// batch is duplicated onto a second pooled connection and both streams
// race; the first to deliver every response wins and the loser's
// connection is discarded (its late responses must never be mistaken for
// fresh ones). Batches containing an insert are never hedged — a duplicate
// insert is a wrong answer, not a slow one.
//
// Failure policy: after down_after_failures consecutive transport failures
// the shard is considered down and Start refuses immediately; probe calls
// are let through on a jittered exponential-backoff schedule (ProbeBackoff:
// probe.initial_millis doubling up to probe.max_millis, ±20% jitter), and a
// single success fully revives the shard and resets the schedule.
#ifndef SKYCUBE_ROUTER_REMOTE_BACKEND_H_
#define SKYCUBE_ROUTER_REMOTE_BACKEND_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/client.h"
#include "net/protocol.h"
#include "router/probe_backoff.h"
#include "router/scatter_gather.h"

namespace skycube::router {

struct RemoteShardOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Hedging (read-only batches): duplicate the burst onto a second
  /// connection once the call is slower than
  /// max(hedge_min_millis, hedge_factor × p95-of-recent-calls).
  bool hedge_reads = true;
  double hedge_factor = 3.0;
  int64_t hedge_min_millis = 10;
  /// Down-marking: consecutive transport failures before the shard is
  /// declared down, and the probe schedule afterwards (jittered
  /// exponential backoff; a success resets it).
  int down_after_failures = 3;
  ProbeBackoffOptions probe;
};

/// Point-in-time counters (plain data, copyable).
struct RemoteShardStats {
  uint64_t calls = 0;
  uint64_t failures = 0;
  uint64_t hedges = 0;      // hedge bursts actually sent
  uint64_t hedge_wins = 0;  // calls won by the hedged connection
  bool down = false;
  /// Current probe-backoff delay while down (0 when up or probe due).
  int64_t probe_backoff_millis = 0;
};

class RemoteShardBackend : public ShardBackend {
 public:
  explicit RemoteShardBackend(RemoteShardOptions options);
  ~RemoteShardBackend() override;

  RemoteShardBackend(const RemoteShardBackend&) = delete;
  RemoteShardBackend& operator=(const RemoteShardBackend&) = delete;

  std::unique_ptr<ShardCall> Start(const std::vector<QueryRequest>& requests,
                                   Deadline budget) override;
  bool down() override EXCLUDES(mu_);
  /// True while the failure threshold is tripped, regardless of whether a
  /// probe is currently due — down() has the claim-a-probe side effect,
  /// this is a pure read (the replica-set failover check uses it).
  bool marked_down() EXCLUDES(mu_);

  RemoteShardStats stats() EXCLUDES(mu_);
  const RemoteShardOptions& options() const { return options_; }

 private:
  friend class RemoteShardCall;

  using Clock = std::chrono::steady_clock;
  static constexpr size_t kLatencyRing = 128;
  /// Pooled idle connections kept per shard; excess ones are closed.
  static constexpr size_t kMaxPooled = 8;

  /// Pops a pooled connection or dials a fresh one. Null (with *error set)
  /// when the connect fails.
  std::unique_ptr<net::NetClient> AcquireConnection(std::string* error)
      EXCLUDES(mu_);
  /// Returns a clean connection (no outstanding responses) to the pool.
  void ReleaseConnection(std::unique_ptr<net::NetClient> client)
      EXCLUDES(mu_);

  void NoteSuccess(int64_t latency_micros) EXCLUDES(mu_);
  void NoteFailure() EXCLUDES(mu_);
  void NoteHedge() { hedges_.fetch_add(1, std::memory_order_relaxed); }
  void NoteHedgeWin() { hedge_wins_.fetch_add(1, std::memory_order_relaxed); }

  /// Elapsed-time threshold before a call hedges, from the latency ring.
  int64_t HedgeThresholdMillis() EXCLUDES(mu_);

  RemoteShardOptions options_;

  Mutex mu_;
  std::vector<std::unique_ptr<net::NetClient>> pool_ GUARDED_BY(mu_);
  std::array<int64_t, kLatencyRing> latency_micros_ GUARDED_BY(mu_) = {};
  size_t latency_count_ GUARDED_BY(mu_) = 0;
  int consecutive_failures_ GUARDED_BY(mu_) = 0;
  ProbeBackoff backoff_ GUARDED_BY(mu_);

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> hedge_wins_{0};
};

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_REMOTE_BACKEND_H_
