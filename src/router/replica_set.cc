#include "router/replica_set.h"

#include <algorithm>
#include <utility>

#include "common/deadline.h"
#include "net/client.h"

namespace skycube::router {

namespace {

/// Cached kReplState results older than this are re-probed before a
/// failover decision or a Members() report.
constexpr int64_t kStateTtlMillis = 500;
/// Per-call read timeout of control-plane requests.
constexpr int64_t kControlTimeoutMillis = 2000;

}  // namespace

ReplicaSetBackend::ReplicaSetBackend(const ShardEndpointSet& endpoints,
                                     ReplicaSetOptions options)
    : options_(std::move(options)) {
  const auto add_member = [this](const ShardEndpoint& endpoint) {
    auto member = std::make_unique<Member>();
    member->endpoint = endpoint;
    RemoteShardOptions shard_options = options_.shard;
    shard_options.host = endpoint.host;
    shard_options.port = endpoint.port;
    member->backend =
        std::make_unique<RemoteShardBackend>(std::move(shard_options));
    members_.push_back(std::move(member));
  };
  add_member(endpoints.primary);
  for (const ShardEndpoint& replica : endpoints.replicas) add_member(replica);
}

ReplicaSetBackend::~ReplicaSetBackend() = default;

Result<net::WireResponse> ReplicaSetBackend::ControlCall(
    const ShardEndpoint& endpoint, net::WireRequest request) {
  net::NetClient client;
  if (Status connected = client.Connect(endpoint.host, endpoint.port);
      !connected.ok()) {
    return Status::Unavailable("member unreachable: " + connected.message());
  }
  if (Status sent = client.SendRequest(request); !sent.ok()) {
    return Status::Unavailable("send to member failed: " + sent.message());
  }
  net::WireResponse response;
  std::string error;
  const auto got = client.ReadResponse(
      &response, Deadline::AfterMillis(kControlTimeoutMillis), &error);
  if (got != net::NetClient::Got::kFrame) {
    return Status::Unavailable("member stream failed: " +
                               (error.empty() ? "connection lost" : error));
  }
  if (response.status != StatusCode::kOk) {
    return Status(response.status, response.text);
  }
  return response;
}

void ReplicaSetBackend::RefreshStatesLocked() {
  const Clock::time_point now = Clock::now();
  for (auto& member : members_) {
    if (member->state_at != Clock::time_point::min() &&
        now - member->state_at < std::chrono::milliseconds(kStateTtlMillis)) {
      continue;
    }
    net::WireRequest request;
    request.op = net::Opcode::kReplState;
    request.id = 1;
    Result<net::WireResponse> response =
        ControlCall(member->endpoint, request);
    // Stamped even on failure so a dead member is probed at most once per
    // TTL, not once per failover attempt.
    member->state_at = now;
    if (!response.ok()) {
      member->state_fresh = false;
      continue;
    }
    member->state_fresh = true;
    member->state_known = true;
    member->applied_lsn = response.value().lsn;
    member->role = response.value().text;
  }
}

bool ReplicaSetBackend::TryFailoverLocked() {
  Member* current = members_[primary_].get();
  if (!current->backend->marked_down()) return true;  // revived or raced
  RefreshStatesLocked();
  size_t best = members_.size();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == primary_) continue;
    Member* member = members_[i].get();
    if (!member->state_fresh) continue;
    if (best == members_.size() ||
        member->applied_lsn > members_[best]->applied_lsn) {
      best = i;
    }
  }
  if (best == members_.size()) {
    failed_promotions_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Member* winner = members_[best].get();
  if (winner->role != "primary") {
    // Fence at the winner's own applied LSN: under semi-synchronous
    // fencing every client-acked write is ≤ that prefix, so nothing acked
    // is ever cut (docs/REPLICATION.md, "Promotion").
    net::WireRequest promote;
    promote.op = net::Opcode::kReplPromote;
    promote.id = 1;
    promote.ack_lsn = winner->applied_lsn;
    Result<net::WireResponse> response =
        ControlCall(winner->endpoint, promote);
    if (!response.ok()) {
      failed_promotions_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    winner->role = "primary";
    winner->applied_lsn = response.value().lsn;
  }
  primary_ = best;
  promotions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t ReplicaSetBackend::PickReadReplicaLocked() {
  uint64_t max_applied = 0;
  for (const auto& member : members_) {
    if (member->state_fresh) {
      max_applied = std::max(max_applied, member->applied_lsn);
    }
  }
  size_t best = members_.size();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == primary_) continue;  // the primary is down on this path
    Member* member = members_[i].get();
    if (!member->state_fresh) continue;
    if (member->applied_lsn + options_.max_staleness_records < max_applied) {
      continue;
    }
    if (member->backend->marked_down()) continue;
    if (best == members_.size() ||
        member->applied_lsn > members_[best]->applied_lsn) {
      best = i;
    }
  }
  return best;
}

std::unique_ptr<ShardCall> ReplicaSetBackend::Start(
    const std::vector<QueryRequest>& requests, Deadline budget) {
  bool has_mutation = false;
  for (const QueryRequest& request : requests) {
    has_mutation = has_mutation || request.kind == QueryKind::kInsert ||
                   request.kind == QueryKind::kDelete;
  }
  Member* primary;
  {
    MutexLock lock(&mu_);
    primary = members_[primary_].get();
  }
  if (!primary->backend->marked_down()) {
    std::unique_ptr<ShardCall> call = primary->backend->Start(requests, budget);
    if (call != nullptr) return call;
    // The failed Start counted against the primary; fail over only once
    // the threshold trips — a single connect blip is not an outage.
    if (!primary->backend->marked_down()) return nullptr;
  }
  MutexLock lock(&mu_);
  if (TryFailoverLocked()) {
    return members_[primary_]->backend->Start(requests, budget);
  }
  if (!has_mutation) {
    const size_t pick = PickReadReplicaLocked();
    if (pick < members_.size()) {
      replica_reads_.fetch_add(1, std::memory_order_relaxed);
      return members_[pick]->backend->Start(requests, budget);
    }
  }
  return nullptr;
}

bool ReplicaSetBackend::down() {
  // The set degrades only when EVERY member is unreachable; each member's
  // own down() keeps its probe schedule admitting probes.
  for (const auto& member : members_) {
    if (!member->backend->down()) return false;
  }
  return true;
}

ReplicaSetStats ReplicaSetBackend::stats() {
  ReplicaSetStats stats;
  stats.members = members_.size();
  stats.promotions = promotions_.load(std::memory_order_relaxed);
  stats.failed_promotions =
      failed_promotions_.load(std::memory_order_relaxed);
  stats.replica_reads = replica_reads_.load(std::memory_order_relaxed);
  MutexLock lock(&mu_);
  uint64_t max_applied = 0;
  size_t up = 0;
  for (const auto& member : members_) {
    if (member->backend->marked_down()) {
      ++stats.members_down;
    } else {
      ++up;
    }
    if (member->state_fresh) {
      max_applied = std::max(max_applied, member->applied_lsn);
    }
  }
  for (const auto& member : members_) {
    if (member->state_fresh) {
      stats.max_lag =
          std::max(stats.max_lag, max_applied - member->applied_lsn);
    }
  }
  stats.down = up == 0;
  return stats;
}

std::vector<ReplicaMemberStatus> ReplicaSetBackend::Members() {
  std::vector<ReplicaMemberStatus> result;
  MutexLock lock(&mu_);
  uint64_t max_applied = 0;
  for (const auto& member : members_) {
    if (member->state_known) {
      max_applied = std::max(max_applied, member->applied_lsn);
    }
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    const Member* member = members_[i].get();
    ReplicaMemberStatus status;
    status.host = member->endpoint.host;
    status.port = member->endpoint.port;
    status.is_primary = i == primary_;
    status.down = member->backend->marked_down();
    status.state_known = member->state_known;
    status.applied_lsn = member->applied_lsn;
    status.lag =
        member->state_known ? max_applied - member->applied_lsn : 0;
    status.role = member->role;
    result.push_back(std::move(status));
  }
  return result;
}

size_t ReplicaSetBackend::current_primary() {
  MutexLock lock(&mu_);
  return primary_;
}

RemoteShardStats ReplicaSetBackend::primary_stats() {
  MutexLock lock(&mu_);
  return members_[primary_]->backend->stats();
}

}  // namespace skycube::router
