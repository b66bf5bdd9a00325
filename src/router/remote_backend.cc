#include "router/remote_backend.h"

#include <algorithm>
#include <utility>

namespace skycube::router {

namespace {

net::WireRequest WireFromQuery(const QueryRequest& request, uint64_t id) {
  net::WireRequest wire;
  wire.op = net::OpcodeForKind(request.kind);
  wire.id = id;
  wire.subspace = request.subspace;
  wire.object = request.object;
  wire.values = request.values;
  return wire;
}

Deadline EarlierOf(Deadline a, Deadline b) {
  if (a.infinite()) return b;
  if (b.infinite()) return a;
  return a.when() <= b.when() ? a : b;
}

}  // namespace

/// One in-flight remote batch: a primary stream plus (possibly) a hedged
/// duplicate racing it. Single-owner, like every ShardCall.
class RemoteShardCall : public ShardCall {
 public:
  RemoteShardCall(RemoteShardBackend* backend,
                  std::unique_ptr<net::NetClient> primary, std::string burst,
                  size_t expected, bool hedgeable, Deadline budget,
                  Deadline hedge_at)
      : backend_(backend),
        burst_(std::move(burst)),
        expected_(expected),
        hedgeable_(hedgeable),
        budget_(budget),
        hedge_at_(hedge_at),
        started_(RemoteShardBackend::Clock::now()) {
    primary_.client = std::move(primary);
  }

  bool Collect(std::vector<QueryResponse>* responses,
               std::string* error) override;

 private:
  struct Stream {
    std::unique_ptr<net::NetClient> client;
    std::vector<QueryResponse> got;
    bool failed = false;
    std::string error;

    bool live() const { return client != nullptr && !failed; }
  };

  /// Completes the call on `winner`; the loser's connection (if any) is
  /// discarded — late frames on it must not leak into the pool.
  bool Win(Stream* winner, Stream* loser,
           std::vector<QueryResponse>* responses);
  bool Fail(std::string why, std::string* error);
  /// Reads one pending/readable response into `stream`.
  void Pump(Stream* stream);
  void StartHedge();

  RemoteShardBackend* backend_;
  std::string burst_;
  size_t expected_;
  bool hedgeable_;
  Deadline budget_;
  Deadline hedge_at_;
  RemoteShardBackend::Clock::time_point started_;
  Stream primary_;
  Stream hedge_;
  bool hedged_ = false;
};

bool RemoteShardCall::Win(Stream* winner, Stream* loser,
                          std::vector<QueryResponse>* responses) {
  *responses = std::move(winner->got);
  const int64_t micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          RemoteShardBackend::Clock::now() - started_)
          .count();
  backend_->NoteSuccess(micros);
  // The winner consumed exactly one response per pipelined request, so its
  // connection is clean and reusable.
  backend_->ReleaseConnection(std::move(winner->client));
  if (loser != nullptr) loser->client.reset();
  return true;
}

bool RemoteShardCall::Fail(std::string why, std::string* error) {
  if (error != nullptr) *error = std::move(why);
  primary_.client.reset();
  hedge_.client.reset();
  backend_->NoteFailure();
  return false;
}

void RemoteShardCall::Pump(Stream* stream) {
  net::WireResponse wire;
  std::string read_error;
  net::WireGoAway goaway;
  switch (stream->client->ReadResponse(&wire, budget_, &read_error,
                                       &goaway)) {
    case net::NetClient::Got::kFrame:
      // Responses arrive in request order; the echoed id proves it.
      if (wire.id != stream->got.size()) {
        stream->failed = true;
        stream->error = "response out of order";
        return;
      }
      stream->got.push_back(net::ToQueryResponse(wire));
      return;
    case net::NetClient::Got::kGoAway:
      stream->failed = true;
      stream->error = "goaway: " + goaway.reason;
      return;
    case net::NetClient::Got::kEof:
      stream->failed = true;
      stream->error = "connection closed mid-call";
      return;
    case net::NetClient::Got::kTimeout:
      stream->failed = true;
      stream->error = "deadline expired mid-frame";
      return;
    case net::NetClient::Got::kError:
      stream->failed = true;
      stream->error = read_error;
      return;
  }
}

void RemoteShardCall::StartHedge() {
  hedged_ = true;  // one attempt only, even if it fails to set up
  std::string error;
  std::unique_ptr<net::NetClient> client =
      backend_->AcquireConnection(&error);
  if (client == nullptr) return;
  if (!client->Send(burst_).ok()) return;  // discard; primary keeps going
  hedge_.client = std::move(client);
  backend_->NoteHedge();
}

bool RemoteShardCall::Collect(std::vector<QueryResponse>* responses,
                              std::string* error) {
  if (primary_.client == nullptr) {
    return Fail("no connection", error);
  }
  while (true) {
    if (primary_.live() && primary_.got.size() == expected_) {
      return Win(&primary_, hedged_ ? &hedge_ : nullptr, responses);
    }
    if (hedge_.live() && hedge_.got.size() == expected_) {
      backend_->NoteHedgeWin();
      return Win(&hedge_, &primary_, responses);
    }
    const bool can_still_hedge = hedgeable_ && !hedged_;
    if (!primary_.live() && !hedge_.live() && !can_still_hedge) {
      return Fail(primary_.failed ? primary_.error : hedge_.error, error);
    }
    if (budget_.expired()) {
      return Fail("deadline expired waiting for shard", error);
    }
    // A failed primary hedges immediately (it is a retry at that point).
    if (can_still_hedge && (hedge_at_.expired() || !primary_.live())) {
      StartHedge();
      continue;
    }
    std::vector<net::NetClient*> waiting;
    std::vector<Stream*> streams;
    if (primary_.live()) {
      waiting.push_back(primary_.client.get());
      streams.push_back(&primary_);
    }
    if (hedge_.live()) {
      waiting.push_back(hedge_.client.get());
      streams.push_back(&hedge_);
    }
    const Deadline wait =
        can_still_hedge ? EarlierOf(budget_, hedge_at_) : budget_;
    const int ready = net::NetClient::WaitAnyReadable(waiting, wait);
    if (ready < 0) continue;  // hedge trigger or budget; re-check above
    Pump(streams[static_cast<size_t>(ready)]);
  }
}

RemoteShardBackend::RemoteShardBackend(RemoteShardOptions options)
    : options_(std::move(options)), backoff_(options_.probe) {}

RemoteShardBackend::~RemoteShardBackend() = default;

std::unique_ptr<net::NetClient> RemoteShardBackend::AcquireConnection(
    std::string* error) {
  {
    MutexLock lock(&mu_);
    if (!pool_.empty()) {
      std::unique_ptr<net::NetClient> client = std::move(pool_.back());
      pool_.pop_back();
      return client;
    }
  }
  auto client = std::make_unique<net::NetClient>();
  const Status status = client->Connect(options_.host, options_.port);
  if (!status.ok()) {
    if (error != nullptr) *error = status.message();
    return nullptr;
  }
  return client;
}

void RemoteShardBackend::ReleaseConnection(
    std::unique_ptr<net::NetClient> client) {
  if (client == nullptr || !client->connected()) return;
  MutexLock lock(&mu_);
  if (pool_.size() >= kMaxPooled) return;  // close (unique_ptr drops it)
  pool_.push_back(std::move(client));
}

void RemoteShardBackend::NoteSuccess(int64_t latency_micros) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  consecutive_failures_ = 0;
  backoff_.Reset();
  latency_micros_[latency_count_ % kLatencyRing] = latency_micros;
  ++latency_count_;
}

void RemoteShardBackend::NoteFailure() {
  calls_.fetch_add(1, std::memory_order_relaxed);
  failures_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  ++consecutive_failures_;
  if (consecutive_failures_ >= options_.down_after_failures) {
    // A failed call (the probe included) grows the backoff and pushes the
    // next probe out; the stale connection pool is dropped — those sockets
    // are dead too.
    backoff_.NoteFailure(Clock::now());
    pool_.clear();
  }
}

bool RemoteShardBackend::down() {
  MutexLock lock(&mu_);
  if (consecutive_failures_ < options_.down_after_failures) return false;
  const Clock::time_point now = Clock::now();
  if (backoff_.ProbeDue(now)) {
    // Let exactly one call through as a probe; push the next one out (at
    // the current backoff, ungrown) so a still-dead shard is not hammered.
    backoff_.ClaimProbe(now);
    return false;
  }
  return true;
}

bool RemoteShardBackend::marked_down() {
  MutexLock lock(&mu_);
  return consecutive_failures_ >= options_.down_after_failures;
}

int64_t RemoteShardBackend::HedgeThresholdMillis() {
  int64_t p95_micros = 0;
  {
    MutexLock lock(&mu_);
    const size_t n = std::min(latency_count_, kLatencyRing);
    if (n >= 8) {
      std::array<int64_t, kLatencyRing> sorted = latency_micros_;
      std::sort(sorted.begin(), sorted.begin() + static_cast<long>(n));
      p95_micros = sorted[(n * 95) / 100];
    }
  }
  int64_t threshold = options_.hedge_min_millis;
  if (p95_micros > 0) {
    threshold = std::max(
        threshold,
        static_cast<int64_t>(options_.hedge_factor *
                             static_cast<double>(p95_micros) / 1000.0));
  }
  return threshold;
}

std::unique_ptr<ShardCall> RemoteShardBackend::Start(
    const std::vector<QueryRequest>& requests, Deadline budget) {
  std::string error;
  std::unique_ptr<net::NetClient> primary = AcquireConnection(&error);
  if (primary == nullptr) {
    NoteFailure();
    return nullptr;
  }
  std::string burst;
  bool has_insert = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    has_insert = has_insert || requests[i].kind == QueryKind::kInsert;
    burst += net::EncodeRequest(WireFromQuery(requests[i], i));
  }
  if (!primary->Send(burst).ok()) {
    NoteFailure();
    return nullptr;
  }
  const bool hedgeable = options_.hedge_reads && !has_insert;
  const Deadline hedge_at =
      hedgeable ? EarlierOf(Deadline::AfterMillis(HedgeThresholdMillis()),
                            budget)
                : Deadline::Infinite();
  return std::make_unique<RemoteShardCall>(this, std::move(primary),
                                           std::move(burst), requests.size(),
                                           hedgeable, budget, hedge_at);
}

RemoteShardStats RemoteShardBackend::stats() {
  RemoteShardStats stats;
  stats.calls = calls_.load(std::memory_order_relaxed);
  stats.failures = failures_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    stats.down = consecutive_failures_ >= options_.down_after_failures &&
                 !backoff_.ProbeDue(Clock::now());
    stats.probe_backoff_millis =
        stats.down ? backoff_.current_delay_millis() : 0;
  }
  return stats;
}

}  // namespace skycube::router
