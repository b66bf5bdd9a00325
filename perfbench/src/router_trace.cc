// Router layer of the traced `read` run. The read ops are replayed through
// a scatter-gather tier of 4 in-process shards over the same rows, with
// per-shard caches at default capacity. The tier is assembled from the
// parts ShardedSkycubeService wires (RouterTopology, per-shard services,
// LocalShardBackend, ScatterGather), with a benchmark-side ShardBackend
// wrapper that times the calls into each shard.
#include <memory>

#include "router/merge.h"
#include "router/partition.h"
#include "router/scatter_gather.h"
#include "router/sharded_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace router = skycube::router;

constexpr size_t kShards = 4;
// The replay: the first kReplayedOps ops of the list, of which only the
// first kReplayedQ3s Q3s. On 8 dimensions a Q3 is a 255-request wave per
// shard plus 255 merges, about 0.65 s on the reference host; a Q1/Q2 read
// takes about 4.5 ms on average, shadow merge included (the merges of the
// large subspaces dominate).
constexpr size_t kReplayedOps = 3000;
constexpr size_t kReplayedQ3s = 5;

/// Per-shard batch pools run one shard at a time (in-process shards answer
/// inside Start), so a pool of budget - 1 plus the calling thread keeps at
/// most CpuBudget() threads runnable.
skycube::SkycubeServiceOptions ShardServiceOptions() {
  skycube::SkycubeServiceOptions options;
  options.batch_threads = std::max(1, CpuBudget() - 1);
  return options;
}

/// What the wrapped backends record for the request in flight.
struct TierTrace {
  Tracer* tracer = nullptr;
  uint64_t request = 0;
  uint32_t parent = 0;
  bool capture = false;  // keep shard answers for the shadow merge
  std::vector<std::vector<QueryResponse>> answers;  // by shard
};

class TimedCall : public router::ShardCall {
 public:
  TimedCall(std::unique_ptr<router::ShardCall> inner, size_t shard,
            TierTrace* trace)
      : inner_(std::move(inner)), shard_(shard), trace_(trace) {}

  bool Collect(std::vector<QueryResponse>* responses,
               std::string* error) override {
    const int64_t start = NowNs();
    const bool ok = inner_->Collect(responses, error);
    trace_->tracer->Record(kSpanRouterShard, trace_->request, start, NowNs(),
                           trace_->parent);
    if (ok && trace_->capture) trace_->answers[shard_] = *responses;
    return ok;
  }

 private:
  std::unique_ptr<router::ShardCall> inner_;
  size_t shard_;
  TierTrace* trace_;
};

/// Times the calls into one shard. An in-process shard computes inside
/// Start and hands the answers over in Collect, so the shard's time is the
/// sum of the two calls (timing Start-to-Collect instead would count every
/// later shard's Start too, as the router starts all shards first).
class TimedBackend : public router::ShardBackend {
 public:
  TimedBackend(router::ShardBackend* inner, size_t shard, TierTrace* trace)
      : inner_(inner), shard_(shard), trace_(trace) {}

  std::unique_ptr<router::ShardCall> Start(
      const std::vector<QueryRequest>& requests,
      skycube::Deadline budget) override {
    const int64_t start = NowNs();
    auto call = inner_->Start(requests, budget);
    trace_->tracer->Record(kSpanRouterShard, trace_->request, start, NowNs(),
                           trace_->parent);
    if (call == nullptr) return nullptr;
    return std::make_unique<TimedCall>(std::move(call), shard_, trace_);
  }
  bool down() override { return inner_->down(); }

 private:
  router::ShardBackend* inner_;
  size_t shard_;
  TierTrace* trace_;
};

/// The tier. Partitioning follows ShardedSkycubeService exactly: ring
/// ownership in ascending global id order.
struct Tier {
  std::unique_ptr<router::RouterTopology> topology;
  std::vector<std::unique_ptr<skycube::SkycubeService>> services;
  std::vector<std::unique_ptr<router::LocalShardBackend>> local;
  std::vector<std::unique_ptr<TimedBackend>> timed;
  std::unique_ptr<router::ScatterGather> scatter;
};

Tier BuildTier(const Dataset& data, TierTrace* trace) {
  const int dims = data.num_dims();
  Tier tier;
  tier.topology = std::make_unique<router::RouterTopology>(dims, kShards);
  std::vector<Dataset> partitions(kShards, Dataset(dims));
  for (ObjectId gid = 0; gid < data.num_objects(); ++gid) {
    const double* row = data.Row(gid);
    tier.topology->AppendRow(row);
    partitions[tier.topology->OwnerOf(gid)].AddRow(
        std::vector<double>(row, row + dims));
  }
  std::vector<router::ShardBackend*> backends;
  for (size_t s = 0; s < kShards; ++s) {
    auto cube = std::make_shared<const skycube::CompressedSkylineCube>(
        dims, partitions[s].num_objects(),
        skycube::ComputeStellar(partitions[s]));
    tier.services.push_back(std::make_unique<skycube::SkycubeService>(
        std::move(cube), ShardServiceOptions()));
    tier.local.push_back(std::make_unique<router::LocalShardBackend>(
        tier.services.back().get()));
    tier.timed.push_back(
        std::make_unique<TimedBackend>(tier.local.back().get(), s, trace));
    backends.push_back(tier.timed.back().get());
  }
  tier.scatter = std::make_unique<router::ScatterGather>(tier.topology.get(),
                                                         std::move(backends));
  return tier;
}

}  // namespace

void TraceRouterLayer(const Dataset& data, const std::vector<Op>& ops,
                      const ReadOracle& oracle, uint64_t first_request,
                      Tracer* tracer, Report* report) {
  TierTrace trace;
  trace.tracer = tracer;
  trace.answers.resize(kShards);
  Tier tier = BuildTier(data, &trace);
  const size_t count = std::min(ops.size(), kReplayedOps);
  tracer->Reserve(count * (2 + 2 * kShards));
  const router::ScatterGatherStats before = tier.scatter->stats();
  double merge_in = 0, merge_out = 0;
  size_t replayed = 0, q3s = 0;
  const int64_t replay_start = NowNs();
  for (size_t i = 0; i < count; ++i) {
    const Op& op = ops[i];
    const bool q3 = op.kind == QueryKind::kMembershipCount;
    if (q3 && ++q3s > kReplayedQ3s) continue;
    ++replayed;
    trace.request = first_request + i;
    trace.capture = !q3;
    for (auto& answers : trace.answers) answers.clear();
    trace.parent =
        tracer->Begin(q3 ? kSpanRouterQ3 : kSpanRouterExecute, trace.request);
    const QueryResponse response = tier.scatter->Execute(ToRequest(op));
    tracer->End(trace.parent);
    report->ops.Record(oracle.Check(op, response));
    if (q3) continue;
    // Shadow merge of the captured shard answers, translated to global ids
    // as the router does.
    std::vector<ObjectId> candidates;
    for (size_t s = 0; s < kShards; ++s) {
      for (const QueryResponse& answer : trace.answers[s]) {
        if (answer.ids == nullptr) continue;
        for (ObjectId local : *answer.ids) {
          candidates.push_back(tier.topology->GlobalId(s, local));
        }
      }
    }
    if (op.kind == QueryKind::kMembership) candidates.push_back(op.object);
    merge_in += static_cast<double>(candidates.size());
    const uint32_t merge = tracer->Begin(kSpanRouterMerge, trace.request);
    merge_out += static_cast<double>(
        router::MergeSkylineCandidates(tier.topology->rows(), op.subspace,
                                       std::move(candidates))
            .size());
    tracer->End(merge);
  }
  const double replay_s = static_cast<double>(NowNs() - replay_start) / 1e9;
  const router::ScatterGatherStats after = tier.scatter->stats();

  uint64_t hits = 0, misses = 0;
  for (const auto& shard_service : tier.services) {
    hits += shard_service->stats().cache_hits;
    misses += shard_service->stats().cache_misses;
  }
  report->Note("router: %zu ops through %zu shards in %.3f s (%.0f ops/s), "
               "shard cache hit ratio %.3f, %d threads",
               replayed, kShards, replay_s,
               static_cast<double>(replayed) / replay_s,
               static_cast<double>(hits) / static_cast<double>(hits + misses),
               ThreadCount());

  Samples execute, shard, self;
  tracer->ForEachRequest([&](uint64_t, const std::vector<double>& us) {
    if (us[kSpanRouterExecute] < 0) return;
    const double shards = std::max(0.0, us[kSpanRouterShard]);
    execute.Add(us[kSpanRouterExecute]);
    shard.Add(shards);
    self.Add(us[kSpanRouterExecute] - shards);
  });
  report->Add("router.execute_us", execute.P50(), "us");
  report->Add("router.shard_us", shard.P50(), "us");
  report->Add("router.self_us", self.P50(), "us");
  ReportSpanP50(*tracer, kSpanRouterMerge, "router.merge_us", report);
  ReportSpanP50(*tracer, kSpanRouterQ3, "router.q3_us", report);
  const double queries = static_cast<double>(after.queries - before.queries);
  report->Add("router.merge_candidates_per_query",
              static_cast<double>(after.merge_candidates -
                                  before.merge_candidates) /
                  queries,
              "count");
  report->Add("router.merge_kept_ratio", merge_out / merge_in, "ratio");
  report->Add("router.shard_calls_per_query",
              static_cast<double>(after.shard_calls - before.shard_calls) /
                  queries,
              "count");
}

}  // namespace perfbench
