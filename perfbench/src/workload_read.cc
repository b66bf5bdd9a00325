// Workload `read`: a SkycubeService with the result cache off over a
// 10,000 x 8 cube, driven by the read mix. Every op walks the cube, so the
// core query code does nearly all the work; set-up is the paper's own
// metric, the Stellar build. Its traced run also measures the router
// layer, by replaying the same reads through a 4-shard tier.
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kRows = 10000;
constexpr int kDims = 8;
constexpr int kSetupReps = 5;
// Ops the read mix ran per second on the reference host (README); sizes
// the fixed op list so that one run measures about --seconds.
constexpr double kOpsPerSecond = 30000;

/// The timed read loop.
void Loop(SingleNode* stack, const std::vector<Op>& ops,
          const ReadOracle& oracle, Tracer* tracer, EndToEnd* e2e,
          Report* report) {
  e2e->read_us.Reserve(ops.size());
  e2e->loop = LoopTimer(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t start = NowNs();
    const QueryResponse response =
        tracer != nullptr
            ? TracedServiceRead(tracer, i, stack->service.get(), ops[i])
            : stack->service->Execute(ToRequest(ops[i]));
    // Q3 is 2% of traffic and too few for a p99; its cost shows in
    // ops_per_s and core.q3_us.
    if (ops[i].kind != QueryKind::kMembershipCount) {
      e2e->read_us.Add(static_cast<double>(NowNs() - start) / 1e3);
    }
    report->ops.Record(oracle.Check(ops[i], response));
    e2e->loop.Done(i);
  }
}

}  // namespace

void RunReadWorkload(const Options& options, Report* report) {
  const Dataset data = MakeData(kRows, kDims);
  const ReadOracle oracle(data);
  const std::vector<Op> ops =
      ReadOps(OpCount(options.seconds, kOpsPerSecond), kDims, kRows,
              /*with_q3=*/true, options.seed + 1, oracle);
  report->Note("read: %zu x %d rows, %zu reads", kRows, kDims, ops.size());

  EndToEnd e2e;
  SingleNode stack;
  e2e.setup_s = MedianSetupSeconds(
      options.trace ? 1 : kSetupReps, [&] { stack = SingleNode(); },
      [&] { stack = BuildSingleNode(data, /*cache_capacity=*/0); });
  e2e.cube_bytes_per_row = stack.cube_bytes_per_row;
  Loop(&stack, ops, oracle, nullptr, &e2e, report);
  if (!options.trace) {
    ReportEndToEnd(e2e, report);
    return;
  }

  // Traced run: a fresh stack, the same ops with spans.
  stack = SingleNode();
  stack = BuildSingleNode(data, /*cache_capacity=*/0);
  Tracer tracer(SpanNames(), ops.size() * 3);
  EndToEnd traced;
  Loop(&stack, ops, oracle, &tracer, &traced, report);
  ReportOverhead(e2e, traced, report);

  skycube::StellarStats stellar;
  skycube::ComputeStellar(data, {}, &stellar);
  ReportStellarLayers(stellar, report);
  ReportServiceReadLayers(tracer, report);
  ReportCacheLayers(stack.service->stats(), report);
  stack = SingleNode();
  TraceRouterLayer(data, ops, oracle, ops.size(), &tracer, report);
  WriteSpans(tracer, options, report);
}

}  // namespace perfbench
