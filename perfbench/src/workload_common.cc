// Code shared by the workloads: the single-node stack, the traced service
// read, and end-to-end and per-layer reporting.
#include <cstdio>

#include "workloads.h"

namespace perfbench {

SingleNode BuildSingleNode(const Dataset& data, size_t cache_capacity) {
  SingleNode node;
  // Stellar's temporaries are freed when it returns, so the in-use delta is
  // what the snapshot holds.
  const size_t before = HeapInUse();
  auto cube = std::make_shared<const skycube::CompressedSkylineCube>(
      data.num_dims(), data.num_objects(), skycube::ComputeStellar(data));
  node.cube_bytes_per_row =
      static_cast<double>(HeapInUse() - before) / data.num_objects();
  skycube::SkycubeServiceOptions options;
  options.cache.capacity = cache_capacity;
  options.batch_threads = 1;
  node.service =
      std::make_unique<skycube::SkycubeService>(std::move(cube), options);
  return node;
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Note("threads: %d (cpu budget %d)", ThreadCount(), CpuBudget());
  report->Add("setup_s", e2e.setup_s, "s");
  report->Add("ops_per_s", e2e.loop.OpsPerSecond(), "1/s");
  report->Diagnostic("ops_per_s.block_median",
                     e2e.loop.BlockMedianOpsPerSecond(), "1/s");
  report->AddLatency("read_p50_us", "read_p99_us", e2e.read_us);
  report->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  report->Add("cube_bytes_per_row", e2e.cube_bytes_per_row, "B");
  // Not gated: every gated metric must exist on every workload, and only
  // `churn` writes.
  if (!e2e.write_us.empty()) {
    report->Diagnostic("write_p50_us", e2e.write_us.P50(), "us");
    if (const auto p99 = e2e.write_us.P99()) {
      report->Diagnostic("write_p99_us", *p99, "us");
    }
  }
}

void ReportOverhead(const EndToEnd& untraced, const EndToEnd& traced,
                    Report* report) {
  const double before = untraced.loop.WallSeconds();
  const double after = traced.loop.WallSeconds();
  report->Note("untraced loop: %zu ops in %.3f s; traced: %zu ops in %.3f s",
               untraced.loop.ops(), before, traced.loop.ops(), after);
  report->Add("trace.overhead_pct", 100.0 * (after - before) / before, "%");
}

std::vector<std::string> SpanNames() {
  std::vector<std::string> names(kNumSpanNames);
  names[kSpanOp] = "op";
  names[kSpanServiceExecute] = "service.execute";
  names[kSpanServiceHit] = "service.execute_hit";
  names[kSpanServiceReload] = "service.reload";
  names[kSpanCoreQ1] = "core.q1";
  names[kSpanCoreQ2] = "core.q2";
  names[kSpanCoreQ3] = "core.q3";
  for (int i = 0; i < 4; ++i) {
    names[kSpanMaintainInsert + i] =
        std::string("core.maintain_insert.") +
        skycube::InsertPathName(static_cast<skycube::InsertPath>(i));
  }
  for (int i = 0; i < 3; ++i) {
    names[kSpanMaintainDelete + i] =
        std::string("core.maintain_delete.") +
        skycube::DeletePathName(static_cast<skycube::DeletePath>(i + 1));
  }
  names[kSpanMakeCube] = "core.make_cube";
  names[kSpanStorageApply] = "storage.apply";
  names[kSpanRouterExecute] = "router.execute";
  names[kSpanRouterQ3] = "router.q3";
  names[kSpanRouterShard] = "router.shard";
  names[kSpanRouterMerge] = "router.merge";
  names[kSpanNetRtt] = "net.rtt";
  names[kSpanNetCodec] = "net.codec";
  return names;
}

uint32_t CoreSpanFor(QueryKind kind) {
  switch (kind) {
    case QueryKind::kMembership:
      return kSpanCoreQ2;
    case QueryKind::kMembershipCount:
      return kSpanCoreQ3;
    default:
      return kSpanCoreQ1;
  }
}

uint64_t ShadowCubeRead(const skycube::CompressedSkylineCube& cube,
                        const Op& op) {
  switch (op.kind) {
    case QueryKind::kSubspaceSkyline:
      return cube.SubspaceSkyline(op.subspace).size();
    case QueryKind::kSkylineCardinality:
      return cube.SkylineCardinality(op.subspace);
    case QueryKind::kMembership:
      return cube.IsInSubspaceSkyline(op.object, op.subspace) ? 1 : 0;
    case QueryKind::kMembershipCount:
      return cube.CountSubspacesWhereSkyline(op.object);
    default:
      return 0;
  }
}

namespace {
// Receives shadow answers so the compiler cannot drop the shadow calls.
volatile uint64_t g_shadow_sink = 0;
}  // namespace

QueryResponse TracedServiceRead(Tracer* tracer, uint64_t request,
                                skycube::SkycubeService* service,
                                const Op& op) {
  const uint32_t root = tracer->Begin(kSpanOp, request);
  const int64_t start = NowNs();
  QueryResponse response = service->Execute(ToRequest(op));
  const int64_t end = NowNs();
  tracer->Record(response.cache_hit ? kSpanServiceHit : kSpanServiceExecute,
                 request, start, end, root);
  const auto cube = service->snapshot();
  const uint32_t shadow = tracer->Begin(CoreSpanFor(op.kind), request, root);
  g_shadow_sink = g_shadow_sink + ShadowCubeRead(*cube, op);
  tracer->End(shadow);
  tracer->End(root);
  return response;
}

void ReportServiceReadLayers(const Tracer& tracer, Report* report) {
  Samples q1, q2, q3, self, hit;
  tracer.ForEachRequest([&](uint64_t, const std::vector<double>& us) {
    double core = -1;
    for (uint32_t name : {kSpanCoreQ1, kSpanCoreQ2, kSpanCoreQ3}) {
      if (us[name] < 0) continue;
      core = us[name];
      (name == kSpanCoreQ1 ? q1 : name == kSpanCoreQ2 ? q2 : q3).Add(core);
    }
    if (us[kSpanServiceHit] >= 0) hit.Add(us[kSpanServiceHit]);
    if (us[kSpanServiceExecute] >= 0 && core >= 0) {
      self.Add(us[kSpanServiceExecute] - core);
    }
  });
  if (!q1.empty()) {
    report->Add("core.q1_p50_us", q1.P50(), "us");
    if (const auto p99 = q1.P99()) {
      report->Add("core.q1_p99_us", *p99, "us");
    }
  }
  if (!q2.empty()) report->Add("core.q2_us", q2.P50(), "us");
  if (!q3.empty()) report->Add("core.q3_us", q3.P50(), "us");
  if (!self.empty()) report->Add("service.self_us", self.P50(), "us");
  if (!hit.empty()) report->Add("service.hit_us", hit.P50(), "us");
}

void ReportStellarLayers(const skycube::StellarStats& stats,
                         Report* report) {
  report->Add("dataset.ranked_view_s", stats.seconds_ranked_view, "s");
  report->Add("skyline.full_skyline_s", stats.seconds_full_skyline, "s");
  report->Add("skyline.matrices_s", stats.seconds_matrices, "s");
  report->Add("core.seed_groups_s", stats.seconds_seed_groups, "s");
  report->Add("core.nonseed_s", stats.seconds_nonseed, "s");
  report->Add("core.seeds", static_cast<double>(stats.num_seeds), "count");
  report->Add("core.groups", static_cast<double>(stats.num_groups), "count");
  if (stats.num_maximal_cgroups > 0) {
    report->Add("core.cgroups_kept_ratio",
                static_cast<double>(stats.num_seed_skyline_groups) /
                    static_cast<double>(stats.num_maximal_cgroups),
                "ratio");
  }
}

void ReportCacheLayers(const skycube::ServiceStats& stats, Report* report) {
  report->Add("service.cache_hit_ratio", stats.cache_hit_rate, "ratio");
  report->Add("service.cache_evictions",
              static_cast<double>(stats.cache_evictions), "count");
}

void ReportSpanP50(const Tracer& tracer, uint32_t name,
                   const std::string& metric, Report* report) {
  Samples samples;
  tracer.ForEachRequest([&](uint64_t, const std::vector<double>& us) {
    if (us[name] >= 0) samples.Add(us[name]);
  });
  if (!samples.empty()) report->Add(metric, samples.P50(), "us");
}

void WriteSpans(const Tracer& tracer, const Options& options,
                Report* report) {
  const std::string path = options.workdir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".spans.tsv";
  if (!tracer.WriteTsv(path)) {
    report->Fail("cannot write spans to " + path);
    return;
  }
  report->Note("spans: %zu written to %s", tracer.size(), path.c_str());
}

}  // namespace perfbench
