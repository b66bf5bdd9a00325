// The three workloads and the pieces their loops share: the end-to-end
// metric set, the span names of the traced run, the traced read, and the
// router layer of the traced `read` run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/maintenance.h"
#include "core/stellar.h"
#include "harness.h"
#include "service/service.h"
#include "trace.h"

namespace perfbench {

void RunReadWorkload(const Options& options, Report* report);
void RunChurnWorkload(const Options& options, Report* report);
void RunWireWorkload(const Options& options, Report* report);

/// A read-only single-node service (the serving shape of `read` and
/// `wire`).
struct SingleNode {
  std::unique_ptr<skycube::SkycubeService> service;
  /// Heap bytes of the served snapshot per row.
  double cube_bytes_per_row = 0;
};

/// Runs ComputeStellar, wraps the groups in the snapshot and starts the
/// service with a one-thread batch pool. Capacity 0 turns the cache off.
SingleNode BuildSingleNode(const Dataset& data, size_t cache_capacity);

/// Router layer of the traced `read` run: replays the first ops of `ops`
/// through a 4-shard scatter-gather tier over `data`, assembled from the
/// parts ShardedSkycubeService wires, checks every answer with `oracle`,
/// and reports the router.* metrics. Op i's spans use request id
/// `first_request + i`.
void TraceRouterLayer(const Dataset& data, const std::vector<Op>& ops,
                      const ReadOracle& oracle, uint64_t first_request,
                      Tracer* tracer, Report* report);

/// What one untraced run measured; reported as the end-to-end metrics.
/// Only `churn` writes; its write latencies are printed as diagnostics.
struct EndToEnd {
  double setup_s = 0;
  LoopTimer loop;
  Samples read_us;
  Samples write_us;
  double cube_bytes_per_row = 0;
};

/// Reports the end-to-end metrics, reading this process's peak RSS now,
/// and prints the thread count, the block-median diagnostics and any write
/// latencies.
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

/// Tracing overhead of the loop: traced minus untraced wall time, as a
/// percentage of the untraced wall time.
void ReportOverhead(const EndToEnd& untraced, const EndToEnd& traced,
                    Report* report);

/// Names of the spans the traced runs record (index = Tracer name id).
enum SpanName : uint32_t {
  kSpanOp,
  kSpanServiceExecute,     // SkycubeService::Execute, answered by compute
  kSpanServiceHit,         // SkycubeService::Execute, answered by the cache
  kSpanServiceReload,      // SkycubeService::Reload
  kSpanCoreQ1,             // shadow SubspaceSkyline / SkylineCardinality
  kSpanCoreQ2,             // shadow IsInSubspaceSkyline
  kSpanCoreQ3,             // shadow CountSubspacesWhereSkyline
  kSpanMaintainInsert,     // + InsertPath, shadow maintainer Insert
  kSpanMaintainDelete = kSpanMaintainInsert + 4,  // + DeletePath - 1
  kSpanMakeCube = kSpanMaintainDelete + 3,        // maintainer MakeCube
  kSpanStorageApply,       // DurableIngest::ApplyInsert / ApplyDelete
  kSpanRouterExecute,      // ScatterGather::Execute (Q1/Q2)
  kSpanRouterQ3,           // ScatterGather::Execute (Q3)
  kSpanRouterShard,        // one shard's Start -> Collect
  kSpanRouterMerge,        // shadow MergeSkylineCandidates
  kSpanNetRtt,             // SendRequest -> matched ReadResponse
  kSpanNetCodec,           // shadow encode + parse of request and response
  kNumSpanNames,
};
std::vector<std::string> SpanNames();

/// The shadow span name of a read kind.
uint32_t CoreSpanFor(QueryKind kind);

/// Runs `op` against the cube directly (the shadow of a service read) and
/// returns a value derived from the answer, so the call is not elided.
uint64_t ShadowCubeRead(const skycube::CompressedSkylineCube& cube,
                        const Op& op);

/// One read through the service, traced: the Execute span (hit or
/// computed), then the shadow cube call on the same snapshot.
QueryResponse TracedServiceRead(Tracer* tracer, uint64_t request,
                                skycube::SkycubeService* service,
                                const Op& op);

/// Per-layer metrics of traced service reads: core.q1/q2/q3, service.self,
/// service.hit.
void ReportServiceReadLayers(const Tracer& tracer, Report* report);

/// The StellarStats metrics of one build.
void ReportStellarLayers(const skycube::StellarStats& stats, Report* report);

/// Cache metrics of a service's ServiceStats.
void ReportCacheLayers(const skycube::ServiceStats& stats, Report* report);

/// Adds p50 of the spans named `name` (µs) as metric `metric`, if any.
void ReportSpanP50(const Tracer& tracer, uint32_t name,
                   const std::string& metric, Report* report);

/// Writes the spans to `<workdir>/<workload>-seed<seed>.spans.tsv`.
void WriteSpans(const Tracer& tracer, const Options& options,
                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
