// Workload `churn`: a SkycubeService over DurableIngest on a 4,000 x 6
// base. About 90% reads (the read mix without Q3), 7% seeded inserts and
// 3% deletes of seeded live ids. Each write runs the WAL append with
// fsync policy `always`, a maintainer path, the MakeCube copy, Reload and
// a whole-cache clear, so core maintenance, storage and service
// invalidation dominate; the reads show what the cache loses.
//
// Set-up is a restart: DurableIngest::Open of a directory prepared
// untimed (an LSN-0 checkpoint plus a fixed logged suffix), then the
// service.
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

#include "core/maintenance.h"
#include "storage/durable_ingest.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr size_t kRows = 4000;
constexpr int kDims = 6;
constexpr int kSetupReps = 9;  // a restart is short: more reps, a steadier median
constexpr size_t kLoggedSuffix = 200;  // replayed by every Open
constexpr double kOpsPerSecond = 1100;
// Enough ops that 10% of them give the write p99 its sample count.
constexpr size_t kMinOps = 12 * kMinSamplesForP99;

/// The fixed list: ops plus the rows its inserts add.
struct ChurnOps {
  std::vector<Op> ops;  // insert ops carry their row index in `object`
  std::vector<std::vector<double>> rows;
};

/// Classes of writes, by the maintenance path each one takes.
enum class WriteClass {
  kSkylineInsert,    // enters the full-space skyline, evicts none: recompute
  kDominatedInsert,  // dominated in the full space: no-op
  kSeedDelete,       // a live skyline row whose loss promotes none: recompute
  kNonSeedDelete,    // a live dominated row: extension
};

WriteClass PickClass(double u) {
  // Shares of writes: the path mix of uniformly seeded traffic (inserts of
  // uniform 4-decimal rows, deletes of uniformly chosen live ids, 7:3)
  // measured by core.write_paths.* on seeds 1-6 (README). That traffic
  // makes no duplicate rows, so no duplicate inserts or patch deletes.
  // Percent of writes: 8.5 skyline, 62.2 dominated inserts; 3.7 seed, 25.6
  // non-seed deletes.
  if (u < 0.085) return WriteClass::kSkylineInsert;
  if (u < 0.707) return WriteClass::kDominatedInsert;
  if (u < 0.744) return WriteClass::kSeedDelete;
  return WriteClass::kNonSeedDelete;
}

/// Generates the churn ops: seeded inserts and deletes of seeded live ids,
/// among reads. The rebuilds are most of a run's time, and their cost grows
/// with the full-space skyline, so two choices keep every seed doing the
/// same maintenance work:
///  - which op is a read and which write class each write is follow a
///    fixed schedule, so every seed runs the same number of writes down
///    each maintenance path;
///  - a skyline insert evicts no skyline row and a skyline delete promotes
///    no row, so the skyline's size follows the schedule too, instead of
///    drifting differently with every seed.
/// The workload seed picks the rows, the ids and the reads. The generator
/// tracks the live rows and their full-space skyline (smaller is better) to
/// know which class a row or an id falls in.
class ChurnGenerator {
 public:
  explicit ChurnGenerator(const Dataset& base) {
    for (ObjectId id = 0; id < base.num_objects(); ++id) {
      const double* row = base.Row(id);
      AddRow(std::vector<double>(row, row + kDims));
    }
    RecomputeSkyline();
  }

  /// Appends `count` ops: a read with probability `read_share` (drawn from
  /// `reads`; null for writes only), else a write of the scheduled class.
  void Append(size_t count, double read_share, skycube::Rng* schedule,
              skycube::Rng* values, ReadMix* reads, ChurnOps* out) {
    for (size_t i = 0; i < count; ++i) {
      const double u = schedule->NextDouble();
      if (reads != nullptr && u < read_share) {
        out->ops.push_back(reads->Next());
        continue;
      }
      const WriteClass cls = PickClass((u - read_share) / (1 - read_share));
      out->ops.push_back(cls == WriteClass::kSkylineInsert ||
                                 cls == WriteClass::kDominatedInsert
                             ? Insert(cls, values, out)
                             : Delete(cls, values));
    }
  }

 private:
  static bool Dominates(const std::vector<double>& a,
                        const std::vector<double>& b) {
    bool strict = false;
    for (int d = 0; d < kDims; ++d) {
      if (a[d] > b[d]) return false;
      strict = strict || a[d] < b[d];
    }
    return strict;
  }

  bool DominatedBySkyline(const std::vector<double>& row) const {
    for (const auto& skyline_row : skyline_) {
      if (Dominates(skyline_row, row)) return true;
    }
    return false;
  }

  bool DominatesSkylineRow(const std::vector<double>& row) const {
    for (const auto& skyline_row : skyline_) {
      if (Dominates(row, skyline_row)) return true;
    }
    return false;
  }

  /// Whether deleting skyline row `seed` would promote a live row: one it
  /// dominates that no other skyline row dominates.
  bool Promotes(const std::vector<double>& seed) const {
    for (const auto& row : live_rows_) {
      if (!Dominates(seed, row)) continue;
      bool covered = false;
      for (const auto& other : skyline_) {
        if (other != seed && Dominates(other, row)) {
          covered = true;
          break;
        }
      }
      if (!covered) return true;
    }
    return false;
  }

  void AddRow(std::vector<double> row) {
    live_.push_back(static_cast<ObjectId>(rows_.size()));
    live_rows_.insert(row);
    rows_.push_back(std::move(row));
  }

  /// The full-space skyline of the live rows (sort-filter: a row can only
  /// be dominated by one with a smaller sum).
  void RecomputeSkyline() {
    std::vector<std::pair<double, const std::vector<double>*>> by_sum;
    for (const auto& row : live_rows_) {
      double sum = 0;
      for (double v : row) sum += v;
      by_sum.emplace_back(sum, &row);
    }
    std::sort(by_sum.begin(), by_sum.end());
    skyline_.clear();
    for (const auto& [sum, row] : by_sum) {
      if (!DominatedBySkyline(*row)) skyline_.insert(*row);
    }
  }

  /// Inserts a uniform 4-decimal row of class `cls`, by rejection sampling;
  /// a row equal to a live one is redrawn, so no insert is a duplicate.
  Op Insert(WriteClass cls, skycube::Rng* values, ChurnOps* out) {
    const bool want_skyline = cls == WriteClass::kSkylineInsert;
    std::vector<double> row(kDims);
    do {
      for (double& v : row) v = std::floor(values->NextDouble() * 1e4) / 1e4;
    } while (DominatedBySkyline(row) == want_skyline ||
             (want_skyline && DominatesSkylineRow(row)) ||
             live_rows_.count(row) != 0);
    if (want_skyline) skyline_.insert(row);
    Op op;
    op.kind = QueryKind::kInsert;
    op.object = static_cast<ObjectId>(out->rows.size());
    out->rows.push_back(row);
    AddRow(std::move(row));
    return op;
  }

  /// Deletes a uniformly chosen live id of class `cls`, by rejection
  /// sampling (the live rows always hold seeds and non-seeds both, and some
  /// seed dominates no row alone).
  Op Delete(WriteClass cls, skycube::Rng* values) {
    const bool want_seed = cls == WriteClass::kSeedDelete;
    size_t k = 0;
    do {
      k = values->NextBounded(live_.size());
    } while ((skyline_.count(rows_[live_[k]]) != 0) != want_seed ||
             (want_seed && Promotes(rows_[live_[k]])));
    const ObjectId id = live_[k];
    live_[k] = live_.back();
    live_.pop_back();
    live_rows_.erase(rows_[id]);
    if (want_seed) skyline_.erase(rows_[id]);
    Op op;
    op.kind = QueryKind::kDelete;
    op.object = id;
    return op;
  }

  std::vector<std::vector<double>> rows_;  // by id, dead ones included
  std::vector<ObjectId> live_;             // live ids
  std::set<std::vector<double>> live_rows_;
  std::set<std::vector<double>> skyline_;  // live full-space skyline rows
};

skycube::DurableIngestOptions IngestOptions() {
  skycube::DurableIngestOptions options;
  options.wal.fsync_policy = skycube::FsyncPolicy::kEveryRecord;
  return options;
}

struct Stack {
  std::unique_ptr<skycube::DurableIngest> ingest;
  std::unique_ptr<skycube::SkycubeService> service;
};

/// Opens (recovers) `dir` and starts the service over it.
Stack Open(const std::string& dir, Report* report) {
  Stack stack;
  auto opened = skycube::DurableIngest::Open(dir, nullptr, IngestOptions());
  if (!opened.ok()) {
    report->Fail("DurableIngest::Open(" + dir +
                 "): " + opened.status().message());
    return stack;
  }
  stack.ingest = std::move(opened).value();
  skycube::SkycubeServiceOptions options;
  options.batch_threads = 1;
  stack.service = std::make_unique<skycube::SkycubeService>(
      std::make_shared<const skycube::CompressedSkylineCube>(
          stack.ingest->maintainer().MakeCube()),
      options);
  stack.service->AttachInsertHandler(stack.ingest.get());
  return stack;
}

/// Writes the prepared directory: the LSN-0 checkpoint of `base` plus the
/// logged suffix, left unreplayed (no drain, no later checkpoint).
bool Prepare(const std::string& dir, const Dataset& base,
             const ChurnOps& suffix, Report* report) {
  fs::remove_all(dir);
  auto opened = skycube::DurableIngest::Open(dir, &base, IngestOptions());
  if (!opened.ok()) {
    report->Fail("bootstrap " + dir + ": " + opened.status().message());
    return false;
  }
  skycube::DurableIngest& ingest = *opened.value();
  for (const Op& op : suffix.ops) {
    const bool ok = op.kind == QueryKind::kInsert
                        ? ingest.ApplyInsert(suffix.rows[op.object]).ok()
                        : ingest.ApplyDelete(op.object).ok();
    if (!ok) {
      report->Fail("preparing the logged suffix failed");
      return false;
    }
  }
  return true;
}

/// The kind of filesystem holding `path`, for the run log: fsync cost
/// depends on it.
const char* FilesystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
  }
}

void CopyDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// What the traced loop keeps besides spans.
struct TraceState {
  Tracer* tracer = nullptr;
  std::unique_ptr<skycube::IncrementalCubeMaintainer> shadow;
  Samples storage_self_us;
  uint64_t user_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t writes = 0;
};

/// One write replayed as the two calls the service's write path makes
/// (apply, then Reload), with the shadow maintainer fed the same op.
bool TracedWrite(uint64_t request, const Op& op, const ChurnOps& list,
                 Stack* stack, TraceState* trace, const std::string& dir) {
  Tracer& tracer = *trace->tracer;
  const uint64_t checkpoints_before =
      stack->ingest->stats().checkpoints_written;
  const bool insert = op.kind == QueryKind::kInsert;
  const int64_t t0 = NowNs();
  auto applied = insert ? stack->ingest->ApplyInsert(list.rows[op.object])
                        : stack->ingest->ApplyDelete(op.object);
  const int64_t t1 = NowNs();
  if (!applied.ok()) return false;
  tracer.Record(kSpanStorageApply, request, t0, t1);
  if (applied.value().cube != nullptr) {
    const int64_t t2 = NowNs();
    stack->service->Reload(applied.value().cube);
    tracer.Record(kSpanServiceReload, request, t2, NowNs());
  }

  const int64_t s0 = NowNs();
  uint32_t path_span = 0;
  bool same_path = true;
  if (insert) {
    const skycube::InsertPath path =
        trace->shadow->Insert(list.rows[op.object]);
    path_span = kSpanMaintainInsert + static_cast<uint32_t>(path);
    same_path = path == applied.value().path;
    trace->user_bytes += kDims * sizeof(double);
  } else {
    const skycube::DeletePath path = trace->shadow->Remove(op.object);
    path_span = kSpanMaintainDelete + static_cast<uint32_t>(path) - 1;
    same_path = path == applied.value().delete_path &&
                path != skycube::DeletePath::kAlreadyDead;
    trace->user_bytes += sizeof(ObjectId);
  }
  const int64_t s1 = NowNs();
  const auto shadow_cube = trace->shadow->MakeCube();
  const int64_t s2 = NowNs();
  tracer.Record(path_span, request, s0, s1);
  tracer.Record(kSpanMakeCube, request, s1, s2);
  const double apply_us = static_cast<double>(t1 - t0) / 1e3;
  trace->storage_self_us.Add(apply_us -
                             static_cast<double>(s2 - s0) / 1e3);
  ++trace->writes;

  const auto stats = stack->ingest->stats();
  if (stats.checkpoints_written != checkpoints_before) {
    char name[64];
    std::snprintf(name, sizeof(name), "checkpoint-%016llx.ckpt",
                  static_cast<unsigned long long>(stats.last_checkpoint_lsn));
    std::error_code error;
    const auto size = fs::file_size(fs::path(dir) / name, error);
    if (!error) trace->checkpoint_bytes += size;
  }
  return same_path && shadow_cube.num_objects() > 0;
}

/// The timed loop. Reads count as failed on an error answer; writes on an
/// error or a delete that found its (live) target dead.
void Loop(Stack* stack, const ChurnOps& list, TraceState* trace,
          const std::string& dir, EndToEnd* e2e, Report* report) {
  e2e->read_us.Reserve(list.ops.size());
  e2e->write_us.Reserve(list.ops.size() / 5);
  e2e->loop = LoopTimer(list.ops.size());
  for (size_t i = 0; i < list.ops.size(); ++i) {
    const Op& op = list.ops[i];
    const bool read = IsRead(op.kind);
    const int64_t start = NowNs();
    bool ok = true;
    if (trace != nullptr) {
      ok = read ? TracedServiceRead(trace->tracer, i, stack->service.get(), op)
                      .ok
                : TracedWrite(i, op, list, stack, trace, dir);
    } else if (read) {
      ok = stack->service->Execute(ToRequest(op)).ok;
    } else {
      const QueryResponse response = stack->service->Execute(
          op.kind == QueryKind::kInsert ? QueryRequest::Insert(list.rows[op.object])
                                        : QueryRequest::Delete(op.object));
      ok = response.ok && response.insert_path != "dead";
    }
    const double us = static_cast<double>(NowNs() - start) / 1e3;
    (read ? e2e->read_us : e2e->write_us).Add(us);
    report->ops.Record(ok);
    e2e->loop.Done(i);
  }
}

/// The final groups equal Stellar over the live rows, and a second Open of
/// the directory (after the first is closed without a drain) recovers them.
void CheckFinalState(Stack* stack, const std::string& dir, Report* report) {
  const skycube::IncrementalCubeMaintainer& maintainer =
      stack->ingest->maintainer();
  const skycube::SkylineGroupSet groups = maintainer.groups();
  if (groups != skycube::StellarOverLive(maintainer.data(), maintainer.live())) {
    report->Fail("final groups differ from StellarOverLive");
  }
  stack->service.reset();
  stack->ingest.reset();
  auto reopened = skycube::DurableIngest::Open(dir, nullptr, IngestOptions());
  if (!reopened.ok()) {
    report->Fail("second Open: " + reopened.status().message());
  } else if (reopened.value()->maintainer().groups() != groups) {
    report->Fail("second Open recovered different groups");
  }
}

}  // namespace

void RunChurnWorkload(const Options& options, Report* report) {
  const Dataset base = MakeData(kRows, kDims);
  // The logged suffix is the same on every run (a fixed schedule and
  // values), so set-up replays the same records; the timed ops continue
  // from its end state with the workload seed.
  ChurnGenerator generator(base);
  skycube::Rng schedule(0xc0ffee);
  skycube::Rng suffix_values(0x5eed5);
  ChurnOps suffix;
  generator.Append(kLoggedSuffix, 0.0, &schedule, &suffix_values, nullptr,
                   &suffix);
  skycube::Rng values(options.seed);
  ReadMix reads(kDims, kRows, /*with_q3=*/false, options.seed + 1,
               ReadOracle(base));
  ChurnOps list;
  generator.Append(std::max(kMinOps, OpCount(options.seconds, kOpsPerSecond)),
                   0.9, &schedule, &values, &reads, &list);

  const std::string prepared = options.workdir + "/churn-prepared";
  const std::string live = options.workdir + "/churn-live";
  if (!Prepare(prepared, base, suffix, report)) return;
  report->Note("churn: %zu x %d base, %zu logged suffix ops, %zu ops, WAL "
               "(fsync every record) in %s on %s",
               kRows, kDims, suffix.ops.size(), list.ops.size(), live.c_str(),
               FilesystemName(options.workdir));

  EndToEnd e2e;
  Stack stack;
  e2e.setup_s = MedianSetupSeconds(
      options.trace ? 1 : kSetupReps,
      [&] {
        stack = Stack();
        CopyDir(prepared, live);
      },
      [&] { stack = Open(live, report); });
  if (stack.service == nullptr) return;
  const auto recovery = stack.ingest->stats().recovery;
  Loop(&stack, list, nullptr, live, &e2e, report);
  {
    const size_t before = HeapInUse();
    auto cube = std::make_shared<const skycube::CompressedSkylineCube>(
        stack.ingest->maintainer().MakeCube());
    e2e.cube_bytes_per_row = static_cast<double>(HeapInUse() - before) /
                             stack.ingest->maintainer().num_live();
  }
  if (!options.trace) {
    ReportEndToEnd(e2e, report);
    CheckFinalState(&stack, live, report);
    return;
  }
  CheckFinalState(&stack, live, report);

  // Traced run: a fresh restart of the same prepared directory, then the
  // same op list with spans and the shadow maintainer.
  CopyDir(prepared, live);
  const int64_t open_start = NowNs();
  stack = Open(live, report);
  const double recovery_s = static_cast<double>(NowNs() - open_start) / 1e9;
  if (stack.service == nullptr) return;
  const skycube::IncrementalCubeMaintainer& recovered =
      stack.ingest->maintainer();
  TraceState trace;
  Tracer tracer(SpanNames(), list.ops.size() * 4);
  trace.tracer = &tracer;
  trace.shadow = std::make_unique<skycube::IncrementalCubeMaintainer>(
      recovered.data(), recovered.live(), recovered.timestamps());
  skycube::StellarStats stellar;
  {
    Dataset live_rows(kDims);
    for (ObjectId id = 0; id < recovered.data().num_objects(); ++id) {
      if (recovered.IsLive(id)) {
        const double* row = recovered.data().Row(id);
        live_rows.AddRow(std::vector<double>(row, row + kDims));
      }
    }
    skycube::ComputeStellar(live_rows, {}, &stellar);
  }
  const auto paths_before = recovered.stats();
  const auto ingest_before = stack.ingest->stats();
  EndToEnd traced;
  Loop(&stack, list, &trace, live, &traced, report);
  const auto paths = stack.ingest->maintainer().stats();
  const auto ingest_after = stack.ingest->stats();
  const auto service_stats = stack.service->stats();

  ReportStellarLayers(stellar, report);
  ReportServiceReadLayers(tracer, report);
  ReportCacheLayers(service_stats, report);
  ReportSpanP50(tracer, kSpanServiceReload, "service.reload_us", report);
  Samples apply;
  tracer.ForEachRequest([&](uint64_t, const std::vector<double>& us) {
    if (us[kSpanStorageApply] >= 0) apply.Add(us[kSpanStorageApply]);
  });
  report->AddLatency("storage.apply_p50_us", "storage.apply_p99_us", apply);
  for (uint32_t span = kSpanMaintainInsert; span < kSpanMakeCube; ++span) {
    // "core.maintain_insert.noop" is reported as "core.maintain_insert_us.noop".
    std::string metric = tracer.name(span);
    metric.insert(metric.rfind('.'), "_us");
    ReportSpanP50(tracer, span, metric, report);
  }
  ReportSpanP50(tracer, kSpanMakeCube, "core.make_cube_us", report);
  // MaintenanceStats counts every step-5 rerun in extension_reruns and
  // every rebuild in full_recomputes, deletes' included; subtract those.
  auto add_count = [&](const char* name, uint64_t delta) {
    report->Add(std::string("core.write_paths.") + name,
                static_cast<double>(delta), "count");
  };
  const auto& b = paths_before;
  add_count("insert_noop", paths.noop_inserts - b.noop_inserts);
  add_count("insert_duplicate", paths.duplicate_patches - b.duplicate_patches);
  add_count("insert_extension",
        (paths.extension_reruns - b.extension_reruns) -
            (paths.delete_extension_reruns - b.delete_extension_reruns));
  add_count("insert_recompute",
        (paths.full_recomputes - b.full_recomputes) -
            (paths.delete_recomputes - b.delete_recomputes));
  add_count("delete_patch", paths.delete_patches - b.delete_patches);
  add_count("delete_extension",
        paths.delete_extension_reruns - b.delete_extension_reruns);
  add_count("delete_recompute", paths.delete_recomputes - b.delete_recomputes);
  if (!trace.storage_self_us.empty()) {
    report->Add("storage.self_us", trace.storage_self_us.P50(), "us");
  }
  const double writes = static_cast<double>(std::max<uint64_t>(trace.writes, 1));
  const uint64_t wal_bytes =
      ingest_after.wal.bytes_appended - ingest_before.wal.bytes_appended;
  report->Add("storage.wal_bytes_per_write",
              static_cast<double>(wal_bytes) / writes, "B");
  report->Add("storage.fsyncs_per_write",
              static_cast<double>(ingest_after.wal.fsyncs -
                                  ingest_before.wal.fsyncs) /
                  writes,
              "count");
  report->Add("storage.checkpoints",
              static_cast<double>(ingest_after.checkpoints_written -
                                  ingest_before.checkpoints_written),
              "count");
  report->Add("storage.bytes_written_per_user_byte",
              static_cast<double>(wal_bytes + trace.checkpoint_bytes) /
                  static_cast<double>(std::max<uint64_t>(trace.user_bytes, 1)),
              "ratio");
  report->Add("storage.recovery_s", recovery_s, "s");
  report->Add("storage.replayed_records",
              static_cast<double>(recovery.wal_records_replayed), "count");
  ReportOverhead(e2e, traced, report);
  CheckFinalState(&stack, live, report);
  WriteSpans(tracer, options, report);
}

}  // namespace perfbench
