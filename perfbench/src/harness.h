// Shared pieces of the three benchmark workloads: options, seeded inputs,
// the read mix, the read-answer oracle, process probes, and the report
// that becomes the benchmark's last output line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/subspace.h"
#include "core/cube.h"
#include "dataset/dataset.h"
#include "service/request.h"
#include "summary.h"
#include "trace.h"

namespace perfbench {

using skycube::Dataset;
using skycube::DimMask;
using skycube::ObjectId;
using skycube::QueryKind;
using skycube::QueryRequest;
using skycube::QueryResponse;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the workload's files (WAL, checkpoints, span dumps).
  std::string workdir;
};

/// Metrics by name and unit, op counts, and failed checks of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Prints a measured value that is not a metric of the result line, as
  /// `diagnostic <name> <value> <unit>` (spread.py summarizes these too).
  void Diagnostic(const std::string& name, double value,
                  const std::string& unit);
  /// Adds the pooled p50 and p99 of `samples` in µs, and prints their block
  /// medians as diagnostics (`<name>.block_median`); fails the run below
  /// kMinSamplesForP99 samples.
  void AddLatency(const std::string& p50_name, const std::string& p99_name,
                  const Samples& samples);
  /// Records a failed correctness check (the run is then not correct).
  void Fail(const std::string& what);
  /// Prints a human-readable line (not part of the result).
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3)));

  OpCounts ops;
  bool correct() const { return failures_ == 0 && ops.failed == 0; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int failures_ = 0;
};

// ----- Process probes ------------------------------------------------------

/// ru_maxrss of this process in MiB.
double PeakRssMiB();
/// Bytes the allocator holds in use (mallinfo2: arena + mmapped chunks).
size_t HeapInUse();
/// Threads of this process (entries of /proc/self/task).
int ThreadCount();
/// CPUs this process may run on; pools are sized so that at most this many
/// threads are runnable at once.
int CpuBudget();
/// Host CPU time counters from /proc/stat: {steal, total} in ticks. Steal
/// is time this guest was ready to run but the host ran someone else.
std::pair<uint64_t, uint64_t> StealTicks();

/// Median wall time in seconds of `reps` calls of `build()`, each after an
/// untimed `teardown()` of the previous build; the workload keeps what the
/// last call built.
template <typename Teardown, typename Build>
double MedianSetupSeconds(int reps, Teardown&& teardown, Build&& build) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    teardown();
    const int64_t start = NowNs();
    build();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(std::move(seconds));
}

/// Times a loop of `ops` ops from construction to the last op's Done.
/// ops_per_s is the ops over that wall time. The loop is also timed in
/// blocks of consecutive ops (as many as kMaxBlocks allows), whose median
/// rate is printed as a diagnostic (summary.h).
class LoopTimer {
 public:
  explicit LoopTimer(size_t ops = 1)
      : ops_(ops),
        blocks_(std::max<size_t>(1, std::min(kMaxBlocks, ops))),
        block_start_(NowNs()) {}
  /// Call after op `i` (0-based, in order) completed.
  void Done(size_t i) {
    if (i + 1 != BlockEnd(block_seconds_.size())) return;
    const int64_t now = NowNs();
    block_seconds_.push_back(static_cast<double>(now - block_start_) / 1e9);
    block_start_ = now;
  }
  size_t ops() const { return ops_; }
  /// Wall time of the whole loop; requires every op to be Done.
  double WallSeconds() const;
  double OpsPerSecond() const {
    return static_cast<double>(ops_) / WallSeconds();
  }
  double BlockMedianOpsPerSecond() const;

 private:
  /// Op index one past the end of block `b`.
  size_t BlockEnd(size_t b) const { return ops_ * (b + 1) / blocks_; }

  size_t ops_;
  size_t blocks_;
  int64_t block_start_;
  std::vector<double> block_seconds_;
};

// ----- Inputs --------------------------------------------------------------

/// The paper's synthetic data: independent dimensions, 4 decimals, from a
/// fixed data seed. The workload seed drives the traffic, not the data, so
/// every run builds and serves the same cube: set-up time, memory and cube
/// bytes then compare across runs, and the seed varies only what the
/// clients ask.
Dataset MakeData(size_t num_objects, int num_dims);

/// One op of a workload's fixed list.
struct Op {
  QueryKind kind = QueryKind::kSubspaceSkyline;
  DimMask subspace = 0;
  ObjectId object = 0;  // Q2/Q3 object, delete target, or insert row index
};

inline bool IsRead(QueryKind kind) {
  return kind == QueryKind::kSubspaceSkyline ||
         kind == QueryKind::kSkylineCardinality ||
         kind == QueryKind::kMembership ||
         kind == QueryKind::kMembershipCount;
}

/// Expected answers of every read: the skyline of each subspace computed
/// with ComputeSkyline on the raw rows, from which Q1, Q2 and Q3 answers
/// follow by definition.
class ReadOracle {
 public:
  explicit ReadOracle(const Dataset& data);
  /// Expected answers from a served cube instead of the raw rows.
  explicit ReadOracle(const skycube::CompressedSkylineCube& cube);

  bool Check(const Op& op, const QueryResponse& response) const;
  const std::vector<ObjectId>& Skyline(DimMask subspace) const {
    return skylines_[subspace];
  }
  bool Member(ObjectId object, DimMask subspace) const;
  uint64_t MembershipCount(ObjectId object) const {
    return membership_counts_[object];
  }

 private:
  void CountMemberships(size_t num_objects);

  std::vector<std::vector<ObjectId>> skylines_;  // by subspace mask
  std::vector<uint64_t> membership_counts_;      // by object
};

/// The read mix: subspaces Zipf(1.1) over a seeded permutation of the
/// 2^d - 1 subspaces (seeded within cost classes, see the constructor);
/// 70% Q1 ids, 10% Q1 cardinality, 18% Q2 with the object Zipf over a
/// seeded permutation of the ids, 2% Q3 membership_count.
/// Without Q3 the other three keep their proportions. Which kind each op
/// is follows a fixed sequence, the same for every seed (Q3s are rare and
/// costly, so their number and places would otherwise move a run's
/// throughput with the seed); the seed draws the subspaces and objects.
class ReadMix {
 public:
  /// `oracle` holds the expected answers over the served rows; the
  /// permutations are seeded within its cost classes (see the constructor).
  ReadMix(int num_dims, size_t num_objects, bool with_q3, uint64_t seed,
          const ReadOracle& oracle);
  Op Next();

 private:
  /// Zipf(theta) over ranks [0, n): P(r) proportional to 1/(r+1)^theta.
  class Zipf {
   public:
    Zipf(size_t n, double theta);
    size_t Sample(double uniform) const;

   private:
    std::vector<double> cdf_;
  };

  skycube::Rng kinds_;  // fixed seed: the same kind sequence on every seed
  skycube::Rng rng_;    // workload seed: subspaces and objects
  Zipf subspace_rank_;
  Zipf object_rank_;
  std::vector<DimMask> subspaces_;  // seeded permutation, by Zipf rank
  std::vector<ObjectId> objects_;   // seeded permutation, by Zipf rank
  bool with_q3_;
};

/// `count` ops of the read mix.
std::vector<Op> ReadOps(size_t count, int num_dims, size_t num_objects,
                        bool with_q3, uint64_t seed, const ReadOracle& oracle);

/// The service request for a read op.
QueryRequest ToRequest(const Op& op);

/// Sizes the op list: the ops that take about `seconds` at `ops_per_second`
/// (the rate this workload ran at on the reference host, see README).
size_t OpCount(double seconds, double ops_per_second);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
