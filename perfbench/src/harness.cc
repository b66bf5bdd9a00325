#include "harness.h"

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <thread>

#include "bench/bench_common.h"
#include "skyline/algorithms.h"

namespace perfbench {

// ----- Report ----------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
  std::printf("metric %-40s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Diagnostic(const std::string& name, double value,
                        const std::string& unit) {
  std::printf("diagnostic %-36s %.6g %s\n", name.c_str(), value,
              unit.c_str());
}

void Report::AddLatency(const std::string& p50_name,
                        const std::string& p99_name, const Samples& samples) {
  const auto p99 = samples.P99();
  if (!p99) {
    Fail(p99_name + " needs " + std::to_string(kMinSamplesForP99) +
         " samples, got " + std::to_string(samples.count()));
    return;
  }
  std::printf("samples %s: %zu\n", p50_name.c_str(), samples.count());
  Add(p50_name, samples.P50(), "us");
  Add(p99_name, *p99, "us");
  Diagnostic(p50_name + ".block_median", *samples.BlockPercentile(0.5), "us");
  Diagnostic(p99_name + ".block_median", *samples.BlockPercentile(0.99), "us");
}

double LoopTimer::WallSeconds() const {
  double seconds = 0;
  for (double s : block_seconds_) seconds += s;
  return seconds;
}

double LoopTimer::BlockMedianOpsPerSecond() const {
  std::vector<double> rates;
  for (size_t b = 0; b < block_seconds_.size(); ++b) {
    const size_t begin = b == 0 ? 0 : BlockEnd(b - 1);
    rates.push_back(static_cast<double>(BlockEnd(b) - begin) /
                    block_seconds_[b]);
  }
  return Median(std::move(rates));
}

void Report::Fail(const std::string& what) {
  ++failures_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::Note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

void Report::PrintJson() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double value = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ----- Process probes --------------------------------------------------------

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

int ThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count;
}

int CpuBudget() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::pair<uint64_t, uint64_t> StealTicks() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(stat);
  if (got != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

// ----- Inputs ----------------------------------------------------------------

Dataset MakeData(size_t num_objects, int num_dims) {
  constexpr uint64_t kDataSeed = 2007;
  return skycube::bench::PaperSynthetic(skycube::Distribution::kIndependent,
                                        num_objects, num_dims, kDataSeed);
}

ReadMix::Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ReadMix::Zipf::Sample(double uniform) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), uniform);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

namespace {

template <typename T>
void Shuffle(std::vector<T>* values, skycube::Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->NextBounded(i)]);
  }
}

/// A seeded permutation of `items` in which the class of the item at each
/// position is the same for every seed: a fixed permutation sets the
/// classes, the seed picks which item of each class fills each position.
template <typename T, typename ClassOf>
std::vector<T> StratifiedPermutation(std::vector<T> items, ClassOf class_of,
                                     skycube::Rng* rng) {
  std::vector<T> reference = items;
  skycube::Rng fixed(0x5ca1ab1e);
  Shuffle(&reference, &fixed);
  std::map<uint64_t, std::vector<T>> by_class;
  for (const T& item : items) by_class[class_of(item)].push_back(item);
  for (auto& [cls, members] : by_class) Shuffle(&members, rng);
  std::vector<T> out;
  for (const T& shape : reference) {
    auto& members = by_class[class_of(shape)];
    out.push_back(members.back());
    members.pop_back();
  }
  return out;
}

/// Cost class of a count: half-octaves, so members of one class differ by
/// less than a factor of 1.5.
uint64_t HalfOctave(uint64_t count) {
  return static_cast<uint64_t>(2 * std::log2(static_cast<double>(count) + 1));
}

}  // namespace

ReadMix::ReadMix(int num_dims, size_t num_objects, bool with_q3,
                 uint64_t seed, const ReadOracle& oracle)
    : kinds_(0x6b1d5),
      rng_(seed),
      subspace_rank_(skycube::FullMask(num_dims), 1.1),
      object_rank_(num_objects, 1.1),
      with_q3_(with_q3) {
  // A Q1 costs more the larger its subspace's skyline, and a Q3 the more
  // subspaces its object is a skyline member of. With plain permutations,
  // the seed that puts the full space (or a many-skyline object) at Zipf
  // rank 1 runs several times slower than one that puts a 1-d subspace
  // there. So each rank's cost class is fixed, and the seed picks the
  // subspace or object within the class: the hot ones change with the
  // seed, their cost profile does not.
  // Subspaces are few, and a run's p50 and p99 fall on the costs of a few
  // of them, so their classes are narrow: subspaces whose skyline sizes are
  // within 15% of the smallest in the class. A subspace with no such
  // neighbour (the full space, usually) keeps its rank on every seed.
  std::vector<std::pair<size_t, DimMask>> by_size;
  for (DimMask s = 1; s <= skycube::FullMask(num_dims); ++s) {
    by_size.emplace_back(oracle.Skyline(s).size(), s);
  }
  std::sort(by_size.begin(), by_size.end());
  std::vector<uint64_t> class_of(size_t{1} << num_dims);
  std::vector<DimMask> subspaces;
  uint64_t cls = 0;
  size_t class_floor = by_size.front().first;
  for (const auto& [size, s] : by_size) {
    if (static_cast<double>(size) > 1.15 * static_cast<double>(class_floor)) {
      ++cls;
      class_floor = size;
    }
    class_of[s] = cls;
    subspaces.push_back(s);
  }
  subspaces_ = StratifiedPermutation(
      std::move(subspaces), [&](DimMask s) { return class_of[s]; }, &rng_);
  std::vector<ObjectId> objects(num_objects);
  for (size_t i = 0; i < num_objects; ++i) {
    objects[i] = static_cast<ObjectId>(i);
  }
  objects_ = StratifiedPermutation(
      std::move(objects),
      [&](ObjectId id) { return HalfOctave(oracle.MembershipCount(id)); },
      &rng_);
}

Op ReadMix::Next() {
  // Shares in percent: 70 Q1 ids, 10 Q1 cardinality, 18 Q2, 2 Q3.
  const double total = with_q3_ ? 100.0 : 98.0;
  const double pick = kinds_.NextDouble() * total;
  Op op;
  op.subspace = subspaces_[subspace_rank_.Sample(rng_.NextDouble())];
  if (pick < 70) {
    op.kind = QueryKind::kSubspaceSkyline;
  } else if (pick < 80) {
    op.kind = QueryKind::kSkylineCardinality;
  } else if (pick < 98) {
    op.kind = QueryKind::kMembership;
    op.object = objects_[object_rank_.Sample(rng_.NextDouble())];
  } else {
    op.kind = QueryKind::kMembershipCount;
    op.subspace = 0;
    op.object = objects_[object_rank_.Sample(rng_.NextDouble())];
  }
  return op;
}

std::vector<Op> ReadOps(size_t count, int num_dims, size_t num_objects,
                        bool with_q3, uint64_t seed, const ReadOracle& oracle) {
  ReadMix mix(num_dims, num_objects, with_q3, seed, oracle);
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) ops.push_back(mix.Next());
  return ops;
}

QueryRequest ToRequest(const Op& op) {
  return QueryRequest::Make(op.kind, op.subspace, op.object);
}

size_t OpCount(double seconds, double ops_per_second) {
  return std::max<size_t>(1, static_cast<size_t>(seconds * ops_per_second));
}

// ----- Oracle ----------------------------------------------------------------

ReadOracle::ReadOracle(const Dataset& data)
    : skylines_(size_t{1} << data.num_dims()) {
  for (DimMask s = 1; s <= data.full_mask(); ++s) {
    skylines_[s] = skycube::ComputeSkyline(data, s);
  }
  CountMemberships(data.num_objects());
}

ReadOracle::ReadOracle(const skycube::CompressedSkylineCube& cube)
    : skylines_(size_t{1} << cube.num_dims()) {
  for (DimMask s = 1; s <= skycube::FullMask(cube.num_dims()); ++s) {
    skylines_[s] = cube.SubspaceSkyline(s);
  }
  CountMemberships(cube.num_objects());
}

void ReadOracle::CountMemberships(size_t num_objects) {
  membership_counts_.assign(num_objects, 0);
  for (const auto& skyline : skylines_) {
    for (ObjectId id : skyline) ++membership_counts_[id];
  }
}

bool ReadOracle::Member(ObjectId object, DimMask subspace) const {
  const auto& skyline = skylines_[subspace];
  return std::binary_search(skyline.begin(), skyline.end(), object);
}

bool ReadOracle::Check(const Op& op, const QueryResponse& response) const {
  if (!response.ok || response.kind != op.kind || response.partial) {
    return false;
  }
  switch (op.kind) {
    case QueryKind::kSubspaceSkyline:
      return response.ids != nullptr && *response.ids == skylines_[op.subspace];
    case QueryKind::kSkylineCardinality:
      return response.count == skylines_[op.subspace].size();
    case QueryKind::kMembership:
      return response.member == Member(op.object, op.subspace);
    case QueryKind::kMembershipCount:
      return response.count == membership_counts_[op.object];
    default:
      return false;
  }
}

}  // namespace perfbench
