// Shared helpers for the figure-reproduction harnesses.
//
// Every harness prints (a) a human-readable aligned table and (b) a
// gnuplot-ready TSV block, containing the same rows/series as the paper's
// figure, and (c) with --json[=PATH], a machine-readable JSON record of the
// same tables (BenchJson) for perf-trajectory tooling. Default parameters
// are CI-friendly scaled-down versions of the paper's workloads; pass
// --full for the paper-sized sweep (see EXPERIMENTS.md for both sets of
// results).
#ifndef SKYCUBE_BENCH_BENCH_COMMON_H_
#define SKYCUBE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "datagen/nba_like.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"

namespace skycube::bench {

/// The paper's synthetic workload: Börzsönyi generator + 4-decimal
/// truncation (§6.2).
inline Dataset PaperSynthetic(Distribution distribution, size_t num_objects,
                              int num_dims, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = distribution;
  spec.num_objects = num_objects;
  spec.num_dims = num_dims;
  spec.seed = seed;
  spec.truncate_decimals = 4;
  return GenerateSynthetic(spec);
}

/// The NBA-like table in algorithm convention (smaller is better).
inline Dataset PaperNba(uint64_t seed = 2007) {
  return GenerateNbaLike(kNbaLikeDefaultPlayers, seed).Negated();
}

/// Times one invocation of `fn` in seconds.
template <typename Fn>
double TimeIt(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// Seconds on the steady clock, for timestamping single operations.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The `p`-quantile (0..1) of latencies in seconds, in microseconds; 0 for
/// none. Reorders *latencies.
inline double PercentileUs(std::vector<double>* latencies, double p) {
  if (latencies->empty()) return 0;
  const size_t k = static_cast<size_t>(
      p * static_cast<double>(latencies->size() - 1));
  std::nth_element(latencies->begin(), latencies->begin() + k,
                   latencies->end());
  return (*latencies)[k] * 1e6;
}

/// Standard header line for a harness.
inline void PrintHeader(const std::string& title, bool full) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("mode: %s (pass --full for the paper-sized sweep)\n\n",
              full ? "FULL (paper-sized)" : "default (CI-scaled)");
}

/// Emits the table twice: aligned for humans, TSV for gnuplot.
inline void EmitTable(const TablePrinter& table) {
  table.Print(std::cout);
  std::printf("\n-- TSV --\n");
  table.PrintTsv(std::cout);
  std::printf("\n");
}

/// Machine-readable run record. Collects the harness's tables and scalar
/// metadata and writes them as one JSON file when --json[=PATH] was passed
/// (`--json` alone defaults to BENCH_<name>.json in the working directory);
/// every method is a no-op otherwise, so harnesses call it unconditionally.
///
/// Shape: {"bench": ..., "scalars": {...},
///         "tables": {name: {"columns": [...], "rows": [[...], ...]}}}.
/// Numeric-looking cells are emitted as bare JSON numbers.
class BenchJson {
 public:
  BenchJson(const FlagParser& flags, std::string bench_name)
      : name_(std::move(bench_name)) {
    if (!flags.Has("json")) return;
    path_ = flags.GetString("json", "");
    if (path_.empty() || path_ == "true") path_ = "BENCH_" + name_ + ".json";
  }

  ~BenchJson() { Write(); }

  bool enabled() const { return !path_.empty(); }

  void AddScalar(const std::string& key, double value) {
    std::ostringstream os;
    os << value;
    scalars_.emplace_back(key, os.str());
  }
  void AddScalar(const std::string& key, int64_t value) {
    scalars_.emplace_back(key, std::to_string(value));
  }
  void AddScalar(const std::string& key, const std::string& value) {
    scalars_.emplace_back(key, Quote(value));
  }

  void AddTable(const std::string& table_name, const TablePrinter& table) {
    if (!enabled()) return;
    std::ostringstream os;
    os << "{\"columns\": [";
    const auto& headers = table.headers();
    for (size_t i = 0; i < headers.size(); ++i) {
      os << (i == 0 ? "" : ", ") << Quote(headers[i]);
    }
    os << "], \"rows\": [";
    const auto& rows = table.rows();
    for (size_t r = 0; r < rows.size(); ++r) {
      os << (r == 0 ? "" : ", ") << "[";
      for (size_t c = 0; c < rows[r].size(); ++c) {
        os << (c == 0 ? "" : ", ") << Cell(rows[r][c]);
      }
      os << "]";
    }
    os << "]}";
    tables_.emplace_back(table_name, os.str());
  }

  /// Writes the file (idempotent; also invoked by the destructor).
  void Write() {
    if (!enabled() || written_) return;
    written_ = true;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write --json file %s\n",
                   path_.c_str());
      return;
    }
    out << "{\n  \"bench\": " << Quote(name_) << ",\n  \"scalars\": {";
    for (size_t i = 0; i < scalars_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << Quote(scalars_[i].first) << ": "
          << scalars_[i].second;
    }
    out << "},\n  \"tables\": {";
    for (size_t i = 0; i < tables_.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n    " << Quote(tables_[i].first)
          << ": " << tables_[i].second;
    }
    out << "\n  }\n}\n";
    std::printf("json record written to %s\n", path_.c_str());
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  /// Numeric-looking cells become bare numbers; everything else a string.
  static std::string Cell(const std::string& s) {
    if (!s.empty()) {
      char* end = nullptr;
      std::strtod(s.c_str(), &end);
      if (end == s.c_str() + s.size()) return s;
    }
    return Quote(s);
  }

  std::string name_;
  std::string path_;  // empty = disabled
  bool written_ = false;
  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<std::pair<std::string, std::string>> tables_;
};

}  // namespace skycube::bench

#endif  // SKYCUBE_BENCH_BENCH_COMMON_H_
