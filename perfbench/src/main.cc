// skybench: one closed-loop workload of the end-to-end benchmark.
//
//   skybench --workload read|churn|wire --seed N --seconds S
//            --trace 0|1 --workdir DIR
//
// With --trace 0 the last output line holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run (see README.md).
// The process exits non-zero, without a result line, on a usage error.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "skybench: %s\nusage: skybench --workload "
               "read|churn|wire --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_workload || options.workdir.empty()) {
    return Usage("--workload and --workdir are required");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  mkdir(options.workdir.c_str(), 0755);

  perfbench::Report report;
  const auto steal_before = perfbench::StealTicks();
  if (options.workload == "read") {
    perfbench::RunReadWorkload(options, &report);
  } else if (options.workload == "churn") {
    perfbench::RunChurnWorkload(options, &report);
  } else if (options.workload == "wire") {
    perfbench::RunWireWorkload(options, &report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  const auto steal_after = perfbench::StealTicks();
  if (steal_after.second > steal_before.second) {
    // Time the host ran other guests while this one was ready to run.
    report.Diagnostic("host_steal_pct",
                      100.0 * static_cast<double>(steal_after.first -
                                                  steal_before.first) /
                          static_cast<double>(steal_after.second -
                                              steal_before.second),
                      "%");
  }
  report.Note("ops: %llu attempted, %llu failed",
              static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.failed));
  report.PrintJson();
  return 0;
}
