#include "tools/server_common.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace skycube {
namespace {

constexpr char kListenPrefix[] = "listening on ";

/// Written from the handler, read from the serve loops.
volatile std::sig_atomic_t g_shutdown_signal = 0;

extern "C" void OnShutdownSignal(int sig) { g_shutdown_signal = sig; }

}  // namespace

void InstallShutdownHandlers() {
  struct sigaction action = {};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

int ShutdownSignal() { return g_shutdown_signal; }

bool PortFlagInRange(const FlagParser& flags) {
  const int64_t port = flags.GetInt("port", 0);
  if (port >= 0 && port <= 65535) return true;
  std::fprintf(stderr, "--port=%lld is outside [0, 65535]\n",
               static_cast<long long>(port));
  return false;
}

SyntheticSpec SyntheticSpecFromFlags(const FlagParser& flags) {
  SyntheticSpec spec;
  spec.distribution =
      DistributionFromName(flags.GetString("dist", "independent"));
  spec.num_objects = static_cast<size_t>(flags.GetInt("tuples", 2000));
  spec.num_dims = static_cast<int>(flags.GetInt("dims", 6));
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  spec.truncate_decimals = static_cast<int>(flags.GetInt("truncate", 4));
  return spec;
}

std::vector<std::string> SyntheticFlags(const SyntheticSpec& spec) {
  return {
      "--synthetic",
      std::string("--dist=") + DistributionName(spec.distribution),
      "--tuples=" + std::to_string(spec.num_objects),
      "--dims=" + std::to_string(spec.num_dims),
      "--seed=" + std::to_string(spec.seed),
      "--truncate=" + std::to_string(spec.truncate_decimals),
  };
}

Result<Dataset> LoadDataSource(const FlagParser& flags) {
  if (!flags.Has("data")) {
    return GenerateSynthetic(SyntheticSpecFromFlags(flags));
  }
  Result<Dataset> loaded = Dataset::FromCsvFile(flags.GetString("data", ""));
  if (!loaded.ok()) return loaded.status();
  Dataset data = std::move(loaded).value();
  if (flags.GetBool("negate", false)) data = data.Negated();
  return data;
}

net::NetServerOptions NetServerOptionsFromFlags(const FlagParser& flags) {
  net::NetServerOptions options;
  options.host = flags.GetString("listen", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.dispatch_threads = static_cast<int>(flags.GetInt("net-threads", 0));
  options.dispatch_queue_capacity =
      static_cast<size_t>(flags.GetInt("net-queue", 4096));
  options.max_pipeline =
      static_cast<size_t>(flags.GetInt("max-pipeline", 1024));
  options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections", 0));
  options.deadline_millis = flags.GetInt("deadline-ms", 0);
  return options;
}

void PrintListenLine(const std::string& host, uint16_t port,
                     const std::string& detail) {
  std::fprintf(stderr, "%s%s:%u (%s)\n", kListenPrefix, host.c_str(),
               static_cast<unsigned>(port), detail.c_str());
  std::fflush(stderr);
}

std::optional<uint16_t> ParseListenLine(const std::string& line) {
  if (line.rfind(kListenPrefix, 0) != 0) return std::nullopt;
  const size_t colon = line.find(':', sizeof(kListenPrefix) - 1);
  if (colon == std::string::npos) return std::nullopt;
  const char* digits = line.c_str() + colon + 1;
  char* end = nullptr;
  const unsigned long port = std::strtoul(digits, &end, 10);
  if (end == digits || (*end != '\0' && *end != ' ') || port == 0 ||
      port > 65535) {
    return std::nullopt;
  }
  return static_cast<uint16_t>(port);
}

}  // namespace skycube
