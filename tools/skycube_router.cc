// skycube_router — scatter–gather front end over N shard servers
// (docs/SHARDING.md). Speaks the src/net binary protocol on both sides:
// clients connect to it exactly like to a single skycube_serve socket; it
// fans each query out to the shard backends (tools/skycube_serve
// --shard-index), merges the per-shard subspace skylines with one SFS
// refilter pass over their union, and degrades explicitly — a down or
// over-budget shard yields a partial-flagged answer over the survivors,
// never a wrong one.
//
// The router bootstraps its own full row copy from the same data source
// the shards loaded (global id = source position, owner = consistent-hash
// ring), so shards ship only local row ids back.
//
// Replication (docs/REPLICATION.md): a shard entry may list standby
// replicas after `+` — e.g. --shards=:7001+:7101+:7201,:7002+:7102 — and
// the router then fails over to the most-caught-up replica (kReplPromote)
// when a primary dies, instead of degrading to a partial answer.
//
// Flags:
//   --shards=H:P[+H:P...],...  shard endpoints (primary[+replicas]),
//                              index order = shard index
//   --data=FILE.csv       bootstrap rows (must match the shards' source)
//   --synthetic           bootstrap --dist/--tuples/--dims/--seed/--truncate
//   --negate              negate --data values (as the shards did)
//   --ring-seed=S         consistent-hash seed  (default 0, must match)
//   --ring-vnodes=V       vnodes per shard      (default 64, must match)
//   --deadline-ms=N       per-request deadline, 0 = none     (default 0)
//   --budget-fraction=F   shard-wave share of the deadline   (default 0.9)
//   --hedge-ms=N          minimum hedge delay                (default 10)
//   --hedge-factor=F      hedge at F × shard p95             (default 3.0)
//   --no-hedge            disable hedged reads
//   --down-after=N        failures before a shard is down    (default 3)
//   --retry-ms=N          initial down-shard probe delay     (default 100)
//                         (doubles up to --retry-max-ms with ±20% jitter;
//                         a success resets it)
//   --retry-max-ms=N      probe-delay cap                    (default 30000)
//   --staleness=N         replica-read bound, records        (default 4096)
// Socket (same as skycube_serve):
//   --port=N --listen=HOST --net-threads=N --net-queue=N --max-pipeline=N
//   --max-connections=N
//
// SIGTERM/SIGINT drain gracefully, exactly like skycube_serve socket mode.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "net/server.h"
#include "router/router.h"

namespace skycube {
namespace {

volatile std::sig_atomic_t g_shutdown_signal = 0;

extern "C" void OnShutdownSignal(int sig) { g_shutdown_signal = sig; }

void InstallShutdownHandlers() {
  struct sigaction action = {};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// Parses one "host:port" (host defaults to 127.0.0.1 when the entry is
/// just a port or ":port").
bool ParseOneEndpoint(const std::string& entry,
                      router::ShardEndpoint* endpoint) {
  const size_t colon = entry.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? entry : entry.substr(colon + 1);
  if (colon != std::string::npos && colon > 0) {
    endpoint->host = entry.substr(0, colon);
  }
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port == 0 ||
      port > 65535) {
    std::fprintf(stderr, "bad shard endpoint '%s'\n", entry.c_str());
    return false;
  }
  endpoint->port = static_cast<uint16_t>(port);
  return true;
}

/// Parses "host:port[+host:port...],..." — commas separate shards, `+`
/// separates a shard's primary from its standby replicas.
bool ParseEndpoints(const std::string& spec,
                    std::vector<router::ShardEndpointSet>* endpoints) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    router::ShardEndpointSet set;
    size_t member_start = 0;
    bool first = true;
    while (member_start <= entry.size()) {
      size_t plus = entry.find('+', member_start);
      if (plus == std::string::npos) plus = entry.size();
      const std::string member = entry.substr(member_start, plus - member_start);
      member_start = plus + 1;
      if (member.empty()) continue;
      router::ShardEndpoint endpoint;
      if (!ParseOneEndpoint(member, &endpoint)) return false;
      if (first) {
        set.primary = std::move(endpoint);
        first = false;
      } else {
        set.replicas.push_back(std::move(endpoint));
      }
    }
    if (first) continue;  // entry was all separators
    endpoints->push_back(std::move(set));
  }
  return !endpoints->empty();
}

int Usage() {
  std::fprintf(stderr,
               "usage: skycube_router --shards=H:P,... (--data=FILE.csv | "
               "--synthetic) --port=N [flags]\n(see the header of "
               "tools/skycube_router.cc)\n");
  return 2;
}

int Run(const FlagParser& flags) {
  std::vector<router::ShardEndpointSet> endpoints;
  if (!flags.Has("shards") ||
      !ParseEndpoints(flags.GetString("shards", ""), &endpoints)) {
    return Usage();
  }

  // The bootstrap source: the same rows, in the same order, the shards
  // loaded (they filtered by ring ownership; the router keeps all).
  Dataset source(1);
  if (flags.Has("data")) {
    Result<Dataset> loaded = Dataset::FromCsvFile(flags.GetString("data", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    source = std::move(loaded).value();
    if (flags.GetBool("negate", false)) source = source.Negated();
  } else if (flags.GetBool("synthetic", false)) {
    SyntheticSpec spec;
    spec.distribution =
        DistributionFromName(flags.GetString("dist", "independent"));
    spec.num_objects = static_cast<size_t>(flags.GetInt("tuples", 2000));
    spec.num_dims = static_cast<int>(flags.GetInt("dims", 6));
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    spec.truncate_decimals = static_cast<int>(flags.GetInt("truncate", 4));
    source = GenerateSynthetic(spec);
  } else {
    return Usage();
  }

  router::RouterOptions options;
  options.ring_seed = static_cast<uint64_t>(flags.GetInt("ring-seed", 0));
  options.ring_vnodes = static_cast<int>(flags.GetInt("ring-vnodes", 64));
  options.scatter.budget_fraction = flags.GetDouble("budget-fraction", 0.9);
  options.shard.hedge_reads = !flags.GetBool("no-hedge", false);
  options.shard.hedge_min_millis = flags.GetInt("hedge-ms", 10);
  options.shard.hedge_factor = flags.GetDouble("hedge-factor", 3.0);
  options.shard.down_after_failures =
      static_cast<int>(flags.GetInt("down-after", 3));
  options.shard.probe.initial_millis = flags.GetInt("retry-ms", 100);
  options.shard.probe.max_millis = flags.GetInt("retry-max-ms", 30000);
  options.replica_set.max_staleness_records =
      static_cast<uint64_t>(flags.GetInt("staleness", 4096));

  router::RouterExecutor executor(source.num_dims(), endpoints, options);
  const size_t num_rows = source.num_objects();
  for (ObjectId gid = 0; gid < static_cast<ObjectId>(num_rows); ++gid) {
    executor.BootstrapRow(source.Row(gid));
  }
  std::fprintf(stderr, "router over %zu shards, %zu rows, %d dims\n",
               executor.num_shards(), num_rows, executor.num_dims());

  net::NetServerOptions net_options;
  net_options.host = flags.GetString("listen", "127.0.0.1");
  net_options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  net_options.dispatch_threads =
      static_cast<int>(flags.GetInt("net-threads", 0));
  net_options.dispatch_queue_capacity =
      static_cast<size_t>(flags.GetInt("net-queue", 4096));
  net_options.max_pipeline =
      static_cast<size_t>(flags.GetInt("max-pipeline", 1024));
  net_options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections", 0));
  net_options.deadline_millis = flags.GetInt("deadline-ms", 0);

  net::NetServer server(&executor, net_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  InstallShutdownHandlers();
  std::fprintf(stderr, "listening on %s:%u (%d-dim cube, %zu shards)\n",
               net_options.host.c_str(), static_cast<unsigned>(server.port()),
               executor.num_dims(), executor.num_shards());
  std::fflush(stderr);
  server.Run(
      [&server] {
        if (g_shutdown_signal != 0) server.BeginDrain();
      },
      /*tick_millis=*/100);
  executor.BeginDrain();
  if (g_shutdown_signal != 0) {
    std::fprintf(stderr, "signal %d: drained, exiting\n",
                 static_cast<int>(g_shutdown_signal));
  }
  return 0;
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  const skycube::FlagParser flags(argc, argv);
  return skycube::Run(flags);
}
