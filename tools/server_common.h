// Glue shared by the two server tools, skycube_serve and skycube_router:
// the shutdown-signal handler, the --port range check, the --data /
// --synthetic source loader, the socket-mode flag block, and the
// "listening on HOST:PORT" line they print once bound, together with the
// parser the process harness (tools/process_harness.h) scrapes it with.
#ifndef SKYCUBE_TOOLS_SERVER_COMMON_H_
#define SKYCUBE_TOOLS_SERVER_COMMON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "net/server.h"

namespace skycube {

/// Installs the SIGTERM/SIGINT handler that requests a drain. Deliberately
/// no SA_RESTART: a blocking stdin read fails with EINTR so the serve loop
/// sees the request instead of waiting for the next input line.
void InstallShutdownHandlers();

/// The last shutdown signal received; 0 = none.
int ShutdownSignal();

/// False, after printing why, when --port is outside [0, 65535].
bool PortFlagInRange(const FlagParser& flags);

/// The --synthetic generator's spec: --dist (default independent),
/// --tuples (2000), --dims (6), --seed (42) and --truncate (4).
SyntheticSpec SyntheticSpecFromFlags(const FlagParser& flags);

/// The flags that make a server tool generate exactly `spec`:
/// "--synthetic" plus one flag per field SyntheticSpecFromFlags reads.
std::vector<std::string> SyntheticFlags(const SyntheticSpec& spec);

/// The dataset source: --data=FILE.csv (negated with --negate) when given,
/// else the --synthetic generator.
Result<Dataset> LoadDataSource(const FlagParser& flags);

/// The socket-mode flags: --listen (default 127.0.0.1), --port (0),
/// --net-threads (0), --net-queue (4096), --max-pipeline (1024),
/// --max-connections (0) and --deadline-ms (0).
net::NetServerOptions NetServerOptionsFromFlags(const FlagParser& flags);

/// Prints "listening on HOST:PORT (DETAIL)" to stderr and flushes it.
void PrintListenLine(const std::string& host, uint16_t port,
                     const std::string& detail);

/// The port of a line PrintListenLine wrote; nullopt for any other line.
std::optional<uint16_t> ParseListenLine(const std::string& line);

}  // namespace skycube

#endif  // SKYCUBE_TOOLS_SERVER_COMMON_H_
