// Process harness for the end-to-end tests and benches that drive real
// server processes (docs/TESTING.md, "Process harnesses"): spawning and
// reaping children, the cleanup of every child still running when the
// harness exits, line and wire I/O with a child, and one failure counter.
//
// Children must be spawned from the thread that outlives them (the main
// thread in every harness): each child is SIGKILLed by the kernel when
// that thread ends, so a harness that is itself killed leaves no server
// behind holding its ports or its output pipes.
#ifndef SKYCUBE_TOOLS_PROCESS_HARNESS_H_
#define SKYCUBE_TOOLS_PROCESS_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "net/protocol.h"

namespace skycube::harness {

/// How the harness talks to a child.
enum class Io {
  /// The child's stdin and stdout are piped to Child::to and Child::from;
  /// its stderr goes to /dev/null.
  kPipes,
  /// The child's stderr is piped to Child::from and read up to the
  /// "listening on HOST:PORT" line (tools/server_common.h), skipping any
  /// lines before it; the port lands in Child::port.
  kListenLine,
};

/// A child process. Wait or Stop reaps it; one still running when the
/// spawning process exits is SIGKILLed and reaped then.
struct Child {
  pid_t pid = -1;
  uint16_t port = 0;
  FILE* to = nullptr;
  FILE* from = nullptr;
};

/// Forks and execs `binary` with `args`. A non-empty `faults` becomes the
/// child's SKYCUBE_ARM_FAULTS; an empty one removes that variable from its
/// environment. A failure (pipe, fork, or no listen line before the child
/// closed its stderr) kills and reaps the child and is returned.
Result<Child> Spawn(const std::string& binary,
                    const std::vector<std::string>& args, Io io,
                    const std::string& faults = "");

/// Forks and runs `body` in the child, which exits with its return value;
/// for a server built in-process that must not share this process's
/// threads or file descriptors. Fails as Spawn does.
Result<Child> SpawnFunction(const std::function<int()>& body, Io io);

/// Closes the child's stdin, waits for it to exit, then closes its output
/// pipe. Returns the exit status, or -SIG when signal SIG ended it.
int Wait(Child* child);

/// Sends `sig` to a running child, then Wait()s for it.
int Stop(Child* child, int sig);

/// Reads one line without its '\n'; false at the end of the stream with
/// nothing read.
bool ReadLine(FILE* from, std::string* line);

/// Deadline of one wire request.
inline constexpr int64_t kWireTimeoutMillis = 60000;

/// Sends `request` and reads its response within kWireTimeoutMillis; false
/// on a transport error, a goaway, or the deadline.
bool WireCall(net::NetClient* client, const net::WireRequest& request,
              net::WireResponse* response);

/// Asks the server on 127.0.0.1:`port` for its replication state: the
/// applied LSN and, unless `role` is null, "primary" or "replica".
bool ReplState(uint16_t port, uint64_t* lsn, std::string* role);

/// Prints "FAIL " and the printf-style message to stderr; counts a failure.
void Fail(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Failures counted so far.
int Failures();

/// Prints "NAME: all rounds passed" or "NAME: N failure(s)" and returns
/// the matching exit status, 0 or 1.
int Report(const char* name);

}  // namespace skycube::harness

/// Fails the enclosing bool function with a printf-style message unless
/// `cond` holds.
#define HARNESS_CHECK(cond, ...)             \
  do {                                       \
    if (!(cond)) {                           \
      ::skycube::harness::Fail(__VA_ARGS__); \
      return false;                          \
    }                                        \
  } while (0)

#endif  // SKYCUBE_TOOLS_PROCESS_HARNESS_H_
