#include "tools/process_harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>

#include "common/deadline.h"
#include "tools/server_common.h"

extern char** environ;

namespace skycube::harness {
namespace {

constexpr char kFaultsVar[] = "SKYCUBE_ARM_FAULTS=";

/// Children this process spawned and has not reaped.
std::vector<pid_t> g_live;
int g_failures = 0;

void KillLive() {
  for (const pid_t pid : g_live) {
    kill(pid, SIGKILL);
    while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  g_live.clear();
}

void Track(pid_t pid) {
  static const bool registered = std::atexit(KillLive) == 0;
  (void)registered;
  g_live.push_back(pid);
}

void CloseFds(std::initializer_list<int> fds) {
  for (const int fd : fds) {
    if (fd >= 0) close(fd);
  }
}

/// Forks a child wired for `io` that calls `run`, which must not return.
/// `name` labels the child in a failure.
Result<Child> StartChild(Io io, const std::string& name,
                         const std::function<void()>& run) {
  // Close-on-exec everywhere: a later child must not hold this one's pipes.
  int in[2] = {-1, -1};
  int out[2] = {-1, -1};
  if (pipe2(out, O_CLOEXEC) != 0 ||
      (io == Io::kPipes && pipe2(in, O_CLOEXEC) != 0)) {
    const std::string error = std::strerror(errno);
    CloseFds({in[0], in[1], out[0], out[1]});
    return Status::Internal("pipe: " + error);
  }
  std::fflush(nullptr);  // else a function child flushes our buffers again
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    const std::string error = std::strerror(errno);
    CloseFds({in[0], in[1], out[0], out[1]});
    return Status::Internal("fork: " + error);
  }
  if (pid == 0) {
    g_live.clear();  // the parent's children are not this child's to reap
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // the parent died before prctl
    if (io == Io::kPipes) {
      dup2(in[0], STDIN_FILENO);
      dup2(out[1], STDOUT_FILENO);
      // Post-fork child setup: no storage-layer durability involved.
      const int devnull = open("/dev/null", O_WRONLY);  // lint:allow-raw-io
      if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    } else {
      dup2(out[1], STDERR_FILENO);
    }
    CloseFds({in[0], in[1], out[0], out[1]});
    run();
    _exit(127);
  }
  Track(pid);
  CloseFds({in[0], out[1]});
  Child child;
  child.pid = pid;
  child.from = fdopen(out[0], "r");
  if (io == Io::kPipes) {
    child.to = fdopen(in[1], "w");
    return child;
  }
  std::string line;
  std::string last;
  while (ReadLine(child.from, &line)) {
    if (const std::optional<uint16_t> port = ParseListenLine(line)) {
      child.port = *port;
      return child;
    }
    last = line;
  }
  Stop(&child, SIGKILL);
  return Status::Unavailable("no listen line from " + name + " (last: '" +
                             last + "')");
}

}  // namespace

Result<Child> Spawn(const std::string& binary,
                    const std::vector<std::string>& args, Io io,
                    const std::string& faults) {
  // argv and the environment are built before the fork, so the child calls
  // nothing but async-signal-safe functions before execve.
  std::vector<char*> argv = {const_cast<char*>(binary.c_str())};
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const std::string armed = kFaultsVar + faults;
  std::vector<char*> envp;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, kFaultsVar, sizeof(kFaultsVar) - 1) != 0) {
      envp.push_back(*entry);
    }
  }
  if (!faults.empty()) envp.push_back(const_cast<char*>(armed.c_str()));
  envp.push_back(nullptr);
  return StartChild(io, binary, [&] {
    execve(binary.c_str(), argv.data(), envp.data());
  });
}

Result<Child> SpawnFunction(const std::function<int()>& body, Io io) {
  // noexcept: an exception escaping `body` ends the child in terminate
  // instead of unwinding into the parent's code.
  return StartChild(io, "forked child", [&]() noexcept { _exit(body()); });
}

int Wait(Child* child) {
  if (child->to != nullptr) std::fclose(child->to);
  child->to = nullptr;
  int status = 0;
  if (child->pid > 0) {
    while (waitpid(child->pid, &status, 0) < 0 && errno == EINTR) {
    }
    std::erase(g_live, child->pid);
    child->pid = -1;
  }
  if (child->from != nullptr) std::fclose(child->from);
  child->from = nullptr;
  return WIFSIGNALED(status) ? -WTERMSIG(status) : WEXITSTATUS(status);
}

int Stop(Child* child, int sig) {
  if (child->pid > 0) kill(child->pid, sig);
  return Wait(child);
}

bool ReadLine(FILE* from, std::string* line) {
  line->clear();
  int c;
  while ((c = std::fgetc(from)) != EOF) {
    if (c == '\n') return true;
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

bool WireCall(net::NetClient* client, const net::WireRequest& request,
              net::WireResponse* response) {
  if (!client->SendRequest(request).ok()) return false;
  std::string error;
  return client->ReadResponse(response,
                              Deadline::AfterMillis(kWireTimeoutMillis),
                              &error) == net::NetClient::Got::kFrame;
}

bool ReplState(uint16_t port, uint64_t* lsn, std::string* role) {
  net::NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  net::WireRequest request;
  request.op = net::Opcode::kReplState;
  request.id = 1;
  net::WireResponse response;
  if (!WireCall(&client, request, &response) ||
      response.status != StatusCode::kOk) {
    return false;
  }
  *lsn = response.lsn;
  if (role != nullptr) *role = response.text;
  return true;
}

void Fail(const char* format, ...) {
  std::fprintf(stderr, "FAIL ");
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fprintf(stderr, "\n");
  ++g_failures;
}

int Failures() { return g_failures; }

int Report(const char* name) {
  if (g_failures == 0) {
    std::fprintf(stderr, "%s: all rounds passed\n", name);
    return 0;
  }
  std::fprintf(stderr, "%s: %d failure(s)\n", name, g_failures);
  return 1;
}

}  // namespace skycube::harness
