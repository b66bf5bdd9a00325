// skycube_nettest — end-to-end harness for the socket mode of
// skycube_serve (docs/NET.md). Forks a real server child, scrapes the
// "listening on HOST:PORT" line from its stderr, and drives the binary
// protocol over genuine loopback TCP:
//
//   round 1  pipeline: N mixed Q1/Q2/Q3 + insert requests in one burst;
//            every response arrives, in request order, with correct
//            version bumps across the inserts; health/stats opcodes answer
//            the serve-tool text lines over the wire;
//   round 2  malformed bytes: a corrupted frame is answered with one
//            kGoAway(kInvalidArgument) and a close — the server stays up
//            and keeps serving other connections;
//   round 3  SIGTERM drain: responses to a just-sent burst still arrive in
//            order (in-flight requests complete), a post-signal connection
//            is refused (kUnavailable goaway, or the closed listener's
//            ECONNREFUSED once the drain finished), the old connection
//            ends in clean EOF, and the child exits 0.
//
// Usage (registered as a ctest test):
//   skycube_nettest --serve=PATH [--tuples=N] [--dims=D] [--seed=S]
#include <signal.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/flags.h"
#include "net/client.h"
#include "net/protocol.h"
#include "tools/process_harness.h"
#include "tools/server_common.h"

namespace skycube {
namespace {

using harness::Child;

/// The harness speaks the wire through the shared src/net client. A hung
/// server fails the harness via the read deadline instead of wedging ctest.
constexpr int64_t kReadTimeoutMillis = 30000;

/// Connects to the server's loopback port; false (after logging) on refusal.
bool Connect(net::NetClient* client, uint16_t port) {
  const Status status = client->Connect("127.0.0.1", port);
  if (!status.ok()) {
    std::fprintf(stderr, "connect: %s\n", status.ToString().c_str());
  }
  return status.ok();
}

enum class Got { kPayload, kEof, kError };

/// Next raw frame payload (any opcode — the rounds inspect goaways
/// themselves). Timeouts and framing errors both report kError.
Got ReadPayload(net::NetClient* client, std::string* payload) {
  std::string error;
  switch (client->ReadFrame(payload,
                            Deadline::AfterMillis(kReadTimeoutMillis),
                            &error)) {
    case net::NetClient::Got::kFrame:
      return Got::kPayload;
    case net::NetClient::Got::kEof:
      return Got::kEof;
    case net::NetClient::Got::kTimeout:
      std::fprintf(stderr, "client read timeout\n");
      return Got::kError;
    default:
      std::fprintf(stderr, "client read error: %s\n", error.c_str());
      return Got::kError;
  }
}

net::WireRequest Request(net::Opcode op, uint64_t id) {
  net::WireRequest request;
  request.op = op;
  request.id = id;
  return request;
}

/// Builds the mixed pipeline burst: requests with ids 0..count-1 cycling
/// through every query opcode plus periodic inserts.
std::string MixedBurst(uint64_t count, int dims, uint64_t first_id = 0) {
  std::string burst;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t id = first_id + i;
    net::WireRequest request;
    switch (i % 6) {
      case 0:
        request = Request(net::Opcode::kSkyline, id);
        request.subspace = 0b11;
        break;
      case 1:
        request = Request(net::Opcode::kCardinality, id);
        request.subspace = (1u << dims) - 1;
        break;
      case 2:
        request = Request(net::Opcode::kMembership, id);
        request.subspace = 0b101;
        request.object = static_cast<ObjectId>(id % 50);
        break;
      case 3:
        request = Request(net::Opcode::kMembershipCount, id);
        request.object = static_cast<ObjectId>(id % 50);
        break;
      case 4:
        request = Request(net::Opcode::kSkycubeSize, id);
        break;
      default:
        request = Request(net::Opcode::kInsert, id);
        for (int d = 0; d < dims; ++d) {
          request.values.push_back(0.9 - 0.001 * static_cast<double>(id));
        }
        break;
    }
    burst += EncodeRequest(request);
  }
  return burst;
}

bool RunPipelineRound(uint16_t port, int dims) {
  net::NetClient client;
  HARNESS_CHECK(Connect(&client, port), "pipeline: connect failed");

  constexpr uint64_t kRequests = 120;
  HARNESS_CHECK(client.Send(MixedBurst(kRequests, dims)).ok(),
                "pipeline: send failed");

  uint64_t last_version = 0;
  for (uint64_t id = 0; id < kRequests; ++id) {
    std::string payload;
    HARNESS_CHECK(ReadPayload(&client, &payload) == Got::kPayload,
                  "pipeline: stream ended at response %llu",
                  static_cast<unsigned long long>(id));
    HARNESS_CHECK(net::PayloadOpcode(payload) == net::Opcode::kResponse,
                  "pipeline: unexpected opcode at response %llu",
                  static_cast<unsigned long long>(id));
    Result<net::WireResponse> decoded = net::ParseResponse(payload);
    HARNESS_CHECK(decoded.ok(), "pipeline: bad response: %s",
                  decoded.status().ToString().c_str());
    const net::WireResponse& response = decoded.value();
    HARNESS_CHECK(response.id == id,
                  "pipeline: out of order: got id %llu at position %llu",
                  static_cast<unsigned long long>(response.id),
                  static_cast<unsigned long long>(id));
    HARNESS_CHECK(response.status == StatusCode::kOk,
                  "pipeline: request %llu failed: %s",
                  static_cast<unsigned long long>(id), response.text.c_str());
    // Inserts swap the snapshot: versions must be non-decreasing and grow
    // by exactly one across each insert acknowledgement.
    HARNESS_CHECK(response.snapshot_version >= last_version,
                  "pipeline: version went backwards at %llu",
                  static_cast<unsigned long long>(id));
    if (response.request_op == net::Opcode::kInsert) {
      last_version = response.snapshot_version;
    }
  }
  HARNESS_CHECK(last_version >= 2,
                "pipeline: inserts never bumped the version");

  // Introspection over the wire: the serve-tool health and stats lines.
  const std::string introspection =
      EncodeRequest(Request(net::Opcode::kHealth, 1000)) +
      EncodeRequest(Request(net::Opcode::kStats, 1001));
  HARNESS_CHECK(client.Send(introspection).ok(),
                "pipeline: introspection send failed");
  std::string payload;
  HARNESS_CHECK(ReadPayload(&client, &payload) == Got::kPayload,
                "pipeline: no health response");
  Result<net::WireResponse> health = net::ParseResponse(payload);
  HARNESS_CHECK(health.ok(), "pipeline: bad health response");
  HARNESS_CHECK(health.value().text.find("status=ready") != std::string::npos,
                "pipeline: bad health line: '%s'", health.value().text.c_str());
  HARNESS_CHECK(ReadPayload(&client, &payload) == Got::kPayload,
                "pipeline: no stats response");
  Result<net::WireResponse> stats = net::ParseResponse(payload);
  HARNESS_CHECK(stats.ok(), "pipeline: bad stats response");
  HARNESS_CHECK(stats.value().text.find("queries=") != std::string::npos,
                "pipeline: bad stats line: '%s'", stats.value().text.c_str());
  return true;
}

bool RunMalformedRound(uint16_t port) {
  net::NetClient victim;
  HARNESS_CHECK(Connect(&victim, port), "malformed: connect failed");
  std::string bad = EncodeRequest(Request(net::Opcode::kPing, 1));
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
  HARNESS_CHECK(victim.Send(bad).ok(), "malformed: send failed");

  std::string payload;
  HARNESS_CHECK(ReadPayload(&victim, &payload) == Got::kPayload,
                "malformed: expected a goaway frame");
  HARNESS_CHECK(net::PayloadOpcode(payload) == net::Opcode::kGoAway,
                "malformed: expected kGoAway, got opcode %d", int(payload[0]));
  Result<net::WireGoAway> goaway = net::ParseGoAway(payload);
  HARNESS_CHECK(goaway.ok(), "malformed: unparseable goaway");
  HARNESS_CHECK(goaway.value().status == StatusCode::kInvalidArgument,
                "malformed: wrong goaway status");
  HARNESS_CHECK(ReadPayload(&victim, &payload) == Got::kEof,
                "malformed: server did not close the broken stream");

  // The server survives: a fresh connection still answers.
  net::NetClient fresh;
  HARNESS_CHECK(Connect(&fresh, port), "malformed: reconnect failed");
  HARNESS_CHECK(fresh.Send(EncodeRequest(Request(net::Opcode::kPing, 2))).ok(),
                "malformed: ping send failed");
  HARNESS_CHECK(ReadPayload(&fresh, &payload) == Got::kPayload,
                "malformed: server stopped answering after a protocol error");
  return true;
}

bool RunDrainRound(Child* server, int dims) {
  net::NetClient inflight;
  HARNESS_CHECK(Connect(&inflight, server->port), "drain: connect failed");
  // A burst is on the wire (and mostly decoded) when the signal lands.
  constexpr uint64_t kRequests = 48;
  HARNESS_CHECK(inflight.Send(MixedBurst(kRequests, dims)).ok(),
                "drain: send failed");
  HARNESS_CHECK(kill(server->pid, SIGTERM) == 0, "drain: kill failed");

  // Every response that arrives must still be in order; the connection
  // must end in clean EOF (requests not yet decoded when the drain began
  // are dropped with the connection, never answered out of order).
  uint64_t next_id = 0;
  for (;;) {
    std::string payload;
    const Got got = ReadPayload(&inflight, &payload);
    if (got == Got::kEof) break;
    HARNESS_CHECK(got == Got::kPayload, "drain: broken stream");
    if (net::PayloadOpcode(payload) == net::Opcode::kGoAway) continue;
    Result<net::WireResponse> decoded = net::ParseResponse(payload);
    HARNESS_CHECK(decoded.ok(), "drain: bad response");
    HARNESS_CHECK(decoded.value().id == next_id,
                  "drain: out of order after SIGTERM (got %llu, want %llu)",
                  static_cast<unsigned long long>(decoded.value().id),
                  static_cast<unsigned long long>(next_id));
    ++next_id;
  }

  // A post-signal connection is refused: with the drain still open, an
  // explicit kUnavailable goaway; once the listener is closed,
  // ECONNREFUSED. Either way it must never be served.
  net::NetClient late;
  if (late.Connect("127.0.0.1", server->port).ok()) {
    std::string payload;
    const Got got = ReadPayload(&late, &payload);
    if (got == Got::kPayload) {
      HARNESS_CHECK(net::PayloadOpcode(payload) == net::Opcode::kGoAway,
                    "drain: late connection was served instead of refused");
      Result<net::WireGoAway> goaway = net::ParseGoAway(payload);
      HARNESS_CHECK(goaway.ok(), "drain: unparseable goaway");
      HARNESS_CHECK(goaway.value().status == StatusCode::kUnavailable,
                    "drain: late connection refused with the wrong status");
      HARNESS_CHECK(ReadPayload(&late, &payload) == Got::kEof,
                    "drain: refused connection not closed");
    } else {
      HARNESS_CHECK(got == Got::kEof, "drain: broken late stream");
    }
  }

  const int exit_code = harness::Wait(server);
  HARNESS_CHECK(exit_code == 0, "drain: server exited %d after SIGTERM",
                exit_code);
  return true;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const std::string serve = flags.GetString("serve", "");
  if (serve.empty()) {
    std::fprintf(stderr, "usage: skycube_nettest --serve=PATH\n");
    return 2;
  }
  SyntheticSpec source;
  source.num_objects = static_cast<size_t>(flags.GetInt("tuples", 400));
  source.num_dims = static_cast<int>(flags.GetInt("dims", 4));
  source.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  std::vector<std::string> args = SyntheticFlags(source);
  args.push_back("--port=0");
  Result<Child> spawned =
      harness::Spawn(serve, args, harness::Io::kListenLine);
  if (!spawned.ok()) {
    harness::Fail("%s", spawned.status().ToString().c_str());
    return harness::Report("skycube_nettest");
  }
  Child server = spawned.value();
  std::fprintf(stderr, "server pid %d on port %u\n", int(server.pid),
               unsigned(server.port));

  if (RunPipelineRound(server.port, source.num_dims)) {
    std::fprintf(stderr, "PASS pipeline round\n");
  }
  if (RunMalformedRound(server.port)) {
    std::fprintf(stderr, "PASS malformed round\n");
  }
  if (RunDrainRound(&server, source.num_dims)) {
    std::fprintf(stderr, "PASS drain round\n");
  }
  return harness::Report("skycube_nettest");
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) { return skycube::Main(argc, argv); }
