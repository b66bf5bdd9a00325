// Workload `wire`: one NetServer on loopback over the `read` cube with the
// result cache on, and one NetClient connection that keeps kPipeline
// requests in flight in a closed loop (the read mix without Q3). Most
// answers are cache hits that cost well under a microsecond inside round
// trips of tens of microseconds, so framing, checksums, epoll, the
// dispatch-pool handoff and the socket do the work. The process runs on
// one CPU (PinToOneCpu).
#include <sched.h>

#include <memory>
#include <thread>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace net = skycube::net;

constexpr size_t kRows = 10000;
constexpr int kDims = 8;
constexpr int kSetupReps = 5;
constexpr size_t kPipeline = 2;
constexpr double kOpsPerSecond = 45000;
constexpr int64_t kReadTimeoutMillis = 10000;

/// The served stack: the single-node service, a server running on its own
/// thread, and the client connection.
struct Wire {
  SingleNode node;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;
  net::NetClient client;

  Wire() = default;
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;
  ~Wire() { Stop(); }

  void Stop() {
    client.Close();
    if (server != nullptr) server->Stop();
    if (loop.joinable()) loop.join();
    server.reset();
  }
};

/// Confines this process, and the threads it starts later, to one CPU.
/// Every request passes from the client to the server's loop thread, a
/// dispatch thread and back; on one CPU each handoff is a context switch
/// to a runnable thread, and the CPU never idles while the loop runs. Spread
/// over CPUs, each handoff wakes an idle vCPU, which the host delayed by
/// milliseconds in its contention phases (README).
void PinToOneCpu(Report* report) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    report->Fail("sched_getaffinity failed");
    return;
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    report->Fail("sched_setaffinity failed");
  }
}

/// The loop thread, one dispatch thread (kPipeline requests in flight need
/// no more) and the client thread, on one CPU.
std::unique_ptr<Wire> Start(const Dataset& data, Report* report) {
  auto wire = std::make_unique<Wire>();
  wire->node = BuildSingleNode(data, skycube::ResultCacheOptions().capacity);
  net::NetServerOptions options;
  options.dispatch_threads = 1;
  wire->server =
      std::make_unique<net::NetServer>(wire->node.service.get(), options);
  const skycube::Status started = wire->server->Start();
  if (!started.ok()) {
    report->Fail("NetServer::Start: " + started.message());
    return nullptr;
  }
  net::NetServer* server = wire->server.get();
  wire->loop = std::thread([server] { server->Run(); });
  const skycube::Status connected =
      wire->client.Connect("127.0.0.1", wire->server->port());
  if (!connected.ok()) {
    report->Fail("NetClient::Connect: " + connected.message());
    return nullptr;
  }
  return wire;
}

net::WireRequest ToWire(const Op& op, uint64_t id) {
  net::WireRequest request;
  request.op = net::OpcodeForKind(op.kind);
  request.id = id;
  request.subspace = op.subspace;
  request.object = op.object;
  return request;
}

/// The closed loop: kPipeline requests in flight; each response must match
/// the oldest outstanding request. With `tracer`, each request's round
/// trip is a net.rtt span.
void Loop(Wire* wire, const std::vector<Op>& ops, const ReadOracle& oracle,
          Tracer* tracer, EndToEnd* e2e, Report* report) {
  e2e->read_us.Reserve(ops.size());
  std::vector<int64_t> sent_at(kPipeline);
  size_t sent = 0;
  size_t received = 0;
  e2e->loop = LoopTimer(ops.size());
  while (received < ops.size()) {
    while (sent < ops.size() && sent - received < kPipeline) {
      sent_at[sent % kPipeline] = NowNs();
      if (!wire->client.SendRequest(ToWire(ops[sent], sent)).ok()) {
        report->Fail("send failed");
        return;
      }
      ++sent;
    }
    net::WireResponse response;
    std::string error;
    const auto got = wire->client.ReadResponse(
        &response, skycube::Deadline::AfterMillis(kReadTimeoutMillis),
        &error);
    const int64_t now = NowNs();
    if (got != net::NetClient::Got::kFrame) {
      report->Fail("read failed: " + error);
      return;
    }
    const int64_t start = sent_at[received % kPipeline];
    e2e->read_us.Add(static_cast<double>(now - start) / 1e3);
    if (tracer != nullptr) tracer->Record(kSpanNetRtt, received, start, now);
    report->ops.Record(response.id == received &&
                       oracle.Check(ops[received],
                                    net::ToQueryResponse(response)));
    e2e->loop.Done(received);
    ++received;
  }
}

/// net.* and service.* layers of the traced loop. The in-process half is
/// replayed after the loop against a shadow service with the same cube and
/// cache size: fed the same requests in the same order, it hits and misses
/// exactly where the served one did, without slowing the loop.
void ShadowAndReport(const std::vector<Op>& ops, Wire* wire,
                     const net::NetServerStats& before,
                     const net::NetServerStats& after, Tracer* tracer,
                     Report* report) {
  skycube::SkycubeServiceOptions shadow_options;
  shadow_options.batch_threads = 1;
  skycube::SkycubeService shadow(wire->node.service->snapshot(),
                                 shadow_options);
  uint64_t sink = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const QueryRequest request = ToRequest(ops[i]);
    const int64_t t0 = NowNs();
    const QueryResponse response = shadow.Execute(request);
    const int64_t t1 = NowNs();
    tracer->Record(response.cache_hit ? kSpanServiceHit : kSpanServiceExecute,
                   i, t0, t1);
    const net::WireRequest wire_request = ToWire(ops[i], i);
    const int64_t c0 = NowNs();
    const std::string request_frame = net::EncodeRequest(wire_request);
    const auto parsed_request = net::ParseRequest(
        std::string_view(request_frame).substr(net::kFrameHeaderBytes));
    const std::string response_frame = net::EncodeResponse(
        net::FromQueryResponse(wire_request, response));
    const auto parsed_response = net::ParseResponse(
        std::string_view(response_frame).substr(net::kFrameHeaderBytes));
    tracer->Record(kSpanNetCodec, i, c0, NowNs());
    sink += parsed_request.ok() + parsed_response.ok();
  }
  if (sink != 2 * ops.size()) report->Fail("shadow codec failed to parse");

  Samples rtt, self, hit, codec;
  tracer->ForEachRequest([&](uint64_t, const std::vector<double>& us) {
    if (us[kSpanNetRtt] < 0) return;
    rtt.Add(us[kSpanNetRtt]);
    const double execute = us[kSpanServiceHit] >= 0 ? us[kSpanServiceHit]
                                                    : us[kSpanServiceExecute];
    self.Add(us[kSpanNetRtt] - execute);
    if (us[kSpanServiceHit] >= 0) hit.Add(us[kSpanServiceHit]);
    codec.Add(us[kSpanNetCodec]);
  });
  report->Add("net.rtt_us", rtt.P50(), "us");
  report->Add("net.self_us", self.P50(), "us");
  report->Add("net.codec_us", codec.P50(), "us");
  if (!hit.empty()) report->Add("service.hit_us", hit.P50(), "us");
  const double n = static_cast<double>(ops.size());
  report->Add("net.bytes_per_op",
              static_cast<double>((after.bytes_in - before.bytes_in) +
                                  (after.bytes_out - before.bytes_out)) /
                  n,
              "B");
  report->Add("net.read_pauses",
              static_cast<double>(after.read_pauses - before.read_pauses),
              "count");
  report->Add("net.dispatch_shed",
              static_cast<double>(after.dispatch_shed - before.dispatch_shed),
              "count");
  report->Add("net.protocol_errors",
              static_cast<double>(after.protocol_errors -
                                  before.protocol_errors),
              "count");
  if (after.read_pauses != before.read_pauses ||
      after.dispatch_shed != before.dispatch_shed ||
      after.protocol_errors != before.protocol_errors) {
    report->Fail("read pauses, shed requests or protocol errors on the wire");
  }
}

}  // namespace

void RunWireWorkload(const Options& options, Report* report) {
  PinToOneCpu(report);
  const Dataset data = MakeData(kRows, kDims);
  EndToEnd e2e;
  std::unique_ptr<Wire> wire;
  e2e.setup_s = MedianSetupSeconds(
      options.trace ? 1 : kSetupReps, [&] { wire.reset(); },
      [&] { wire = Start(data, report); });
  if (wire == nullptr) return;
  e2e.cube_bytes_per_row = wire->node.cube_bytes_per_row;
  // Expected answers: the in-process answers of the served cube.
  const ReadOracle oracle(*wire->node.service->snapshot());
  const std::vector<Op> ops =
      ReadOps(OpCount(options.seconds, kOpsPerSecond), kDims, kRows,
              /*with_q3=*/false, options.seed + 1, oracle);
  report->Note("wire: %zu x %d rows, %zu ops, %zu in flight", kRows, kDims,
               ops.size(), kPipeline);
  Loop(wire.get(), ops, oracle, nullptr, &e2e, report);
  if (!options.trace) {
    ReportEndToEnd(e2e, report);
    return;
  }

  // Traced run: a fresh stack (a cold cache again), the same ops.
  wire.reset();
  wire = Start(data, report);
  if (wire == nullptr) return;
  Tracer tracer(SpanNames(), ops.size() * 3);
  const net::NetServerStats before = wire->server->stats();
  EndToEnd traced;
  Loop(wire.get(), ops, oracle, &tracer, &traced, report);
  const net::NetServerStats after = wire->server->stats();
  ReportCacheLayers(wire->node.service->stats(), report);
  ShadowAndReport(ops, wire.get(), before, after, &tracer, report);
  ReportOverhead(e2e, traced, report);
  WriteSpans(tracer, options, report);
}

}  // namespace perfbench
