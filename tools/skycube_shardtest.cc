// skycube_shardtest — end-to-end harness for the sharded serving tier
// (docs/SHARDING.md). Forks three real skycube_serve shard processes (each
// owning its consistent-hash partition, with durable ingest under
// --work-dir/shard-K) and one skycube_router in front, then drives the
// binary protocol against the router:
//
//   round 1  oracle: every subspace skyline, cardinality, membership and
//            Q3 answer through the router is byte-identical to a
//            single-node service over the same rows;
//   round 2  inserts: rows inserted through the router land on their owner
//            shard and every subsequent merged answer matches the
//            single-node oracle including the new rows;
//   round 3  degradation: SIGKILL one shard mid-load. Every answer that
//            still claims to be complete (partial flag clear) must match
//            the full oracle; every partial-flagged answer must match the
//            oracle over the surviving shards' rows; errors are tolerated
//            only while the router is discovering the death — never a
//            wrong answer, flagged or not;
//   round 4  recovery: the shard is respawned on its old port and recovers
//            its partition (checkpoint + WAL, inserts included); the
//            router's probe revives it and answers go back to full,
//            unflagged, oracle-identical.
//
// With --replication the harness instead runs the failover scenario
// (docs/REPLICATION.md): every shard gets a primary plus a --replica-of
// hot standby, the router is given `primary+replica` endpoint sets, and
// the chaos round SIGKILLs a primary mid-pipelined-burst. After failover
// every answer must be complete (partial flag clear) and byte-identical
// to the full oracle — the acked insert prefix survives the kill. The
// promoted replica must report role=primary, accept fenced mutations, and
// the respawned old primary must rejoin as its replica and converge to an
// identical skyline.
//
// Usage (registered as a ctest test):
//   skycube_shardtest --serve=PATH --router=PATH --work-dir=DIR
//                     [--tuples=N] [--dims=D] [--seed=S] [--replication]
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/consistent_hash.h"
#include "common/deadline.h"
#include "common/flags.h"
#include "common/subspace.h"
#include "core/maintenance.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "net/client.h"
#include "net/protocol.h"
#include "service/ingest.h"
#include "service/service.h"
#include "tools/process_harness.h"
#include "tools/server_common.h"

namespace skycube {
namespace {

using harness::Child;
using harness::WireCall;

constexpr size_t kNumShards = 3;

net::WireRequest SkylineRequest(DimMask subspace, uint64_t id) {
  net::WireRequest request;
  request.op = net::Opcode::kSkyline;
  request.id = id;
  request.subspace = subspace;
  return request;
}

/// Spawns a server tool and scrapes its port into *child.
bool SpawnServer(const std::string& binary,
                 const std::vector<std::string>& args, Child* child) {
  Result<Child> spawned =
      harness::Spawn(binary, args, harness::Io::kListenLine);
  HARNESS_CHECK(spawned.ok(), "%s", spawned.status().ToString().c_str());
  *child = spawned.value();
  return true;
}

/// The single-node oracle: the same rows through the same service stack,
/// one process, no sharding. Answers are the ground truth the router's
/// merged answers must reproduce bit-for-bit.
struct Oracle {
  explicit Oracle(Dataset data)
      : rows(CopyRows(data)),
        maintainer(std::make_unique<IncrementalCubeMaintainer>(
            std::move(data))),
        handler(std::make_unique<MaintainerInsertHandler>(maintainer.get())),
        service(std::make_unique<SkycubeService>(
            std::make_shared<const CompressedSkylineCube>(
                maintainer->MakeCube()))) {
    service->AttachInsertHandler(handler.get());
  }

  static std::vector<std::vector<double>> CopyRows(const Dataset& data) {
    std::vector<std::vector<double>> rows;
    rows.reserve(data.num_objects());
    for (ObjectId id = 0; id < data.num_objects(); ++id) {
      rows.emplace_back(data.Row(id), data.Row(id) + data.num_dims());
    }
    return rows;
  }

  std::vector<ObjectId> Skyline(DimMask subspace) const {
    const QueryResponse response =
        service->Execute(QueryRequest::SubspaceSkyline(subspace));
    return response.ok && response.ids ? *response.ids
                                       : std::vector<ObjectId>{};
  }

  bool Insert(const std::vector<double>& values) {
    rows.push_back(values);
    return service->Execute(QueryRequest::Insert(values)).ok;
  }

  std::vector<std::vector<double>> rows;  // global id -> values
  std::unique_ptr<IncrementalCubeMaintainer> maintainer;
  std::unique_ptr<MaintainerInsertHandler> handler;
  std::unique_ptr<SkycubeService> service;
};

/// a strictly dominates b on `subspace` (<= everywhere, < somewhere).
bool StrictlyDominates(const std::vector<double>& a,
                       const std::vector<double>& b, DimMask subspace) {
  bool strict = false;
  for (int d = 0; d < static_cast<int>(a.size()); ++d) {
    if ((subspace & DimBit(d)) == 0) continue;
    if (a[d] > b[d]) return false;
    if (a[d] < b[d]) strict = true;
  }
  return strict;
}

/// The survivor oracle: skyline over the rows NOT owned by `dead_shard` —
/// what a partial-flagged answer must equal. Brute force (the population
/// is small); ids are global.
std::vector<ObjectId> SurvivorSkyline(const Oracle& oracle,
                                      const HashRing& ring,
                                      size_t dead_shard, DimMask subspace) {
  std::vector<ObjectId> survivors;
  for (ObjectId gid = 0; gid < oracle.rows.size(); ++gid) {
    if (ring.OwnerOf(gid) != dead_shard) survivors.push_back(gid);
  }
  std::vector<ObjectId> skyline;
  for (ObjectId candidate : survivors) {
    bool dominated = false;
    for (ObjectId other : survivors) {
      if (other != candidate &&
          StrictlyDominates(oracle.rows[other], oracle.rows[candidate],
                            subspace)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(candidate);
  }
  return skyline;
}

std::string IdListPreview(const std::vector<ObjectId>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size() && i < 12; ++i) {
    out += (i == 0 ? "" : " ") + std::to_string(ids[i]);
  }
  if (ids.size() > 12) out += " ...";
  return out;
}

bool RunOracleRound(uint16_t router_port, const Oracle& oracle, int dims,
                    const char* label) {
  net::NetClient client;
  HARNESS_CHECK(client.Connect("127.0.0.1", router_port).ok(),
                "%s: router connect failed", label);
  const DimMask full = FullMask(dims);
  uint64_t id = 0;
  for (DimMask mask = 1; mask <= full; ++mask) {
    net::WireResponse response;
    HARNESS_CHECK(WireCall(&client, SkylineRequest(mask, id++), &response),
                  "%s: skyline transport failed", label);
    HARNESS_CHECK(response.status == StatusCode::kOk, "%s: skyline err: %s",
                  label, response.text.c_str());
    HARNESS_CHECK(!response.partial, "%s: unexpected partial flag", label);
    const std::vector<ObjectId> expected = oracle.Skyline(mask);
    HARNESS_CHECK(response.ids == expected,
                  "%s: skyline mismatch on mask %llu: got [%s] want [%s]",
                  label, static_cast<unsigned long long>(mask),
                  IdListPreview(response.ids).c_str(),
                  IdListPreview(expected).c_str());
  }
  // Q2 membership and the Q3 aggregates against the oracle service.
  for (ObjectId object = 0; object < 24; ++object) {
    net::WireRequest request;
    request.op = net::Opcode::kMembership;
    request.id = id++;
    request.subspace = full;
    request.object = object;
    net::WireResponse response;
    HARNESS_CHECK(WireCall(&client, request, &response),
                  "%s: membership transport failed", label);
    HARNESS_CHECK(response.status == StatusCode::kOk, "%s: membership err: %s",
                  label, response.text.c_str());
    const QueryResponse expected =
        oracle.service->Execute(QueryRequest::Membership(object, full));
    HARNESS_CHECK(response.member == expected.member,
                  "%s: membership mismatch for object %u", label,
                  static_cast<unsigned>(object));
  }
  for (ObjectId object = 0; object < 6; ++object) {
    net::WireRequest request;
    request.op = net::Opcode::kMembershipCount;
    request.id = id++;
    request.object = object;
    net::WireResponse response;
    HARNESS_CHECK(WireCall(&client, request, &response),
                  "%s: count transport failed", label);
    HARNESS_CHECK(response.status == StatusCode::kOk, "%s: count err: %s",
                  label, response.text.c_str());
    const QueryResponse expected =
        oracle.service->Execute(QueryRequest::MembershipCount(object));
    HARNESS_CHECK(response.count == expected.count,
                  "%s: membership count mismatch for object %u (%llu != %llu)",
                  label, static_cast<unsigned>(object),
                  static_cast<unsigned long long>(response.count),
                  static_cast<unsigned long long>(expected.count));
  }
  {
    net::WireRequest request;
    request.op = net::Opcode::kSkycubeSize;
    request.id = id++;
    net::WireResponse response;
    HARNESS_CHECK(WireCall(&client, request, &response),
                  "%s: skycube-size transport failed", label);
    HARNESS_CHECK(response.status == StatusCode::kOk, "%s: size err: %s",
                  label, response.text.c_str());
    const QueryResponse expected =
        oracle.service->Execute(QueryRequest::SkycubeSize());
    HARNESS_CHECK(response.count == expected.count,
                  "%s: skycube size mismatch (%llu != %llu)", label,
                  static_cast<unsigned long long>(response.count),
                  static_cast<unsigned long long>(expected.count));
  }
  return true;
}

bool RunInsertRound(uint16_t router_port, Oracle* oracle, int dims) {
  net::NetClient client;
  HARNESS_CHECK(client.Connect("127.0.0.1", router_port).ok(),
                "insert: router connect failed");
  constexpr int kInserts = 24;
  for (int i = 0; i < kInserts; ++i) {
    net::WireRequest request;
    request.op = net::Opcode::kInsert;
    request.id = static_cast<uint64_t>(i);
    for (int d = 0; d < dims; ++d) {
      request.values.push_back(0.31 + 0.017 * i + 0.003 * d);
    }
    net::WireResponse response;
    HARNESS_CHECK(WireCall(&client, request, &response),
                  "insert: transport failed at %d", i);
    HARNESS_CHECK(response.status == StatusCode::kOk, "insert %d failed: %s",
                  i, response.text.c_str());
    HARNESS_CHECK(oracle->Insert(request.values),
                  "insert: oracle rejected row %d", i);
  }
  return true;
}

/// Sends a pipelined burst of skyline queries through the router and
/// SIGKILLs `victim`, the server of shard `victim_shard`, while it is in
/// flight. Every answer that comes back is (a) complete and equal to the
/// full oracle, (b) partial-flagged and equal to the survivor oracle, or
/// (c) an error or a lost stream while the router discovers the death.
/// Never a wrong answer.
bool KillMidBurst(const char* label, uint16_t router_port, Child* victim,
                  size_t victim_shard, const Oracle& oracle,
                  const HashRing& ring, int dims) {
  const DimMask full = FullMask(dims);
  net::NetClient loaded;
  HARNESS_CHECK(loaded.Connect("127.0.0.1", router_port).ok(),
                "%s: router connect failed", label);
  constexpr uint64_t kBurst = 32;
  std::string burst;
  for (uint64_t i = 0; i < kBurst; ++i) {
    burst += EncodeRequest(SkylineRequest(1 + (i % full), i));
  }
  HARNESS_CHECK(loaded.Send(burst).ok(), "%s: burst send failed", label);
  HARNESS_CHECK(harness::Stop(victim, SIGKILL) == -SIGKILL,
                "%s: kill failed", label);

  uint64_t complete = 0;
  uint64_t partial = 0;
  uint64_t errors = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    net::WireResponse response;
    std::string error;
    const net::NetClient::Got got = loaded.ReadResponse(
        &response, Deadline::AfterMillis(harness::kWireTimeoutMillis),
        &error);
    if (got != net::NetClient::Got::kFrame) break;  // stream loss: tolerated
    const DimMask mask = 1 + (response.id % full);
    if (response.status != StatusCode::kOk) {
      ++errors;
      continue;
    }
    if (response.partial) {
      ++partial;
      HARNESS_CHECK(
          response.ids == SurvivorSkyline(oracle, ring, victim_shard, mask),
          "%s: WRONG partial answer on mask %llu", label,
          static_cast<unsigned long long>(mask));
    } else {
      ++complete;
      HARNESS_CHECK(response.ids == oracle.Skyline(mask),
                    "%s: WRONG complete answer on mask %llu after kill",
                    label, static_cast<unsigned long long>(mask));
    }
  }
  std::fprintf(stderr,
               "%s: burst answers complete=%llu partial=%llu errors=%llu\n",
               label, static_cast<unsigned long long>(complete),
               static_cast<unsigned long long>(partial),
               static_cast<unsigned long long>(errors));
  return true;
}

bool RunDegradationRound(uint16_t router_port, Child* victim,
                         size_t victim_shard, const Oracle& oracle,
                         const HashRing& ring, int dims) {
  if (!KillMidBurst("degrade", router_port, victim, victim_shard, oracle,
                    ring, dims)) {
    return false;
  }
  const DimMask full = FullMask(dims);

  // Steady state: within the probe window the router must serve
  // partial-flagged, survivor-correct answers (fresh connection per try —
  // the loaded one may have died with the wave).
  const Deadline settle = Deadline::AfterMillis(20000);
  bool settled = false;
  while (!settle.expired() && !settled) {
    usleep(50 * 1000);
    net::NetClient client;
    if (!client.Connect("127.0.0.1", router_port).ok()) break;
    net::WireResponse response;
    if (!WireCall(&client, SkylineRequest(full, 9000), &response)) continue;
    if (response.status != StatusCode::kOk) continue;
    HARNESS_CHECK(response.partial,
                  "degrade: complete-claiming answer with a shard dead");
    const std::vector<ObjectId> expected =
        SurvivorSkyline(oracle, ring, victim_shard, full);
    HARNESS_CHECK(response.ids == expected,
                  "degrade: steady-state partial answer wrong: got [%s] want "
                  "[%s]",
                  IdListPreview(response.ids).c_str(),
                  IdListPreview(expected).c_str());
    settled = true;
  }
  HARNESS_CHECK(settled, "degrade: router never settled into partial serving");

  // Membership for a victim-owned object still answers (the router holds
  // the row values): member iff no surviving row strictly dominates it.
  ObjectId victim_object = 0;
  while (victim_object < oracle.rows.size() &&
         ring.OwnerOf(victim_object) != victim_shard) {
    ++victim_object;
  }
  HARNESS_CHECK(victim_object < oracle.rows.size(),
                "degrade: no victim-owned row found");
  bool expected_member = true;
  for (ObjectId gid = 0; gid < oracle.rows.size(); ++gid) {
    if (gid != victim_object && ring.OwnerOf(gid) != victim_shard &&
        StrictlyDominates(oracle.rows[gid], oracle.rows[victim_object],
                          full)) {
      expected_member = false;
      break;
    }
  }
  {
    net::NetClient client;
    HARNESS_CHECK(client.Connect("127.0.0.1", router_port).ok(),
                  "degrade: reconnect failed");
    net::WireRequest request;
    request.op = net::Opcode::kMembership;
    request.id = 9001;
    request.subspace = full;
    request.object = victim_object;
    net::WireResponse response;
    HARNESS_CHECK(WireCall(&client, request, &response),
                  "degrade: membership transport failed");
    HARNESS_CHECK(response.status == StatusCode::kOk,
                  "degrade: membership err: %s", response.text.c_str());
    HARNESS_CHECK(response.partial, "degrade: membership not partial-flagged");
    HARNESS_CHECK(response.member == expected_member,
                  "degrade: membership wrong for victim-owned object %u",
                  static_cast<unsigned>(victim_object));
  }
  return true;
}

bool RunRecoveryRound(uint16_t router_port, const std::string& serve,
                      const std::vector<std::string>& victim_args,
                      Child* victim, const Oracle& oracle, int dims) {
  if (!SpawnServer(serve, victim_args, victim)) return false;
  const DimMask full = FullMask(dims);
  const std::vector<ObjectId> expected = oracle.Skyline(full);
  const Deadline settle = Deadline::AfterMillis(60000);
  while (!settle.expired()) {
    usleep(100 * 1000);
    net::NetClient client;
    if (!client.Connect("127.0.0.1", router_port).ok()) continue;
    net::WireResponse response;
    if (!WireCall(&client, SkylineRequest(full, 9100), &response)) continue;
    if (response.status != StatusCode::kOk || response.partial) continue;
    HARNESS_CHECK(response.ids == expected,
                  "recover: full answer wrong after shard respawn");
    return RunOracleRound(router_port, oracle, dims, "recover");
  }
  HARNESS_CHECK(false, "recover: router never returned to full answers");
  return false;
}

/// Full-space skyline asked of one server directly (not through the
/// router) — the convergence comparison between a promoted primary and a
/// rejoined replica.
bool DirectSkyline(uint16_t port, DimMask subspace,
                   std::vector<ObjectId>* ids) {
  net::NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  net::WireResponse response;
  if (!WireCall(&client, SkylineRequest(subspace, 1), &response)) {
    return false;
  }
  if (response.status != StatusCode::kOk) return false;
  *ids = response.ids;
  return true;
}

/// Blocks until `replica_port`'s applied LSN reaches `primary_port`'s tip.
/// The semi-sync fence usually guarantees this already; waiting makes the
/// acked-prefix assertion deterministic even if a fence degraded.
bool WaitCaughtUp(uint16_t primary_port, uint16_t replica_port,
                  int64_t timeout_millis) {
  const Deadline deadline = Deadline::AfterMillis(timeout_millis);
  while (!deadline.expired()) {
    uint64_t primary_lsn = 0;
    uint64_t replica_lsn = 0;
    if (harness::ReplState(primary_port, &primary_lsn, nullptr) &&
        harness::ReplState(replica_port, &replica_lsn, nullptr) &&
        replica_lsn >= primary_lsn) {
      return true;
    }
    usleep(50 * 1000);
  }
  return false;
}

/// The replication chaos round: SIGKILL the victim shard's primary while a
/// pipelined burst is in flight, then require the router to fail over to
/// the replica and return to complete, unflagged, full-oracle answers —
/// every insert acked before the kill included. During the discovery
/// window errors and survivor-correct partials are tolerated (and
/// counted); a wrong answer never is.
bool RunReplicationChaosRound(uint16_t router_port, Child* victim_primary,
                              uint16_t victim_replica_port,
                              size_t victim_shard, const Oracle& oracle,
                              const HashRing& ring, int dims) {
  if (!KillMidBurst("chaos", router_port, victim_primary, victim_shard,
                    oracle, ring, dims)) {
    return false;
  }
  const DimMask full = FullMask(dims);

  // Failover settle: a fresh connection must get a complete, unflagged,
  // oracle-identical answer once the router promotes the replica.
  const Deadline settle = Deadline::AfterMillis(45000);
  bool settled = false;
  while (!settle.expired() && !settled) {
    usleep(50 * 1000);
    net::NetClient client;
    if (!client.Connect("127.0.0.1", router_port).ok()) break;
    net::WireResponse response;
    if (!WireCall(&client, SkylineRequest(full, 9000), &response)) continue;
    if (response.status != StatusCode::kOk || response.partial) continue;
    HARNESS_CHECK(response.ids == oracle.Skyline(full),
                  "chaos: post-failover answer wrong: got [%s] want [%s]",
                  IdListPreview(response.ids).c_str(),
                  IdListPreview(oracle.Skyline(full)).c_str());
    settled = true;
  }
  HARNESS_CHECK(settled, "chaos: router never failed over to the replica");

  // The replica must actually have been promoted, not merely read from.
  std::string role;
  uint64_t promoted_lsn = 0;
  HARNESS_CHECK(harness::ReplState(victim_replica_port, &promoted_lsn, &role),
                "chaos: promoted replica unreachable");
  HARNESS_CHECK(role == "primary",
                "chaos: victim replica reports role=%s after failover",
                role.c_str());

  // Every answer kind, full oracle, zero partials — the acked prefix is
  // complete on the promoted replica.
  return RunOracleRound(router_port, oracle, dims, "post-failover");
}

/// Respawns the killed primary as a replica of the promoted one and waits
/// for convergence: role=replica, applied LSN at the new primary's tip,
/// and a byte-identical full-space skyline asked of each directly.
bool RunRejoinRound(const std::string& serve,
                    const std::vector<std::string>& rejoin_args,
                    Child* old_primary, uint16_t new_primary_port,
                    int dims) {
  if (!SpawnServer(serve, rejoin_args, old_primary)) return false;
  const Deadline deadline = Deadline::AfterMillis(60000);
  bool converged = false;
  while (!deadline.expired() && !converged) {
    usleep(100 * 1000);
    uint64_t primary_lsn = 0;
    uint64_t replica_lsn = 0;
    std::string role;
    if (!harness::ReplState(new_primary_port, &primary_lsn, nullptr)) continue;
    if (!harness::ReplState(old_primary->port, &replica_lsn, &role)) continue;
    converged = role == "replica" && replica_lsn >= primary_lsn;
  }
  HARNESS_CHECK(converged, "rejoin: old primary never converged as replica");
  const DimMask full = FullMask(dims);
  std::vector<ObjectId> promoted_ids;
  std::vector<ObjectId> rejoined_ids;
  HARNESS_CHECK(DirectSkyline(new_primary_port, full, &promoted_ids),
                "rejoin: promoted primary skyline failed");
  HARNESS_CHECK(DirectSkyline(old_primary->port, full, &rejoined_ids),
                "rejoin: rejoined replica skyline failed");
  HARNESS_CHECK(promoted_ids == rejoined_ids,
                "rejoin: rejoined replica diverges: got [%s] want [%s]",
                IdListPreview(rejoined_ids).c_str(),
                IdListPreview(promoted_ids).c_str());
  return true;
}

struct Config {
  std::string serve;
  std::string router;
  std::string work_dir;
  /// The one dataset: the shards filter it by ring ownership, the router
  /// and the oracle load it whole.
  SyntheticSpec source;
};

std::string Endpoint(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

std::string ShardDir(const Config& config, size_t shard) {
  return config.work_dir + "/shard-" + std::to_string(shard);
}

/// kNumShards shard servers behind one router. With --replication each
/// shard is a primary plus a --replica-of hot standby, and the router gets
/// `primary+replica` endpoint sets.
struct Cluster {
  std::vector<Child> primaries;
  std::vector<Child> replicas;  // empty without --replication
  /// Each primary's arguments, for the respawn round.
  std::vector<std::vector<std::string>> primary_args;
  Child router;
};

bool StartCluster(const Config& config, bool replicated, Cluster* cluster) {
  cluster->primaries.resize(kNumShards);
  cluster->replicas.resize(replicated ? kNumShards : 0);
  cluster->primary_args.resize(kNumShards);
  const std::vector<std::string> source_args = SyntheticFlags(config.source);
  std::string endpoints;
  for (size_t s = 0; s < kNumShards; ++s) {
    std::vector<std::string>& args = cluster->primary_args[s];
    args = source_args;
    args.push_back("--shard-count=" + std::to_string(kNumShards));
    args.push_back("--shard-index=" + std::to_string(s));
    args.push_back("--ring-seed=0");
    args.push_back("--data-dir=" + ShardDir(config, s) +
                   (replicated ? "-primary" : ""));
    args.push_back("--port=0");
    Child& primary = cluster->primaries[s];
    if (!SpawnServer(config.serve, args, &primary)) return false;
    endpoints += (s == 0 ? "" : ",") + Endpoint(primary.port);
    if (!replicated) {
      std::fprintf(stderr, "shard %zu pid %d port %u\n", s,
                   static_cast<int>(primary.pid),
                   static_cast<unsigned>(primary.port));
      continue;
    }
    // The replica's whole state comes from the primary's snapshot + WAL;
    // it takes no dataset or shard-filter flags.
    Child& replica = cluster->replicas[s];
    if (!SpawnServer(config.serve,
                     {"--data-dir=" + ShardDir(config, s) + "-replica",
                      "--replica-of=" + Endpoint(primary.port), "--port=0"},
                     &replica)) {
      return false;
    }
    endpoints += "+" + Endpoint(replica.port);
    std::fprintf(stderr,
                 "shard %zu primary pid %d port %u, replica pid %d port %u\n",
                 s, static_cast<int>(primary.pid),
                 static_cast<unsigned>(primary.port),
                 static_cast<int>(replica.pid),
                 static_cast<unsigned>(replica.port));
  }

  std::vector<std::string> router_args = source_args;
  router_args.push_back("--shards=" + endpoints);
  router_args.push_back("--ring-seed=0");
  router_args.push_back("--port=0");
  router_args.push_back("--down-after=2");
  router_args.push_back("--retry-ms=200");
  if (!SpawnServer(config.router, router_args, &cluster->router)) {
    return false;
  }
  std::fprintf(stderr, "router pid %d port %u\n",
               static_cast<int>(cluster->router.pid),
               static_cast<unsigned>(cluster->router.port));
  return true;
}

/// SIGTERMs and reaps the router, then every shard server still running.
void StopCluster(Cluster* cluster) {
  harness::Stop(&cluster->router, SIGTERM);
  for (Child& child : cluster->primaries) harness::Stop(&child, SIGTERM);
  for (Child& child : cluster->replicas) harness::Stop(&child, SIGTERM);
}

/// The degradation scenario: oracle and insert rounds, SIGKILL of one
/// shard mid-burst, and its respawn on the old port.
void RunShardRounds(const Config& config, Cluster* cluster, Oracle* oracle,
                    const HashRing& ring) {
  const uint16_t router_port = cluster->router.port;
  const int dims = config.source.num_dims;
  if (RunOracleRound(router_port, *oracle, dims, "oracle")) {
    std::fprintf(stderr, "PASS oracle round\n");
  }
  if (RunInsertRound(router_port, oracle, dims)) {
    std::fprintf(stderr, "PASS insert round\n");
  }
  if (harness::Failures() == 0 &&
      RunOracleRound(router_port, *oracle, dims, "post-insert")) {
    std::fprintf(stderr, "PASS post-insert oracle round\n");
  }
  constexpr size_t kVictim = 1;
  Child* victim = &cluster->primaries[kVictim];
  if (harness::Failures() == 0 &&
      RunDegradationRound(router_port, victim, kVictim, *oracle, ring,
                          dims)) {
    std::fprintf(stderr, "PASS degradation round\n");
  }
  if (harness::Failures() == 0) {
    // Respawn on the old port so the router's configured endpoint revives.
    std::vector<std::string> respawn_args = cluster->primary_args[kVictim];
    const uint16_t old_port = victim->port;
    respawn_args.back() = "--port=" + std::to_string(old_port);
    if (RunRecoveryRound(router_port, config.serve, respawn_args, victim,
                         *oracle, dims)) {
      std::fprintf(stderr, "PASS recovery round (shard back on port %u)\n",
                   static_cast<unsigned>(old_port));
    }
  }
}

/// The --replication scenario: oracle and insert rounds, the kill-primary
/// chaos round, post-failover fenced mutations, and the rejoin-and-converge
/// round.
void RunReplicationRounds(const Config& config, Cluster* cluster,
                          Oracle* oracle, const HashRing& ring) {
  const uint16_t router_port = cluster->router.port;
  const int dims = config.source.num_dims;
  if (RunOracleRound(router_port, *oracle, dims, "oracle")) {
    std::fprintf(stderr, "PASS oracle round (replicated)\n");
  }
  if (harness::Failures() == 0 &&
      RunInsertRound(router_port, oracle, dims)) {
    std::fprintf(stderr, "PASS insert round (replicated)\n");
  }
  // Make the acked-prefix oracle deterministic: every replica at its
  // primary's tip before the kill.
  for (size_t s = 0; s < kNumShards && harness::Failures() == 0; ++s) {
    if (!WaitCaughtUp(cluster->primaries[s].port, cluster->replicas[s].port,
                      30000)) {
      harness::Fail("shard %zu replica never caught up", s);
    }
  }
  constexpr size_t kVictim = 1;
  const uint16_t promoted_port = cluster->replicas[kVictim].port;
  if (harness::Failures() == 0 &&
      RunReplicationChaosRound(router_port, &cluster->primaries[kVictim],
                               promoted_port, kVictim, *oracle, ring,
                               dims)) {
    std::fprintf(stderr, "PASS replication chaos round\n");
  }
  // Fenced mutations through the promoted primary (its fence degrades to
  // async instantly while it has no follower of its own).
  if (harness::Failures() == 0 &&
      RunInsertRound(router_port, oracle, dims)) {
    std::fprintf(stderr, "PASS post-failover insert round\n");
  }
  if (harness::Failures() == 0 &&
      RunOracleRound(router_port, *oracle, dims, "post-failover-insert")) {
    std::fprintf(stderr, "PASS post-failover oracle round\n");
  }
  if (harness::Failures() == 0) {
    const std::vector<std::string> rejoin_args = {
        "--data-dir=" + ShardDir(config, kVictim) + "-primary",
        "--replica-of=" + Endpoint(promoted_port),
        "--port=0",
    };
    if (RunRejoinRound(config.serve, rejoin_args,
                       &cluster->primaries[kVictim], promoted_port, dims)) {
      std::fprintf(stderr,
                   "PASS rejoin round (old primary converged as replica)\n");
    }
  }
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  Config config;
  config.serve = flags.GetString("serve", "");
  config.router = flags.GetString("router", "");
  config.work_dir = flags.GetString("work-dir", "");
  if (config.serve.empty() || config.router.empty() ||
      config.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: skycube_shardtest --serve=PATH --router=PATH "
                 "--work-dir=DIR\n");
    return 2;
  }
  config.source.num_objects = static_cast<size_t>(flags.GetInt("tuples", 500));
  config.source.num_dims = static_cast<int>(flags.GetInt("dims", 4));
  config.source.seed = static_cast<uint64_t>(flags.GetInt("seed", 29));
  const bool replicated = flags.GetBool("replication", false);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);

  Oracle oracle(GenerateSynthetic(config.source));
  const HashRing ring(kNumShards, /*seed=*/0, /*vnodes=*/64);
  Cluster cluster;
  if (StartCluster(config, replicated, &cluster)) {
    if (replicated) {
      RunReplicationRounds(config, &cluster, &oracle, ring);
    } else {
      RunShardRounds(config, &cluster, &oracle, ring);
    }
  }
  StopCluster(&cluster);
  return harness::Report(replicated ? "skycube_shardtest --replication"
                                    : "skycube_shardtest");
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) { return skycube::Main(argc, argv); }
