// skycube_serve — long-lived front end to SkycubeService, in two modes:
//
//  - REPL (default): one query per line on stdin, one answer line on
//    stdout (prefix "ok" or "err"), scriptable from tests and pipelines;
//  - socket (--port / --listen): the src/net/ binary-protocol server —
//    epoll event loop, length-prefixed checksummed frames, pipelined
//    requests, explicit kResourceExhausted overload shedding, and the
//    same health/stats lines served as protocol messages (docs/NET.md).
//
// Both modes are backed by either a saved cube file (read-only) or a CSV /
// synthetic dataset (insert-capable: each insert runs the incremental
// maintainer and hot-swaps the service snapshot).
//
// Data source (exactly one):
//   --cube=FILE        saved cube (skycube_cli compute --out=...)
//   --data=FILE.csv    dataset; cube built with Stellar  [--negate]
//   --synthetic        generated dataset: --dist=independent|correlated|anti
//                      --tuples=N --dims=D [--seed=S] [--truncate=K]
// Shard partition (docs/SHARDING.md) — serve one shard of a dataset source:
//   --shard-count=N      total shards; keep only rows the consistent-hash
//                        ring assigns to this shard (row id = position in
//                        the source, the router's global id)
//   --shard-index=K      this shard's index in [0, N)
//   --ring-seed=S        ring seed (must match the router)    (default 0)
//   --ring-vnodes=V      virtual nodes per shard              (default 64)
// Durability (docs/ROBUSTNESS.md, "Durability & recovery"):
//   --data-dir=DIR       durable ingest: WAL + checkpoints live in DIR. If
//                        DIR holds state it is recovered (crash-safe);
//                        otherwise --data/--synthetic bootstraps it. Inserts
//                        are acknowledged only after the WAL append.
//   --fsync-policy=P     always | every | timer                (default always)
//   --fsync-every=N      records between syncs under 'every'   (default 64)
//   --fsync-interval-ms=N under 'timer', an append syncs once N ms passed
//                        since the last sync; a quiet log's tail stays
//                        unsynced until the next append, segment
//                        rotation, checkpoint or drain         (default 5)
//   --checkpoint-every=N inserts between checkpoints, 0 = off  (default 256)
//   --keep-checkpoints=N retention depth                       (default 2)
// Replication (docs/REPLICATION.md) — socket + --data-dir mode only:
//   --replica-of=H:P     run as a hot standby of the primary at H:P: wipe
//                        the data dir, bootstrap from the primary's newest
//                        checkpoint (kReplSnapshot), then tail its WAL
//                        (kReplFetch), applying byte-verbatim. Mutations
//                        answer kInvalidArgument until a kReplPromote
//                        arrives (usually from the router's failover path),
//                        which stops the tail and opens the write path.
//   --repl-fence-ms=N    primary ack fence: hold each mutation ack until a
//                        live follower acked its LSN, at most N ms, then
//                        degrade that mutation to async (0 = always async)
//                        (default 1000)
// Every durable socket server answers the replication opcodes, so any
// --data-dir server can be a primary; replicas serve reads while tailing.
// Sliding window (docs/ROBUSTNESS.md, "Deletes, windows, and epoch-diff"):
//   --window-ms=N        retention window: rows whose ingest timestamp is
//                        older than now-N are expired by a background pass
//                        (0 = no window, the default)
//   --expiry-interval-ms=N  period between expiry passes   (default 1000)
// Service knobs:
//   --cache-capacity=N   result-cache entries, 0 disables   (default 65536)
//   --cache-shards=N     LRU shards                         (default 8)
//   --threads=N          batch-pool workers, 0 = hardware   (default 0)
//   --max-in-flight=N    admission-control slots, 0 = off   (default 0)
//   --queue-wait-ms=N    shed after waiting N ms for a slot (default 0)
//   --deadline-ms=N      per-request deadline, 0 = none     (default 0)
// Socket mode (binary wire protocol, docs/NET.md) — either flag selects it:
//   --port=N             listen on 127.0.0.1:N; 0 binds an ephemeral port.
//                        The final address is printed to stderr as
//                        "listening on HOST:PORT" (tests scrape this line)
//   --listen=HOST        bind address                    (default 127.0.0.1)
//   --net-threads=N      dispatch workers, 0 = hardware     (default 0)
//   --net-queue=N        bounded dispatch queue; overflow answers
//                        kResourceExhausted frames          (default 4096)
//   --max-pipeline=N     unanswered requests per connection before the
//                        server stops reading that socket   (default 1024)
//   --max-connections=N  open-connection cap, 0 = none      (default 0)
//
// Protocol (case-insensitive command word; subspaces as letters, "ACD"):
//   skyline SUBSPACE      Q1  -> ok n=3 v=1 hit=0 ids=0 4 17
//   card SUBSPACE         Q1  -> ok count=3 v=1 hit=1
//   member ID SUBSPACE    Q2  -> ok member=yes v=1 hit=0
//   count ID              Q3  -> ok count=17 v=1 hit=0
//   total                 Q3  -> ok count=40310 v=1 hit=0
//   batch Q; Q; ...       fan-out over the pool; answers joined with " ; "
//   diff SUBSPACE SINCE   epoch diff: skyline rows entered/left since
//                         snapshot version SINCE -> ok entered=2 left=1 ...
//   insert V1,V2,...      add a row (not with --cube) and swap the snapshot;
//                         with --data-dir the ack carries the WAL lsn
//   delete ID             tombstone a row (idempotent; not with --cube);
//                         the ack reports the maintenance path taken
//   expire CUTOFF_MS      run one synchronous expiry pass: tombstone every
//                         live row with 0 < timestamp < CUTOFF_MS
//   health                readiness + durability/recovery counters
//   stats                 one-line service counters
//   help | quit
//
// SIGTERM/SIGINT drain gracefully: new requests answer kUnavailable, the
// WAL is flushed and a final checkpoint written before exit (same path as
// 'quit'). SIGKILL is the crash case tools/skycube_crashtest.cc exercises.
//
// SKYCUBE_ARM_FAULTS=point[=count][,point...] arms fault-injection points
// at startup (builds with SKYCUBE_FAULT_INJECTION only) — the crash test
// uses this to detonate wal.append_torn / checkpoint.crash_before_rename
// inside a child server.
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/consistent_hash.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/subspace.h"
#include "core/maintenance.h"
#include "core/serialization.h"
#include "core/stellar.h"
#include "dataset/dataset.h"
#include "net/repl_client.h"
#include "net/server.h"
#include "service/service.h"
#include "service/text_format.h"
#include "service/window_expiry.h"
#include "storage/durable_ingest.h"
#include "storage/replication.h"
#include "tools/server_common.h"

namespace skycube {
namespace {

struct ServeSession {
  std::unique_ptr<SkycubeService> service;
  /// Present when insert-capable without durability (--data / --synthetic).
  std::unique_ptr<IncrementalCubeMaintainer> maintainer;
  std::unique_ptr<MaintainerInsertHandler> volatile_ingest;
  /// Present with --data-dir: WAL + checkpoints + recovery.
  std::unique_ptr<DurableIngest> durable;
  /// Present with --window-ms > 0: the sliding-window expiry timer.
  /// Declared after the layers it drives so it is destroyed first.
  std::unique_ptr<WindowExpiry> expiry;
  /// Replication (docs/REPLICATION.md), durable socket mode only. The
  /// shipper exists on every durable server (any of them can feed a
  /// follower); the replicated handler wraps `durable` on a primary; the
  /// source + follower exist on a replica until promotion. Declared after
  /// `durable` so the follower thread is destroyed before the ingest layer
  /// it applies into.
  std::unique_ptr<WalShipper> shipper;
  std::unique_ptr<ReplicatedInsertHandler> replicated;
  std::unique_ptr<net::RemoteReplicationSource> repl_source;
  std::unique_ptr<WalFollower> follower;
  /// True while this process tails a primary (flips at promotion).
  std::atomic<bool> replica{false};
  /// Serializes the kReplPromote role transition.
  Mutex promote_mu;
  /// --repl-fence-ms, remembered for the handler built at promotion.
  int64_t repl_fence_millis = 0;
  int num_dims = 0;
  /// Per-request time budget (--deadline-ms); 0 = unlimited.
  int64_t deadline_millis = 0;

  QueryRequest WithDeadline(const QueryRequest& request) const {
    return deadline_millis > 0
               ? request.WithDeadline(Deadline::AfterMillis(deadline_millis))
               : request;
  }
};

/// SKYCUBE_ARM_FAULTS=point[=count][,point...] — arm fault points inside a
/// forked server (no test harness can reach this process's registry).
void ArmFaultsFromEnv() {
  const char* spec = std::getenv("SKYCUBE_ARM_FAULTS");
  if (spec == nullptr || !FaultInjection::Enabled()) return;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    int count = 1;
    const size_t eq = item.find('=');
    if (eq != std::string::npos) {
      count = std::atoi(item.c_str() + eq + 1);
    }
    FaultInjection::Instance().ArmFailure(item.substr(0, eq), count);
  }
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Parses "ACD" into a mask, validating against num_dims; nullopt + message
/// on bad input (the server must not die on a typo).
std::optional<DimMask> ParseSubspace(const std::string& letters,
                                     int num_dims, std::string* error) {
  if (letters.empty()) {
    *error = "empty subspace";
    return std::nullopt;
  }
  DimMask mask = 0;
  for (char c : letters) {
    if (c < 'A' || c > 'Z') {
      *error = "subspace must be uppercase letters, e.g. ACD";
      return std::nullopt;
    }
    const int dim = c - 'A';
    if (dim >= num_dims) {
      *error = "dimension '" + std::string(1, c) + "' beyond the cube's " +
               std::to_string(num_dims) + " dimensions";
      return std::nullopt;
    }
    mask |= DimBit(dim);
  }
  return mask;
}

/// Parses one protocol line into a request; nullopt + message on failure.
std::optional<QueryRequest> ParseQuery(const std::string& line, int num_dims,
                                       std::string* error) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  command = Lower(command);
  if (command == "skyline" || command == "card") {
    std::string letters;
    in >> letters;
    const auto mask = ParseSubspace(letters, num_dims, error);
    if (!mask) return std::nullopt;
    return command == "skyline" ? QueryRequest::SubspaceSkyline(*mask)
                                : QueryRequest::SkylineCardinality(*mask);
  }
  if (command == "member") {
    long long id = -1;
    std::string letters;
    in >> id >> letters;
    if (id < 0) {
      *error = "usage: member ID SUBSPACE";
      return std::nullopt;
    }
    const auto mask = ParseSubspace(letters, num_dims, error);
    if (!mask) return std::nullopt;
    return QueryRequest::Membership(static_cast<ObjectId>(id), *mask);
  }
  if (command == "count") {
    long long id = -1;
    in >> id;
    if (id < 0) {
      *error = "usage: count ID";
      return std::nullopt;
    }
    return QueryRequest::MembershipCount(static_cast<ObjectId>(id));
  }
  if (command == "total") return QueryRequest::SkycubeSize();
  if (command == "diff") {
    std::string letters;
    long long since = -1;
    in >> letters >> since;
    if (letters.empty() || since <= 0) {
      *error = "usage: diff SUBSPACE SINCE_VERSION";
      return std::nullopt;
    }
    const auto mask = ParseSubspace(letters, num_dims, error);
    if (!mask) return std::nullopt;
    return QueryRequest::EpochDiff(*mask, static_cast<uint64_t>(since));
  }
  *error = "unknown query '" + command + "' (try: help)";
  return std::nullopt;
}

/// Readiness plus durability/recovery counters — what an orchestrator polls.
/// Wraps the shared FormatHealthLine (REPL and wire answer identically) and
/// appends the DurableIngest counters only this process can see.
std::string FormatHealth(const ServeSession& session) {
  std::ostringstream out;
  out << FormatHealthLine(*session.service)
      << " durable=" << (session.durable ? 1 : 0);
  if (session.maintainer) {
    // Volatile ingest: liveness comes straight from the maintainer.
    out << " live=" << session.maintainer->num_live()
        << " tombstones="
        << (session.maintainer->data().num_objects() -
            session.maintainer->num_live());
  }
  if (session.expiry) {
    const WindowExpiryStats expiry = session.expiry->stats();
    out << " expiry_ticks=" << expiry.ticks
        << " expiry_rows=" << expiry.rows_expired
        << " expiry_cutoff_ms=" << expiry.last_cutoff_ms;
  }
  if (session.durable) {
    const DurableIngestStats stats = session.durable->stats();
    out << " recovered=" << (stats.recovered ? 1 : 0)
        << " objects=" << stats.num_objects << " groups=" << stats.num_groups
        << " live=" << stats.num_live
        << " tombstones=" << stats.num_tombstones
        << " last_expiry_ms=" << stats.last_expiry_ms
        << " next_lsn=" << stats.wal.next_lsn
        << " checkpoint_lsn=" << stats.last_checkpoint_lsn
        << " checkpoints=" << stats.checkpoints_written
        << " wal_records=" << stats.wal.records_appended
        << " wal_fsyncs=" << stats.wal.fsyncs
        << " wal_segments=" << stats.wal.segments_created
        << " wal_live_segments=" << stats.wal.live_segments;
    if (stats.recovered) {
      out << " recovery_checkpoint_lsn=" << stats.recovery.checkpoint_lsn
          << " recovery_rejected=" << stats.recovery.checkpoints_rejected
          << " recovery_replayed=" << stats.recovery.wal_records_replayed
          << " recovery_discarded_suffix="
          << (stats.recovery.wal_suffix_discarded ? 1 : 0);
    }
    out << " role="
        << (session.replica.load(std::memory_order_acquire) ? "replica"
                                                            : "primary");
  }
  if (session.shipper) {
    const WalShipperStats repl = session.shipper->stats();
    out << " repl_tip=" << repl.tip_lsn << " repl_acked=" << repl.acked_lsn
        << " repl_followers=" << repl.followers
        << " repl_shipped=" << repl.records_shipped
        << " repl_fence_timeouts=" << repl.fence_timeouts;
  }
  if (session.follower) {
    const WalFollowerStats tail = session.follower->stats();
    out << " repl_applied=" << tail.applied_lsn
        << " repl_primary_tip=" << tail.tip_lsn
        << " repl_lag="
        << (tail.tip_lsn > tail.applied_lsn
                ? tail.tip_lsn - tail.applied_lsn
                : 0)
        << " repl_running=" << (tail.running ? 1 : 0)
        << " repl_fetch_errors=" << tail.fetch_errors
        << " repl_apply_errors=" << tail.apply_errors;
  }
  return out.str();
}

/// The kReplPromote transition (docs/REPLICATION.md, "Promotion"): stop the
/// tail, verify the fence floor, open the write path with the same ack
/// fencing a bootstrapped primary gets. Idempotent — promoting a primary
/// answers ok without touching anything.
net::WireResponse HandlePromote(ServeSession& session,
                                const net::WireRequest& request) {
  MutexLock lock(&session.promote_mu);
  net::WireResponse response;
  response.id = request.id;
  response.request_op = request.op;
  response.snapshot_version = session.service->snapshot_version();
  if (!session.replica.load(std::memory_order_acquire)) {
    response.lsn = session.durable->stats().wal.next_lsn - 1;
    response.text = "primary";
    return response;
  }
  // Halt the apply loop first: the applied tip is final after this, and
  // the fence check below sees it.
  session.follower->Stop();
  const uint64_t applied = session.durable->stats().wal.next_lsn - 1;
  if (applied < request.ack_lsn) {
    // The router observed a higher LSN on this replica than it actually
    // holds — promoting would lose acked writes. Resume tailing.
    session.follower->Start();
    return net::ErrorWireResponse(
        request, StatusCode::kInvalidArgument,
        "replica applied lsn " + std::to_string(applied) +
            " is behind the promotion fence " +
            std::to_string(request.ack_lsn));
  }
  // No truncation: the fence is a floor (see storage/replication.h). The
  // applied tip is a superset of every client-acked write.
  session.replicated = std::make_unique<ReplicatedInsertHandler>(
      session.durable.get(), session.shipper.get(),
      std::chrono::milliseconds(session.repl_fence_millis));
  session.service->AttachInsertHandler(session.replicated.get());
  session.replica.store(false, std::memory_order_release);
  std::fprintf(stderr, "promoted to primary at lsn %llu (fence %llu)\n",
               static_cast<unsigned long long>(applied),
               static_cast<unsigned long long>(request.ack_lsn));
  std::fflush(stderr);
  response.lsn = applied;
  response.text = "promoted";
  return response;
}

/// Dispatch for the replication opcodes (runs on a dispatch-pool thread,
/// never the event loop — kReplFetch long-polls and kReplSnapshot reads
/// checkpoint files).
net::WireResponse HandleRepl(ServeSession& session,
                             const net::WireRequest& request) {
  net::WireResponse response;
  response.id = request.id;
  response.request_op = request.op;
  response.snapshot_version = session.service->snapshot_version();
  switch (request.op) {
    case net::Opcode::kReplFetch: {
      Result<ShippedBatch> batch = session.shipper->Fetch(
          request.ack_lsn, request.max_records,
          std::chrono::milliseconds(request.wait_millis));
      if (!batch.ok()) {
        return net::ErrorWireResponse(request, batch.status().code(),
                                      batch.status().message());
      }
      response.lsn = batch.value().tip_lsn;
      response.count = batch.value().records.size();
      response.text = EncodeShippedRecords(batch.value().records);
      return response;
    }
    case net::Opcode::kReplSnapshot: {
      Result<ReplicationSnapshot> snapshot = session.shipper->Snapshot();
      if (!snapshot.ok()) {
        return net::ErrorWireResponse(request, snapshot.status().code(),
                                      snapshot.status().message());
      }
      response.lsn = snapshot.value().lsn;
      response.text = std::move(snapshot.value().bytes);
      return response;
    }
    case net::Opcode::kReplState: {
      response.lsn = session.durable->stats().wal.next_lsn - 1;
      response.count = session.shipper->stats().followers;
      response.text = session.replica.load(std::memory_order_acquire)
                          ? "replica"
                          : "primary";
      return response;
    }
    case net::Opcode::kReplPromote:
      return HandlePromote(session, request);
    default:
      return net::ErrorWireResponse(request, StatusCode::kInvalidArgument,
                                    "not a replication opcode");
  }
}

std::string HandleInsert(ServeSession& session, const std::string& args) {
  std::vector<double> values;
  std::istringstream in(args);
  std::string cell;
  while (std::getline(in, cell, ',')) {
    try {
      values.push_back(std::stod(cell));
    } catch (...) {
      return "err bad value '" + cell + "'";
    }
  }
  if (static_cast<int>(values.size()) != session.num_dims) {
    return "err insert needs " + std::to_string(session.num_dims) +
           " comma-separated values";
  }
  // Through the service like any other request: the service serializes
  // writers, applies via the attached handler (durable or volatile), swaps
  // the snapshot, and only then builds the acknowledgement.
  return FormatResponseLine(
      session.service->Execute(QueryRequest::Insert(std::move(values))));
}

std::string HandleDelete(ServeSession& session, const std::string& args) {
  std::istringstream in(args);
  long long id = -1;
  in >> id;
  if (id < 0) return "err usage: delete ID";
  // Like inserts: through the service, which serializes mutations, applies
  // via the attached handler, and swaps the snapshot when anything changed.
  return FormatResponseLine(session.service->Execute(
      QueryRequest::Delete(static_cast<ObjectId>(id))));
}

std::string HandleExpire(ServeSession& session, const std::string& args) {
  std::istringstream in(args);
  long long cutoff = -1;
  in >> cutoff;
  if (cutoff <= 0) return "err usage: expire CUTOFF_MS";
  Result<uint64_t> expired =
      session.service->ApplyExpiry(static_cast<uint64_t>(cutoff));
  if (!expired.ok()) return "err " + expired.status().ToString();
  std::ostringstream out;
  out << "ok expired=" << expired.value()
      << " v=" << session.service->snapshot_version();
  return out.str();
}

std::string HandleBatch(ServeSession& session, const std::string& args) {
  std::vector<QueryRequest> requests;
  std::istringstream in(args);
  std::string part;
  while (std::getline(in, part, ';')) {
    // Trim surrounding spaces.
    const size_t first = part.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    part = part.substr(first, part.find_last_not_of(" \t") - first + 1);
    std::string error;
    const auto request = ParseQuery(part, session.num_dims, &error);
    if (!request) return "err " + error;
    requests.push_back(*request);
  }
  if (requests.empty()) return "err batch needs ';'-separated queries";
  for (QueryRequest& request : requests) {
    request = session.WithDeadline(request);
  }
  const std::vector<QueryResponse> responses =
      session.service->ExecuteBatch(requests);
  std::ostringstream out;
  for (size_t i = 0; i < responses.size(); ++i) {
    out << (i == 0 ? "" : " ; ") << FormatResponseLine(responses[i]);
  }
  return out.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: skycube_serve (--cube=FILE | --data=FILE.csv | "
               "--synthetic | --data-dir=DIR) [flags]\n(see the header of "
               "tools/skycube_serve.cc)\n");
  return 2;
}

/// --shard-count=N --shard-index=K: keeps only the rows the consistent-hash
/// ring assigns to shard K, in ascending global-id (source-position) order —
/// the exact partition the scatter–gather router expects this shard to own
/// (docs/SHARDING.md).
Result<Dataset> FilterShardRows(Dataset data, const FlagParser& flags) {
  const long long shard_count = flags.GetInt("shard-count", 0);
  if (shard_count <= 0) return data;
  const long long shard_index = flags.GetInt("shard-index", -1);
  if (shard_index < 0 || shard_index >= shard_count) {
    return Status::InvalidArgument(
        "--shard-index must be in [0, --shard-count)");
  }
  const HashRing ring(static_cast<size_t>(shard_count),
                      static_cast<uint64_t>(flags.GetInt("ring-seed", 0)),
                      static_cast<int>(flags.GetInt("ring-vnodes", 64)));
  Dataset shard(data.num_dims(), data.dim_names());
  const ObjectId num_rows = static_cast<ObjectId>(data.num_objects());
  for (ObjectId gid = 0; gid < num_rows; ++gid) {
    if (ring.OwnerOf(gid) != static_cast<size_t>(shard_index)) continue;
    const double* row = data.Row(gid);
    shard.AddRow(std::vector<double>(row, row + data.num_dims()));
  }
  std::fprintf(stderr, "shard %lld/%lld owns %zu of %zu rows\n", shard_index,
               shard_count, shard.num_objects(), data.num_objects());
  return shard;
}

/// Loads --data or generates --synthetic (the two dataset-backed sources),
/// then applies the --shard-count/--shard-index partition filter.
Result<Dataset> LoadSourceDataset(const FlagParser& flags) {
  Result<Dataset> loaded = LoadDataSource(flags);
  if (!loaded.ok()) return loaded.status();
  return FilterShardRows(std::move(loaded).value(), flags);
}

/// Socket mode: the src/net/ binary-protocol server in front of the same
/// session. SIGTERM/SIGINT begin the network drain (in-flight requests
/// complete, connections flush and close); once Run() returns, the service
/// and durable layers drain exactly as the REPL's exit path does.
int ServeSocket(const FlagParser& flags, ServeSession& session) {
  net::NetServerOptions net_options = NetServerOptionsFromFlags(flags);
  // The wire's health/stats opcodes answer with the same lines the REPL
  // prints — including the durability counters only this tool can see.
  net_options.health_text = [&session] { return FormatHealth(session); };
  net_options.stats_text = [&session] {
    return FormatStatsLine(*session.service);
  };
  // Durable servers answer the replication opcodes; the handler runs on a
  // dispatch-pool thread (kReplFetch long-polls, kReplSnapshot reads files).
  if (session.durable) {
    net_options.repl_handler = [&session](const net::WireRequest& request) {
      return HandleRepl(session, request);
    };
  }

  net::NetServer server(session.service.get(), net_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  InstallShutdownHandlers();
  PrintListenLine(net_options.host, server.port(),
                  std::to_string(session.num_dims) + "-dim cube, version " +
                      std::to_string(session.service->snapshot_version()));
  server.Run(
      [&server] {
        if (ShutdownSignal() != 0) server.BeginDrain();
      },
      /*tick_millis=*/100);

  // The network layer has flushed and closed every connection; now drain
  // the layers beneath it (same as the REPL's quit path). The follower's
  // apply loop must stop first — it feeds the ingest the drain flushes.
  if (session.follower) session.follower->Stop();
  session.service->BeginDrain();
  if (session.durable) {
    Status drained = session.durable->Drain();
    if (!drained.ok()) {
      std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
      return 1;
    }
  }
  if (ShutdownSignal() != 0) {
    std::fprintf(stderr, "signal %d: drained%s, exiting\n", ShutdownSignal(),
                 session.durable ? " (wal flushed, final checkpoint written)"
                                 : "");
  }
  return 0;
}

int Serve(const FlagParser& flags) {
  ServeSession session;
  if (!PortFlagInRange(flags)) return 2;
  const std::string negative = flags.FirstNegative(
      {"tuples", "net-queue", "max-pipeline", "max-connections",
       "cache-capacity", "cache-shards", "max-in-flight", "checkpoint-every",
       "keep-checkpoints"});
  if (!negative.empty()) {
    std::fprintf(stderr, "--%s=%s must not be negative\n", negative.c_str(),
                 flags.GetString(negative, "").c_str());
    return 2;
  }
  SkycubeServiceOptions options;
  options.cache.capacity =
      static_cast<size_t>(flags.GetInt("cache-capacity", 1 << 16));
  options.cache.num_shards =
      static_cast<size_t>(flags.GetInt("cache-shards", 8));
  options.batch_threads = static_cast<int>(flags.GetInt("threads", 0));
  options.max_in_flight =
      static_cast<size_t>(flags.GetInt("max-in-flight", 0));
  options.queue_wait_timeout =
      std::chrono::milliseconds(flags.GetInt("queue-wait-ms", 0));
  // Every insert carries its ingest wall time so --window-ms can age rows
  // out (rows loaded at bootstrap carry timestamp 0 and never expire).
  options.ingest_clock = [] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  };
  session.deadline_millis = flags.GetInt("deadline-ms", 0);

  const bool has_dataset_source =
      flags.Has("data") || flags.GetBool("synthetic", false);
  if (flags.Has("data-dir")) {
    if (flags.Has("cube")) {
      std::fprintf(stderr,
                   "--data-dir and --cube are exclusive (durable ingest "
                   "needs the maintainable dataset form)\n");
      return 2;
    }
    const std::string dir = flags.GetString("data-dir", "");
    DurableIngestOptions ingest_options;
    Result<FsyncPolicy> policy =
        FsyncPolicyFromName(flags.GetString("fsync-policy", "always"));
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
      return 2;
    }
    ingest_options.wal.fsync_policy = policy.value();
    ingest_options.wal.fsync_every_n =
        static_cast<int>(flags.GetInt("fsync-every", 64));
    ingest_options.wal.fsync_interval =
        std::chrono::milliseconds(flags.GetInt("fsync-interval-ms", 5));
    ingest_options.checkpoint_every =
        static_cast<uint64_t>(flags.GetInt("checkpoint-every", 256));
    ingest_options.keep_checkpoints =
        static_cast<size_t>(flags.GetInt("keep-checkpoints", 2));
    session.repl_fence_millis = flags.GetInt("repl-fence-ms", 1000);
    if (flags.Has("replica-of")) {
      // Hot standby: wipe whatever lineage the directory held (a returning
      // ex-primary's divergent suffix must not survive), bootstrap from the
      // primary's newest checkpoint, then tail its WAL.
      std::string replica_host = "127.0.0.1";
      uint16_t replica_port = 0;
      const std::string target = flags.GetString("replica-of", "");
      const size_t colon = target.rfind(':');
      const std::string host_part =
          colon == std::string::npos ? "" : target.substr(0, colon);
      const std::string port_part =
          colon == std::string::npos ? target : target.substr(colon + 1);
      if (!host_part.empty()) replica_host = host_part;
      replica_port = static_cast<uint16_t>(std::atoi(port_part.c_str()));
      if (replica_port == 0) {
        std::fprintf(stderr, "--replica-of needs HOST:PORT, got '%s'\n",
                     target.c_str());
        return 2;
      }
      Status wiped = WipeDurableState(dir);
      if (!wiped.ok()) {
        std::fprintf(stderr, "%s\n", wiped.ToString().c_str());
        return 1;
      }
      session.repl_source = std::make_unique<net::RemoteReplicationSource>(
          replica_host, replica_port);
      // The primary may still be starting (the chaos harness launches both
      // sides at once) — retry the bootstrap snapshot for a while.
      Result<ReplicationSnapshot> snapshot =
          Status::Unavailable("snapshot not attempted");
      for (int attempt = 0; attempt < 150; ++attempt) {
        snapshot = session.repl_source->Snapshot();
        if (snapshot.ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      if (!snapshot.ok()) {
        std::fprintf(stderr, "replica bootstrap failed: %s\n",
                     snapshot.status().ToString().c_str());
        return 1;
      }
      Status installed =
          InstallSnapshot(dir, snapshot.value().lsn, snapshot.value().bytes);
      if (!installed.ok()) {
        std::fprintf(stderr, "%s\n", installed.ToString().c_str());
        return 1;
      }
      Result<std::unique_ptr<DurableIngest>> opened =
          DurableIngest::Open(dir, nullptr, ingest_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
        return 1;
      }
      session.durable = std::move(opened).value();
      session.num_dims = session.durable->maintainer().data().num_dims();
      session.service = std::make_unique<SkycubeService>(
          std::make_shared<const CompressedSkylineCube>(
              session.durable->maintainer().MakeCube()),
          options);
      // No insert handler: mutations answer kInvalidArgument until
      // kReplPromote flips this process to primary (HandlePromote).
      session.shipper = std::make_unique<WalShipper>(dir);
      session.replica.store(true, std::memory_order_release);
      session.follower = std::make_unique<WalFollower>(
          session.durable.get(), session.repl_source.get(),
          [svc = session.service.get()](const InsertHandler::Applied& applied) {
            if (applied.cube) svc->Reload(applied.cube);
          });
      session.follower->Start();
      std::fprintf(stderr,
                   "replica of %s:%u: bootstrapped %s from snapshot lsn=%llu "
                   "(%llu rows), tailing wal\n",
                   replica_host.c_str(), static_cast<unsigned>(replica_port),
                   dir.c_str(),
                   static_cast<unsigned long long>(snapshot.value().lsn),
                   static_cast<unsigned long long>(
                       session.durable->stats().num_objects));
      std::fflush(stderr);
      if (!flags.Has("port") && !flags.Has("listen")) {
        std::fprintf(stderr, "--replica-of requires socket mode (--port)\n");
        return 2;
      }
      return ServeSocket(flags, session);
    }
    // A directory with durable state recovers from it; a fresh one needs a
    // bootstrap dataset (and ignores none — passing --data/--synthetic with
    // an existing directory just means the bootstrap is unused).
    std::optional<Dataset> bootstrap;
    if (has_dataset_source && !DirHasDurableState(dir)) {
      Result<Dataset> loaded = LoadSourceDataset(flags);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        return 1;
      }
      bootstrap = std::move(loaded).value();
    }
    Result<std::unique_ptr<DurableIngest>> opened = DurableIngest::Open(
        dir, bootstrap ? &*bootstrap : nullptr, ingest_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    session.durable = std::move(opened).value();
    session.num_dims = session.durable->maintainer().data().num_dims();
    session.service = std::make_unique<SkycubeService>(
        std::make_shared<const CompressedSkylineCube>(
            session.durable->maintainer().MakeCube()),
        options);
    // The replicated decorator notifies/fences the shipper; with no live
    // follower WaitAcked degrades immediately, so an unreplicated durable
    // server pays only an atomic load per mutation.
    session.shipper = std::make_unique<WalShipper>(dir);
    session.replicated = std::make_unique<ReplicatedInsertHandler>(
        session.durable.get(), session.shipper.get(),
        std::chrono::milliseconds(session.repl_fence_millis));
    session.service->AttachInsertHandler(session.replicated.get());
    const DurableIngestStats stats = session.durable->stats();
    if (stats.recovered) {
      std::fprintf(stderr,
                   "recovered %s: checkpoint lsn=%llu rows=%llu, replayed "
                   "%llu wal records (%s), next lsn=%llu\n",
                   dir.c_str(),
                   static_cast<unsigned long long>(
                       stats.recovery.checkpoint_lsn),
                   static_cast<unsigned long long>(
                       stats.recovery.checkpoint_rows),
                   static_cast<unsigned long long>(
                       stats.recovery.wal_records_replayed),
                   stats.recovery.wal_suffix_discarded
                       ? "damaged suffix discarded"
                       : "clean tail",
                   static_cast<unsigned long long>(stats.recovery.next_lsn));
    } else {
      std::fprintf(stderr, "bootstrapped %s: %llu rows checkpointed at lsn 0\n",
                   dir.c_str(),
                   static_cast<unsigned long long>(stats.num_objects));
    }
  } else if (flags.Has("cube")) {
    Result<SerializedCube> loaded =
        LoadCubeFromFile(flags.GetString("cube", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    session.num_dims = loaded.value().num_dims;
    session.service = std::make_unique<SkycubeService>(
        std::make_shared<const CompressedSkylineCube>(
            loaded.value().num_dims, loaded.value().num_objects,
            std::move(loaded.value().groups)),
        options);
  } else if (has_dataset_source) {
    Result<Dataset> loaded = LoadSourceDataset(flags);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    session.num_dims = loaded.value().num_dims();
    session.maintainer = std::make_unique<IncrementalCubeMaintainer>(
        std::move(loaded).value());
    session.volatile_ingest =
        std::make_unique<MaintainerInsertHandler>(session.maintainer.get());
    session.service = std::make_unique<SkycubeService>(
        std::make_shared<const CompressedSkylineCube>(
            session.maintainer->MakeCube()),
        options);
    session.service->AttachInsertHandler(session.volatile_ingest.get());
  } else {
    return Usage();
  }

  const long long window_ms = flags.GetInt("window-ms", 0);
  if (window_ms > 0) {
    if (flags.Has("cube")) {
      std::fprintf(stderr,
                   "--window-ms needs a mutable source (not --cube)\n");
      return 2;
    }
    WindowExpiryOptions expiry_options;
    expiry_options.window_ms = static_cast<uint64_t>(window_ms);
    expiry_options.interval =
        std::chrono::milliseconds(flags.GetInt("expiry-interval-ms", 1000));
    session.expiry = std::make_unique<WindowExpiry>(session.service.get(),
                                                    expiry_options);
    std::fprintf(
        stderr, "window: expiring rows older than %lld ms every %lld ms\n",
        static_cast<long long>(window_ms),
        static_cast<long long>(flags.GetInt("expiry-interval-ms", 1000)));
  }

  if (flags.Has("port") || flags.Has("listen")) {
    return ServeSocket(flags, session);
  }

  std::fprintf(stderr,
               "serving %d-dim cube, version %llu (one query per line; "
               "'help' lists commands)\n",
               session.num_dims,
               static_cast<unsigned long long>(
                   session.service->snapshot_version()));
  InstallShutdownHandlers();
  std::string line;
  while (ShutdownSignal() == 0 && std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    command = Lower(command);
    std::string rest;
    std::getline(in, rest);
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      std::printf(
          "ok commands: skyline S | card S | member ID S | count ID | "
          "total | diff S SINCE | batch Q; Q; ... | insert V1,V2,... | "
          "delete ID | expire CUTOFF_MS | health | stats | quit\n");
    } else if (command == "stats") {
      std::printf("%s\n", FormatStatsLine(*session.service).c_str());
    } else if (command == "health") {
      std::printf("%s\n", FormatHealth(session).c_str());
    } else if (command == "insert") {
      std::printf("%s\n", HandleInsert(session, rest).c_str());
    } else if (command == "delete") {
      std::printf("%s\n", HandleDelete(session, rest).c_str());
    } else if (command == "expire") {
      std::printf("%s\n", HandleExpire(session, rest).c_str());
    } else if (command == "batch") {
      std::printf("%s\n", HandleBatch(session, rest).c_str());
    } else {
      std::string error;
      const auto request = ParseQuery(line, session.num_dims, &error);
      if (!request) {
        std::printf("err %s\n", error.c_str());
      } else {
        std::printf("%s\n",
                    FormatResponseLine(session.service->Execute(
                                       session.WithDeadline(*request)))
                        .c_str());
      }
    }
    std::fflush(stdout);
  }

  // Graceful drain — reached by 'quit', stdin EOF, SIGTERM, or SIGINT. New
  // requests would answer kUnavailable from here on; with durable ingest
  // the WAL is flushed and a final checkpoint written, so the next startup
  // recovers without replaying anything.
  session.service->BeginDrain();
  if (session.durable) {
    Status drained = session.durable->Drain();
    if (!drained.ok()) {
      std::fprintf(stderr, "drain failed: %s\n",
                   drained.ToString().c_str());
      return 1;
    }
  }
  if (ShutdownSignal() != 0) {
    std::fprintf(stderr, "signal %d: drained%s, exiting\n", ShutdownSignal(),
                 session.durable ? " (wal flushed, final checkpoint written)"
                                 : "");
  }
  return 0;
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  skycube::ArmFaultsFromEnv();
  const skycube::FlagParser flags(argc, argv);
  return skycube::Serve(flags);
}
