// skycube_crashtest — crash-consistency harness for the durable ingest path
// (docs/ROBUSTNESS.md, "Durability & recovery").
//
// Each round forks a skycube_serve child on a fresh --data-dir, streams
// inserts at it, and kills it — SIGKILL at a random point mid-ingest, or a
// deterministic process-abort inside a WAL/checkpoint fault point (armed
// through SKYCUBE_ARM_FAULTS). It then recovers the directory *in-process*
// and enforces the crash-consistency invariant:
//
//   recovered rows = bootstrap + a PREFIX of the sent insert sequence,
//   that prefix contains every acknowledged insert, and
//   recovered groups == ComputeStellar over exactly those rows (golden).
//
// Finally it restarts a real server on the directory and checks it serves
// (health reports recovered=1, a query answers). A graceful-drain round
// proves SIGTERM flushes + checkpoints so the next startup replays nothing.
//
// The parent re-parses the exact value text it sends, so golden rows and
// server rows are bit-identical (both sides run strtod on the same bytes).
//
// Usage (registered as a ctest test):
//   skycube_crashtest --serve=PATH --work-dir=DIR [--rounds=N]
//     [--inserts=N] [--tuples=N] [--dims=D] [--seed=S] [--no-faults]
#include <signal.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/maintenance.h"
#include "core/skyline_group.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "storage/recovery.h"
#include "tools/process_harness.h"
#include "tools/server_common.h"

namespace skycube {
namespace {

using harness::Child;
using harness::ReadLine;

/// HARNESS_CHECK with the enclosing round's `round_tag` before the message.
#define CHECK_ROUND(cond, format, ...) \
  HARNESS_CHECK(cond, "[%s] " format, round_tag __VA_OPT__(, ) __VA_ARGS__)

struct Config {
  std::string serve;
  std::string work_dir;
  /// The rows every round bootstraps its server from.
  SyntheticSpec source;
  int inserts = 12;
  int checkpoint_every = 4;
};

/// Spawns a server on `dir` with stdin/stdout piped. `bootstrap` loads the
/// synthetic source into a fresh directory; `faults` arms fault points.
bool StartServer(const char* round_tag, const Config& config,
                 const std::string& dir, bool bootstrap,
                 const std::string& faults, Child* child) {
  std::vector<std::string> args = {
      "--data-dir=" + dir,
      "--fsync-policy=always",
      "--checkpoint-every=" + std::to_string(config.checkpoint_every),
      "--cache-capacity=256",
  };
  if (bootstrap) {
    for (const std::string& flag : SyntheticFlags(config.source)) {
      args.push_back(flag);
    }
  }
  Result<Child> spawned =
      harness::Spawn(config.serve, args, harness::Io::kPipes, faults);
  CHECK_ROUND(spawned.ok(), "%s", spawned.status().ToString().c_str());
  *child = spawned.value();
  return true;
}

/// One insert row as protocol text. The golden double values are recovered
/// by re-parsing this exact text (bit-identical to what the server stores).
/// Mix: mostly uniform 4-decimal values, ~1/6 exact duplicates of an
/// earlier row (path 1), ~1/10 strongly dominating rows (path 4).
std::string MakeInsertText(Rng* rng, int dims,
                           const std::vector<std::string>* sent) {
  if (!sent->empty() && rng->NextBounded(6) == 0) {
    return (*sent)[rng->NextBounded(sent->size())];
  }
  const bool dominator = rng->NextBounded(10) == 0;
  std::string text;
  for (int d = 0; d < dims; ++d) {
    const uint64_t cell = dominator ? rng->NextBounded(40)
                                    : 200 + rng->NextBounded(9800);
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "0.%04llu",
                  static_cast<unsigned long long>(cell));
    if (d > 0) text += ",";
    text += buffer;
  }
  return text;
}

std::vector<double> ParseRow(const std::string& text) {
  std::vector<double> row;
  const char* cursor = text.c_str();
  char* end = nullptr;
  for (;;) {
    row.push_back(std::strtod(cursor, &end));
    if (*end != ',') break;
    cursor = end + 1;
  }
  return row;
}

/// Sends `count` new insert rows one at a time, each acknowledged before
/// the next, and appends them to *sent.
bool InsertAcked(const char* round_tag, const Config& config, Child* child,
                 int count, Rng* rng, std::vector<std::string>* sent) {
  std::string line;
  for (int i = 0; i < count; ++i) {
    sent->push_back(MakeInsertText(rng, config.source.num_dims, sent));
    std::fprintf(child->to, "insert %s\n", sent->back().c_str());
    std::fflush(child->to);
    CHECK_ROUND(ReadLine(child->from, &line) && line.rfind("ok path=", 0) == 0,
                "insert answered: %s", line.c_str());
  }
  return true;
}

/// Waits until the child has bootstrapped, pipelines every line of
/// `script` to it, SIGKILLs it after a random number of acknowledgements,
/// and reaps it. *acked counts the acknowledgements read, those the child
/// wrote before it died included.
bool PipelineAndKill(const char* round_tag, Child* child,
                     const std::vector<std::string>& script, Rng* rng,
                     size_t* acked) {
  // The REPL answers only after the bootstrap checkpoint is on disk. A
  // kill before that leaves no directory to recover.
  std::string line;
  std::fprintf(child->to, "health\n");
  std::fflush(child->to);
  CHECK_ROUND(ReadLine(child->from, &line) &&
                  line.rfind("ok status=ready", 0) == 0,
              "server not ready before the kill: %s", line.c_str());
  for (const std::string& op : script) {
    std::fprintf(child->to, "%s\n", op.c_str());
  }
  std::fflush(child->to);
  const size_t kill_after = rng->NextBounded(script.size() + 1);
  *acked = 0;
  while (*acked < kill_after && ReadLine(child->from, &line)) {
    CHECK_ROUND(line.rfind("ok path=", 0) == 0, "mutation answered: %s",
                line.c_str());
    ++*acked;
  }
  kill(child->pid, SIGKILL);
  while (ReadLine(child->from, &line)) {
    if (line.rfind("ok path=", 0) == 0) ++*acked;
  }
  const int code = harness::Wait(child);
  CHECK_ROUND(code == -SIGKILL || code == 0, "child exited %d, expected kill",
              code);
  return true;
}

/// Recovers `dir` in-process and enforces the invariant against the
/// bootstrap + the sent rows, of which at least `min_acked` must be present.
/// Returns the recovery stats through *out (may be null).
bool VerifyRecovery(const char* round_tag, const Config& config,
                    const std::string& dir,
                    const std::vector<std::string>& sent, size_t min_acked,
                    RecoveryStats* out) {
  Result<RecoveredState> recovered = RecoverFromDir(dir);
  CHECK_ROUND(recovered.ok(), "recovery failed: %s",
              recovered.status().ToString().c_str());
  const IncrementalCubeMaintainer& maintainer = *recovered.value().maintainer;
  const Dataset& data = maintainer.data();
  const size_t bootstrap_rows = config.source.num_objects;
  CHECK_ROUND(data.num_objects() >= bootstrap_rows &&
                  static_cast<size_t>(data.num_objects()) <=
                      bootstrap_rows + sent.size(),
              "recovered %zu rows outside [%zu, %zu]",
              static_cast<size_t>(data.num_objects()), bootstrap_rows,
              bootstrap_rows + sent.size());
  const size_t prefix = data.num_objects() - bootstrap_rows;
  CHECK_ROUND(prefix >= min_acked,
              "recovered prefix %zu < %zu acknowledged inserts", prefix,
              min_acked);

  // Golden: bootstrap + exactly that prefix, bit-for-bit.
  Dataset golden = GenerateSynthetic(config.source);
  for (size_t i = 0; i < prefix; ++i) {
    golden.AddRow(ParseRow(sent[i]));
  }
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    CHECK_ROUND(std::memcmp(data.Row(id), golden.Row(id),
                            sizeof(double) * config.source.num_dims) == 0,
                "recovered row %llu differs from the sent sequence",
                static_cast<unsigned long long>(id));
  }
  SkylineGroupSet expected = ComputeStellar(golden);
  NormalizeGroups(&expected);
  CHECK_ROUND(maintainer.groups() == expected,
              "recovered groups != ComputeStellar over %zu recovered rows",
              static_cast<size_t>(data.num_objects()));
  if (out != nullptr) *out = recovered.value().stats;
  std::fprintf(stderr, "ok   [%s] acked>=%zu recovered=%zu/%zu groups=%zu\n",
               round_tag, min_acked, prefix, sent.size(),
               maintainer.groups().size());
  return true;
}

/// Restarts a server on the recovered directory and checks it serves.
bool VerifyServeable(const char* round_tag, const Config& config,
                     const std::string& dir) {
  Child child;
  if (!StartServer(round_tag, config, dir, /*bootstrap=*/false, "", &child)) {
    return false;
  }
  std::fprintf(child.to, "health\ntotal\nquit\n");
  std::fflush(child.to);
  std::string health, total;
  CHECK_ROUND(ReadLine(child.from, &health) && ReadLine(child.from, &total),
              "restarted server died before answering");
  const int code = harness::Wait(&child);
  CHECK_ROUND(code == 0, "restarted server exited %d", code);
  CHECK_ROUND(health.find("ok status=ready") == 0 &&
                  health.find("recovered=1") != std::string::npos,
              "bad health after restart: %s", health.c_str());
  CHECK_ROUND(total.rfind("ok count=", 0) == 0, "bad query after restart: %s",
              total.c_str());
  return true;
}

/// One scripted mutation of a mixed round: an insert (protocol value text)
/// or a delete of an id that existed when the op was generated.
struct MutationOp {
  bool is_delete = false;
  std::string insert_text;  // valid iff !is_delete
  ObjectId target = 0;      // valid iff is_delete
};

/// Mixed-SIGKILL round: pipeline a random interleaving of inserts and
/// deletes, kill after a random number of acknowledgements, and verify the
/// recovered (rows, liveness) state is bootstrap + an exact PREFIX of the
/// op sequence containing every acked op — with the recovered groups equal
/// to ComputeStellar over exactly the live rows of that prefix.
bool RunMixedKillRound(const Config& config, int round, Rng* rng) {
  char round_tag[32];
  std::snprintf(round_tag, sizeof(round_tag), "mixed-%d", round);
  const std::string dir = config.work_dir + "/" + round_tag;
  std::filesystem::remove_all(dir);
  Child child;
  if (!StartServer(round_tag, config, dir, /*bootstrap=*/true, "", &child)) {
    return false;
  }

  // Script the ops up front. Deletes target any id that exists at that
  // point in the sequence — including bootstrap rows, rows a later op will
  // delete again (an idempotent no-op), and never-yet-acked inserts.
  std::vector<MutationOp> ops;
  std::vector<std::string> sent_inserts;
  std::vector<std::string> script;
  const int num_ops = config.inserts + config.inserts / 2;
  size_t rows_so_far = config.source.num_objects;
  for (int i = 0; i < num_ops; ++i) {
    MutationOp op;
    if (rng->NextBounded(3) == 0) {
      op.is_delete = true;
      op.target = static_cast<ObjectId>(
          rng->NextBounded(std::max<size_t>(rows_so_far, 1)));
      script.push_back("delete " + std::to_string(op.target));
    } else {
      op.insert_text =
          MakeInsertText(rng, config.source.num_dims, &sent_inserts);
      sent_inserts.push_back(op.insert_text);
      script.push_back("insert " + op.insert_text);
      ++rows_so_far;
    }
    ops.push_back(std::move(op));
  }
  size_t acked = 0;
  if (!PipelineAndKill(round_tag, &child, script, rng, &acked)) return false;

  Result<RecoveredState> recovered = RecoverFromDir(dir);
  CHECK_ROUND(recovered.ok(), "recovery failed: %s",
              recovered.status().ToString().c_str());
  const IncrementalCubeMaintainer& maintainer = *recovered.value().maintainer;
  const Dataset& data = maintainer.data();

  // Replay the op script over the golden bootstrap until the state matches
  // the recovered one exactly. No-op deletes are not WAL-logged, so the
  // recovered state equals *some* op prefix — and every acked op must be in
  // it.
  Dataset golden = GenerateSynthetic(config.source);
  std::vector<uint8_t> live(golden.num_objects(), 1);
  bool matched = false;
  size_t prefix = 0;
  const auto state_matches = [&] {
    if (static_cast<size_t>(data.num_objects()) != golden.num_objects()) {
      return false;
    }
    for (ObjectId id = 0; id < data.num_objects(); ++id) {
      if ((maintainer.live()[id] != 0) != (live[id] != 0)) return false;
      if (std::memcmp(data.Row(id), golden.Row(id),
                      sizeof(double) * config.source.num_dims) != 0) {
        return false;
      }
    }
    return true;
  };
  for (size_t k = 0;; ++k) {
    if (k >= acked && state_matches()) {
      matched = true;
      prefix = k;
      break;
    }
    if (k == ops.size()) break;
    const MutationOp& op = ops[k];
    if (op.is_delete) {
      if (op.target < live.size() && live[op.target] != 0) {
        live[op.target] = 0;
      }
    } else {
      golden.AddRow(ParseRow(op.insert_text));
      live.push_back(1);
    }
  }
  CHECK_ROUND(matched,
              "recovered state is not bootstrap + an op prefix >= %zu acked "
              "(recovered rows=%zu live=%zu)",
              acked, static_cast<size_t>(data.num_objects()),
              maintainer.num_live());

  SkylineGroupSet expected = StellarOverLive(golden, live);
  NormalizeGroups(&expected);
  CHECK_ROUND(maintainer.groups() == expected,
              "recovered groups != Stellar over the live rows of prefix %zu",
              prefix);
  std::fprintf(stderr, "ok   [%s] acked>=%zu prefix=%zu/%zu live=%zu\n",
               round_tag, acked, prefix, ops.size(), maintainer.num_live());
  return VerifyServeable(round_tag, config, dir);
}

/// Expiry-SIGKILL round: ingest rows (stamped with real wall time), fire a
/// synchronous expiry pass over everything, and SIGKILL while its per-row
/// delete records may be mid-flight in the WAL. The recovered directory
/// must be self-consistent: bootstrap rows (timestamp 0) all live, every
/// row's values golden, and groups == Stellar over exactly the recovered
/// live rows — whatever subset of the expiry got logged.
bool RunExpiryKillRound(const Config& config, Rng* rng) {
  const char* round_tag = "expiry-kill";
  const std::string dir = config.work_dir + "/expiry-kill";
  std::filesystem::remove_all(dir);
  Child child;
  std::vector<std::string> sent;
  if (!StartServer(round_tag, config, dir, /*bootstrap=*/true, "", &child) ||
      !InsertAcked(round_tag, config, &child, config.inserts, rng, &sent)) {
    return false;
  }
  // A far-future cutoff expires every timestamped row; SIGKILL races the
  // pass (sometimes before it starts, sometimes mid-log, sometimes after).
  std::fprintf(child.to, "expire 9999999999999\n");
  std::fflush(child.to);
  if (rng->NextBounded(2) == 0) {
    std::string line;
    CHECK_ROUND(ReadLine(child.from, &line) &&
                    line.rfind("ok expired=", 0) == 0,
                "expire answered: %s", line.c_str());
  }
  const int code = harness::Stop(&child, SIGKILL);
  CHECK_ROUND(code == -SIGKILL || code == 0, "child exited %d, expected kill",
              code);

  Result<RecoveredState> recovered = RecoverFromDir(dir);
  CHECK_ROUND(recovered.ok(), "recovery failed: %s",
              recovered.status().ToString().c_str());
  const IncrementalCubeMaintainer& maintainer = *recovered.value().maintainer;
  const Dataset& data = maintainer.data();
  const size_t bootstrap_rows = config.source.num_objects;
  CHECK_ROUND(static_cast<size_t>(data.num_objects()) ==
                  bootstrap_rows + sent.size(),
              "recovered %zu rows, want %zu",
              static_cast<size_t>(data.num_objects()),
              bootstrap_rows + sent.size());
  Dataset golden = GenerateSynthetic(config.source);
  for (const std::string& row : sent) golden.AddRow(ParseRow(row));
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    CHECK_ROUND(std::memcmp(data.Row(id), golden.Row(id),
                            sizeof(double) * config.source.num_dims) == 0,
                "recovered row %llu differs from the sent sequence",
                static_cast<unsigned long long>(id));
    if (static_cast<size_t>(id) < bootstrap_rows) {
      CHECK_ROUND(maintainer.live()[id] != 0,
                  "bootstrap row %llu (timestamp 0) was expired",
                  static_cast<unsigned long long>(id));
    }
  }
  SkylineGroupSet expected =
      StellarOverLive(golden, maintainer.live());
  NormalizeGroups(&expected);
  CHECK_ROUND(maintainer.groups() == expected,
              "recovered groups != Stellar over the recovered live rows");
  std::fprintf(stderr, "ok   [%s] live=%zu of %zu rows after expiry crash\n",
               round_tag, maintainer.num_live(),
               static_cast<size_t>(data.num_objects()));
  return VerifyServeable(round_tag, config, dir);
}

/// Random-SIGKILL round: pipeline all inserts, kill after a random number
/// of acknowledgements, drain the pipe (late acks still count), verify.
bool RunKillRound(const Config& config, int round, Rng* rng) {
  char round_tag[32];
  std::snprintf(round_tag, sizeof(round_tag), "kill-%d", round);
  const std::string dir = config.work_dir + "/" + round_tag;
  std::filesystem::remove_all(dir);  // a rerun must bootstrap fresh
  Child child;
  if (!StartServer(round_tag, config, dir, /*bootstrap=*/true, "", &child)) {
    return false;
  }
  std::vector<std::string> sent;
  std::vector<std::string> script;
  for (int i = 0; i < config.inserts; ++i) {
    sent.push_back(MakeInsertText(rng, config.source.num_dims, &sent));
    script.push_back("insert " + sent.back());
  }
  size_t acked = 0;
  return PipelineAndKill(round_tag, &child, script, rng, &acked) &&
         VerifyRecovery(round_tag, config, dir, sent, acked, nullptr) &&
         VerifyServeable(round_tag, config, dir);
}

/// Graceful-drain round: SIGTERM must flush + checkpoint, so recovery
/// replays zero WAL records and loses nothing.
bool RunSigtermRound(const Config& config, Rng* rng) {
  const char* round_tag = "sigterm";
  const std::string dir = config.work_dir + "/sigterm";
  std::filesystem::remove_all(dir);
  Child child;
  std::vector<std::string> sent;
  if (!StartServer(round_tag, config, dir, /*bootstrap=*/true, "", &child) ||
      !InsertAcked(round_tag, config, &child, config.inserts, rng, &sent)) {
    return false;
  }
  const int code = harness::Stop(&child, SIGTERM);  // also closes its stdin
  CHECK_ROUND(code == 0, "SIGTERM drain exited %d, expected 0", code);

  RecoveryStats stats;
  if (!VerifyRecovery(round_tag, config, dir, sent, sent.size(), &stats)) {
    return false;
  }
  CHECK_ROUND(stats.wal_records_replayed == 0,
              "drain left %llu unreplayed wal records (no final checkpoint?)",
              static_cast<unsigned long long>(stats.wal_records_replayed));
  return true;
}

/// Fault-point round: ingest `warmup` rows cleanly, quit, restart with an
/// armed crash point, and detonate it with one more insert. `acked_extra`
/// says whether the detonating row must survive (it hit the WAL before the
/// crash point) or must not (the crash precedes durability).
bool RunFaultRound(const Config& config, Rng* rng, const char* fault,
                   int checkpoint_every, bool extra_must_survive,
                   bool extra_may_survive) {
  const char* round_tag = fault;
  const std::string dir = config.work_dir + "/fault-" + fault;
  std::filesystem::remove_all(dir);
  // Warmup on a clean server.
  Child child;
  std::vector<std::string> sent;
  const int warmup = 3 + static_cast<int>(rng->NextBounded(4));
  if (!StartServer(round_tag, config, dir, /*bootstrap=*/true, "", &child) ||
      !InsertAcked(round_tag, config, &child, warmup, rng, &sent)) {
    return false;
  }
  std::fprintf(child.to, "quit\n");
  std::fflush(child.to);
  int code = harness::Wait(&child);
  CHECK_ROUND(code == 0, "warmup server exited %d", code);

  // Detonation: restart with the fault armed; the next insert crashes the
  // child inside the fault point (std::_Exit(42)) before it can answer.
  Config armed = config;
  armed.checkpoint_every = checkpoint_every;
  if (!StartServer(round_tag, armed, dir, /*bootstrap=*/false,
                   std::string(fault) + "=1", &child)) {
    return false;
  }
  sent.push_back(MakeInsertText(rng, config.source.num_dims, &sent));
  std::fprintf(child.to, "insert %s\n", sent.back().c_str());
  std::fflush(child.to);
  std::string line;
  const bool got_ack = ReadLine(child.from, &line);
  CHECK_ROUND(!got_ack, "armed %s did not crash; answered: %s", fault,
              line.c_str());
  code = harness::Wait(&child);
  CHECK_ROUND(code == 42, "armed %s exited %d, expected 42", fault, code);

  RecoveryStats stats;
  if (!VerifyRecovery(round_tag, config, dir, sent,
                      static_cast<size_t>(warmup), &stats)) {
    return false;
  }
  // Each replayed WAL record is one row on top of the checkpoint.
  const size_t prefix = static_cast<size_t>(stats.checkpoint_rows) +
                        stats.wal_records_replayed -
                        config.source.num_objects;
  if (extra_must_survive) {
    CHECK_ROUND(prefix == sent.size(),
                "%s: the WAL-durable detonating row was lost (prefix %zu)",
                fault, prefix);
  } else if (!extra_may_survive) {
    CHECK_ROUND(prefix == sent.size() - 1,
                "%s: the never-durable detonating row survived (prefix %zu)",
                fault, prefix);
  }
  return true;
}

int Run(const FlagParser& flags) {
  signal(SIGPIPE, SIG_IGN);  // a killed child must not kill the harness
  Config config;
  config.serve = flags.GetString("serve", "");
  config.work_dir = flags.GetString("work-dir", "/tmp/skycube_crashtest");
  config.source.distribution = Distribution::kCorrelated;
  config.source.num_objects = static_cast<size_t>(flags.GetInt("tuples", 50));
  config.source.num_dims = static_cast<int>(flags.GetInt("dims", 4));
  config.source.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  config.inserts = static_cast<int>(flags.GetInt("inserts", 12));
  if (config.serve.empty()) {
    std::fprintf(stderr,
                 "usage: skycube_crashtest --serve=PATH [--work-dir=DIR] "
                 "[--rounds=N] [--inserts=N] [--no-faults]\n");
    return 2;
  }
  mkdir(config.work_dir.c_str(), 0775);

  Rng rng(config.source.seed);
  const int rounds = static_cast<int>(flags.GetInt("rounds", 5));
  for (int round = 0; round < rounds; ++round) {
    RunKillRound(config, round, &rng);
  }
  for (int round = 0; round < rounds; ++round) {
    RunMixedKillRound(config, round, &rng);
  }
  RunExpiryKillRound(config, &rng);
  RunSigtermRound(config, &rng);

  if (FaultInjection::Enabled() && !flags.GetBool("no-faults", false)) {
    // Torn mid-record write, synced: the damaged suffix must be discarded.
    RunFaultRound(config, &rng, "wal.append_torn", config.checkpoint_every,
                  /*extra_must_survive=*/false, /*extra_may_survive=*/false);
    // Full record written but unsynced at crash: page cache keeps it across
    // a process death (only power loss would not), so either outcome is a
    // valid prefix.
    RunFaultRound(config, &rng, "wal.append_crash", config.checkpoint_every,
                  /*extra_must_survive=*/false, /*extra_may_survive=*/true);
    // Crash around the checkpoint rename: the row hit the WAL (and was
    // synced by the checkpoint path) before the crash, so it must survive
    // whether the rename landed or not.
    RunFaultRound(config, &rng, "checkpoint.crash_before_rename", 1,
                  /*extra_must_survive=*/true, /*extra_may_survive=*/true);
    RunFaultRound(config, &rng, "checkpoint.crash_after_rename", 1,
                  /*extra_must_survive=*/true, /*extra_may_survive=*/true);
    RunFaultRound(config, &rng, "checkpoint.crash_mid_write",
                  1, /*extra_must_survive=*/true, /*extra_may_survive=*/true);
  } else {
    std::fprintf(stderr, "note: fault-point rounds skipped (injection %s)\n",
                 FaultInjection::Enabled() ? "disabled by flag"
                                           : "not compiled in");
  }
  return harness::Report("skycube_crashtest");
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  const skycube::FlagParser flags(argc, argv);
  return skycube::Run(flags);
}
