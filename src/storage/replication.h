// Per-shard primary/replica replication over WAL shipping
// (docs/REPLICATION.md).
//
// The primary's durable WAL is an exact, replayable operation stream, so
// replication is log shipping: a follower bootstraps from the newest
// checkpoint *file* (shipped verbatim — it is self-validating) and then
// pulls the WAL tail in checksummed batches, applying each record through
// its own DurableIngest. Every fetch carries the follower's applied LSN,
// which doubles as the replication ack; the primary's WalShipper tracks
// the acked horizon so the ingest path can fence mutation acks on it
// (semi-synchronous: the fence degrades to async after a bounded wait).
//
// Record payloads are applied byte-verbatim, through the same replay rules
// as recovery (ReplayOp, storage/recovery.h) — the follower's WAL holds the
// same bytes at the same LSNs as the primary's, so a promoted replica's
// recovered state is identical to what local recovery of the primary's log
// prefix would produce.
//
// Promotion fences on a *floor*: the router's kReplPromote carries the
// applied LSN it last observed on the chosen replica, and the replica
// refuses to promote below it. The fence is never used to truncate — a
// client-acked write can sit above any previously observed LSN (acks only
// require *some* follower ack), so cutting to the fence could lose acked
// data. The replica promotes at its own applied tip, a superset of every
// acked write (acked ⊆ replica-applied by the fencing order).
#ifndef SKYCUBE_STORAGE_REPLICATION_H_
#define SKYCUBE_STORAGE_REPLICATION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/ingest.h"
#include "storage/wal.h"

namespace skycube {

class DurableIngest;

// --- Shipped-batch codec --------------------------------------------------

/// Serializes WAL records for the wire: per record u64 LSN | u32 payload
/// length | payload bytes, back to back (little-endian). The frame layer
/// already checksums the whole batch; record payloads carry their own WAL
/// checksums again once re-appended on the follower.
std::string EncodeShippedRecords(const std::vector<WalRecord>& records);

/// Decodes a shipped batch; kInvalidArgument on truncation or trailing
/// bytes. Does not validate LSN contiguity — the follower's apply loop
/// enforces that against its own WAL cursor.
[[nodiscard]] Result<std::vector<WalRecord>> DecodeShippedRecords(
    std::string_view bytes);

// --- Primary side ---------------------------------------------------------

/// A batch of records handed to a follower.
struct ShippedBatch {
  std::vector<WalRecord> records;
  /// The primary's current tip (last assigned LSN) at fetch time — lets
  /// the follower report its lag without a second round trip.
  uint64_t tip_lsn = 0;
};

/// A checkpoint file for follower bootstrap, shipped verbatim.
struct ReplicationSnapshot {
  uint64_t lsn = 0;
  std::string bytes;
};

struct WalShipperStats {
  uint64_t fetches = 0;
  uint64_t records_shipped = 0;
  uint64_t snapshots_shipped = 0;
  uint64_t fence_waits = 0;
  uint64_t fence_timeouts = 0;
  uint64_t acked_lsn = 0;
  uint64_t tip_lsn = 0;
  uint64_t followers = 0;
};

/// Serves the WAL tail of one data directory to followers. Thread-safe:
/// fetches arrive on server dispatch threads while the ingest thread
/// notifies appends. Read-only over the directory — it never truncates or
/// writes, so it coexists with the live WriteAheadLog appender (a torn
/// in-flight record simply bounds the batch at the valid prefix).
class WalShipper {
 public:
  explicit WalShipper(std::string dir);

  /// Records with lsn > ack_lsn, blocking up to `wait` when none exist
  /// yet. kNotFound when the log no longer reaches back to ack_lsn + 1
  /// (truncated past it) — the follower must re-bootstrap from Snapshot().
  /// Also records `ack_lsn` as the caller's replication ack.
  Result<ShippedBatch> Fetch(uint64_t ack_lsn, uint32_t max_records,
                             std::chrono::milliseconds wait) EXCLUDES(mu_);

  /// The newest checkpoint file, verbatim. kNotFound if none exists.
  Result<ReplicationSnapshot> Snapshot() EXCLUDES(mu_);

  /// Ingest-side hook: a record with `lsn` was appended (wakes long-polls).
  void NotifyAppended(uint64_t lsn) EXCLUDES(mu_);

  /// Semi-sync fence: blocks until some follower acked `lsn` or `timeout`
  /// elapsed. Returns true iff acked in time; false degrades the caller to
  /// async replication for this mutation (counted).
  bool WaitAcked(uint64_t lsn, std::chrono::milliseconds timeout)
      EXCLUDES(mu_);

  WalShipperStats stats() const EXCLUDES(mu_);

 private:
  const std::string dir_;
  mutable Mutex mu_;
  CondVar tip_advanced_;   // signaled by NotifyAppended
  CondVar ack_advanced_;   // signaled when acked_lsn_ moves
  uint64_t tip_lsn_ GUARDED_BY(mu_) = 0;
  uint64_t acked_lsn_ GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point last_fetch_ GUARDED_BY(mu_){};
  WalShipperStats stats_ GUARDED_BY(mu_);
};

// --- Follower side --------------------------------------------------------

/// Where a follower pulls records from: a remote primary over the binary
/// protocol (net/repl_client.h) or another local directory (below — the
/// in-process seam the replication tests and the TSan pass use).
class ReplicationSource {
 public:
  virtual ~ReplicationSource() = default;
  virtual Result<ShippedBatch> Fetch(uint64_t ack_lsn, uint32_t max_records,
                                     std::chrono::milliseconds wait) = 0;
  virtual Result<ReplicationSnapshot> Snapshot() = 0;
};

/// In-process source: ships straight out of another data directory.
class DirReplicationSource : public ReplicationSource {
 public:
  explicit DirReplicationSource(std::string dir)
      : shipper_(std::move(dir)) {}

  Result<ShippedBatch> Fetch(uint64_t ack_lsn, uint32_t max_records,
                             std::chrono::milliseconds wait) override {
    return shipper_.Fetch(ack_lsn, max_records, wait);
  }
  Result<ReplicationSnapshot> Snapshot() override {
    return shipper_.Snapshot();
  }

  /// The underlying shipper, so a test can NotifyAppended after appends.
  WalShipper* shipper() { return &shipper_; }

 private:
  WalShipper shipper_;
};

/// Installs a shipped checkpoint file into `dir` (created if missing) via
/// the usual tmp + rename + dirsync dance, then validates it loads. The
/// standard replica bootstrap: wipe the directory, install, DurableIngest::
/// Open recovers from it.
[[nodiscard]] Status InstallSnapshot(const std::string& dir, uint64_t lsn,
                                     std::string_view bytes);

/// Removes every WAL segment, checkpoint, and stale tmp file from `dir`
/// (fine if the directory does not exist). The replica (re)join path wipes
/// unconditionally before bootstrapping: a returning ex-primary can hold a
/// durable suffix the promoted primary never had, and that divergent tail
/// must not survive into the new lineage.
Status WipeDurableState(const std::string& dir);

struct WalFollowerOptions {
  /// Minimum pause between fetches once caught up. Zero fetches again
  /// immediately, so every primary append wakes the apply loop; a
  /// non-zero value lets appends accumulate and land as one batch —
  /// bounded extra lag for far fewer wakeups, the batching a *remote*
  /// follower gets for free from its fetch round trip. Leave at zero
  /// when mutation acks are fenced on this follower (the fence wants
  /// the ack shipped immediately, not coalesced).
  std::chrono::milliseconds coalesce{0};
};

struct WalFollowerStats {
  uint64_t applied_lsn = 0;
  uint64_t tip_lsn = 0;  // primary tip as of the last successful fetch
  uint64_t records_applied = 0;
  uint64_t fetch_errors = 0;
  uint64_t apply_errors = 0;
  bool running = false;
  std::string last_error;
};

/// The replica's apply loop: fetches batches from a ReplicationSource and
/// applies them through DurableIngest::ApplyReplicated, reporting each
/// applied mutation to `on_applied` (the serve tool reloads its service
/// snapshot there). Runs on its own thread between Start() and Stop().
class WalFollower {
 public:
  using AppliedCallback =
      std::function<void(const InsertHandler::Applied& applied)>;

  WalFollower(DurableIngest* ingest, ReplicationSource* source,
              AppliedCallback on_applied, WalFollowerOptions options = {});
  ~WalFollower();
  WalFollower(const WalFollower&) = delete;
  WalFollower& operator=(const WalFollower&) = delete;

  void Start() EXCLUDES(mu_);
  /// Stops the loop and joins the thread. Idempotent. After Stop the
  /// ingest handle is exclusively the caller's again (promotion path).
  void Stop() EXCLUDES(mu_);

  uint64_t applied_lsn() const EXCLUDES(mu_);
  WalFollowerStats stats() const EXCLUDES(mu_);

 private:
  void Run() EXCLUDES(mu_);

  DurableIngest* const ingest_;
  ReplicationSource* const source_;
  const AppliedCallback on_applied_;
  const WalFollowerOptions options_;
  mutable Mutex mu_;
  CondVar stop_cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  WalFollowerStats stats_ GUARDED_BY(mu_);
  std::thread thread_;
};

/// InsertHandler decorator for a replicated primary: forwards every
/// mutation to the durable handler, then notifies the shipper (waking
/// follower long-polls) and fences the ack on replication when a fence
/// timeout is configured. Lives in the serve tool's wiring; the service
/// itself stays replication-blind.
class ReplicatedInsertHandler : public InsertHandler {
 public:
  /// `fence_timeout` zero = fully async (notify only, never wait).
  ReplicatedInsertHandler(InsertHandler* base, WalShipper* shipper,
                          std::chrono::milliseconds fence_timeout);

  Result<Applied> ApplyInsert(const std::vector<double>& values,
                              uint64_t timestamp_ms = 0) override;
  Result<Applied> ApplyDelete(ObjectId id) override;
  Result<Applied> ApplyExpire(uint64_t cutoff_ms) override;
  int num_dims() const override;

 private:
  Result<Applied> Fence(Result<Applied> applied);

  InsertHandler* const base_;
  WalShipper* const shipper_;
  const std::chrono::milliseconds fence_timeout_;
};

}  // namespace skycube

#endif  // SKYCUBE_STORAGE_REPLICATION_H_
