// DurableIngest: the durable InsertHandler — WAL append (the ack point),
// then cube maintenance, then periodic checkpoints with WAL truncation.
//
// Write path of one insert (docs/ROBUSTNESS.md, "Durability & recovery"):
//   1. encode the row and append it to the WAL; Append returning OK is the
//      acknowledgement point — under --fsync-policy always the record has
//      hit stable storage before the client ever sees "ok";
//   2. apply the row to the IncrementalCubeMaintainer (classifying it into
//      one of the four maintenance paths) and hand the post-insert snapshot
//      back for the service to swap in;
//   3. every checkpoint_every applied ops, write an atomic checkpoint
//      of dataset + cube + liveness and truncate WAL segments the *oldest
//      retained* checkpoint makes redundant.
// Deletes follow the same shape (op-typed WAL record, then tombstone); an
// expiry pass logs one delete record per expiring row before batching the
// tombstones, so a crash mid-pass recovers a clean prefix of the pass.
// A WAL failure in step 1 rejects the mutation without applying it — the
// in-memory cube never runs ahead of the log, so a crash after a rejected
// mutation recovers to a state that simply does not contain it.
//
// Open() decides between recovery and bootstrap: a directory holding at
// least one complete checkpoint is recovered (newest valid checkpoint +
// WAL replay); a fresh directory requires a bootstrap dataset, which is
// checkpointed at LSN 0 before the WAL opens, so every later crash has a
// base state to recover from.
#ifndef SKYCUBE_STORAGE_DURABLE_INGEST_H_
#define SKYCUBE_STORAGE_DURABLE_INGEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/maintenance.h"
#include "dataset/dataset.h"
#include "service/ingest.h"
#include "storage/checkpointer.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace skycube {

struct DurableIngestOptions {
  WalOptions wal;
  /// Applied mutations between automatic checkpoints (0 = only explicit
  /// Checkpoint()/Drain() calls checkpoint).
  uint64_t checkpoint_every = 256;
  /// Newest checkpoints retention keeps on disk.
  size_t keep_checkpoints = 2;
};

/// Point-in-time counters of one DurableIngest instance.
struct DurableIngestStats {
  /// True iff Open() recovered existing state (vs. bootstrapped).
  bool recovered = false;
  RecoveryStats recovery;  // meaningful iff recovered
  WalStats wal;
  uint64_t checkpoints_written = 0;
  uint64_t last_checkpoint_lsn = 0;
  /// Applied mutations (inserts + deletes + expired rows) since the last
  /// checkpoint.
  uint64_t ops_since_checkpoint = 0;
  uint64_t num_objects = 0;
  uint64_t num_live = 0;
  uint64_t num_tombstones = 0;
  uint64_t num_groups = 0;
  /// Cutoff of the last ApplyExpire pass that tombstoned anything (ms), 0
  /// if none ran yet.
  uint64_t last_expiry_ms = 0;
};

/// The durable write path. ApplyInsert calls are serialized by the caller
/// (SkycubeService holds its ingest mutex across them); stats() and
/// maintainer() may race an insert only in the trivial single-threaded
/// sense — an internal mutex keeps them coherent regardless.
class DurableIngest : public InsertHandler {
 public:
  /// Opens data directory `dir`. If it holds durable state, recovers it
  /// (`bootstrap` is ignored); otherwise `bootstrap` must be non-null and
  /// becomes the LSN-0 checkpoint. Fails rather than serve from a damaged
  /// or empty directory.
  static Result<std::unique_ptr<DurableIngest>> Open(
      const std::string& dir, const Dataset* bootstrap,
      DurableIngestOptions options = {});

  /// WAL append (ack point) → maintainer insert → periodic checkpoint.
  Result<Applied> ApplyInsert(const std::vector<double>& values,
                              uint64_t timestamp_ms = 0) override
      EXCLUDES(mu_);
  /// WAL append (ack point) → maintainer tombstone → periodic checkpoint.
  /// An already-dead target skips the WAL entirely (nothing changed, so
  /// nothing to make durable) and succeeds.
  Result<Applied> ApplyDelete(ObjectId id) override EXCLUDES(mu_);
  /// Logs one delete record per expiring row (so a crash mid-pass recovers
  /// a clean prefix of the pass), then tombstones them in one batch.
  Result<Applied> ApplyExpire(uint64_t cutoff_ms) override EXCLUDES(mu_);
  int num_dims() const override EXCLUDES(mu_);

  /// Replica apply path (storage/replication.h): appends the shipped
  /// payload byte-verbatim at exactly `lsn` — which must equal the local
  /// WAL's next LSN, the stream is contiguous by construction — then
  /// applies the decoded op through the maintainer with the same semantics
  /// recovery replay uses (v3 inserts must land at their recorded row id;
  /// legacy inserts append; already-dead deletes are no-ops). The byte
  /// identity makes the follower's log prefix equal the primary's.
  Result<Applied> ApplyReplicated(uint64_t lsn, std::string_view payload)
      EXCLUDES(mu_);

  /// Forces pending WAL records to stable storage.
  Status Flush() EXCLUDES(mu_);

  /// Writes a checkpoint at the current LSN now and truncates the WAL
  /// through the retention horizon. No-op if nothing changed since the
  /// last checkpoint.
  Status Checkpoint() EXCLUDES(mu_);

  /// Shutdown path: Flush + final Checkpoint. After OK, recovery replays
  /// zero WAL records.
  Status Drain() EXCLUDES(mu_);

  /// Read-only view for post-shutdown inspection (tests, recovery
  /// verification). Deliberately unlocked: callers use it only after
  /// ingest traffic has stopped, and holding mu_ across the returned
  /// reference would be meaningless anyway.
  const IncrementalCubeMaintainer& maintainer() const
      NO_THREAD_SAFETY_ANALYSIS {
    return *maintainer_;
  }
  DurableIngestStats stats() const EXCLUDES(mu_);

 private:
  DurableIngest(std::string dir, DurableIngestOptions options);

  /// Periodic checkpoint trigger (best-effort; failures don't propagate).
  void MaybeCheckpointLocked(uint64_t lsn) REQUIRES(mu_);
  /// Checkpoint at `lsn` + WAL truncation.
  Status CheckpointLocked(uint64_t lsn) REQUIRES(mu_);

  std::string dir_;
  DurableIngestOptions options_;
  std::unique_ptr<IncrementalCubeMaintainer> maintainer_ GUARDED_BY(mu_);
  std::unique_ptr<WriteAheadLog> wal_ GUARDED_BY(mu_);
  Checkpointer checkpointer_ GUARDED_BY(mu_);
  bool recovered_ GUARDED_BY(mu_) = false;
  RecoveryStats recovery_stats_ GUARDED_BY(mu_);
  uint64_t last_checkpoint_lsn_ GUARDED_BY(mu_) = 0;
  uint64_t ops_since_checkpoint_ GUARDED_BY(mu_) = 0;
  uint64_t last_expiry_ms_ GUARDED_BY(mu_) = 0;
  mutable Mutex mu_;
};

}  // namespace skycube

#endif  // SKYCUBE_STORAGE_DURABLE_INGEST_H_
