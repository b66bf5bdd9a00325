// Startup recovery for a durable ingest directory: load the newest valid
// checkpoint (falling back to older ones when a checkpoint fails its
// checksum or cross-check), then replay the mixed-op WAL suffix through
// IncrementalCubeMaintainer.
//
// Recovery sequence (docs/ROBUSTNESS.md):
//   1. List checkpoints, newest first. For each: load (outer FNV-1a
//      checksum + embedded cube v2 checksum must both verify), rebuild the
//      maintainer from the checkpointed dataset *restricted to its live
//      rows*, and cross-check that the rebuilt groups exactly equal the
//      checkpointed groups — a checkpoint that fails any of these is
//      *rejected*, never partially applied.
//   2. Replay WAL records with lsn > checkpoint_lsn in order through
//      ReplayOp: inserts through Insert() (with their timestamps), deletes
//      through Remove(). A delete whose target was never acked — or
//      already dead — is a counted no-op, not an error: a durable delete
//      record can outlive its target only if the target never became
//      durable. The scan stops at the first damaged record, and the replay
//      at the first record that does not decode or apply; the rest is
//      reported, not loaded.
//   3. When *every* checkpoint is damaged but the WAL still reaches back
//      to LSN 1, fall back to a WAL-only rebuild: replay the entire log
//      over an empty base. Rows that existed before the first WAL record
//      (the bootstrap set) are unrecoverable — they are re-created as
//      tombstoned placeholders so the surviving ids stay exact, and their
//      count is reported as base_rows_lost.
//   4. Report per-phase counters and the next LSN to append at.
//
// The result is a maintainer whose groups() provably equal
// StellarOverLive() over the recovered rows — the crash-consistency
// invariant tools/skycube_crashtest.cc enforces under random SIGKILL.
#ifndef SKYCUBE_STORAGE_RECOVERY_H_
#define SKYCUBE_STORAGE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/maintenance.h"
#include "storage/wal.h"

namespace skycube {

/// Per-phase counters of one recovery pass.
struct RecoveryStats {
  uint64_t checkpoints_found = 0;
  /// Checkpoints rejected before one loaded (checksum/parse/cross-check).
  uint64_t checkpoints_rejected = 0;
  /// LSN of the checkpoint recovery loaded (0 under a WAL-only rebuild).
  uint64_t checkpoint_lsn = 0;
  uint64_t checkpoint_rows = 0;
  uint64_t checkpoint_live_rows = 0;
  uint64_t wal_records_replayed = 0;
  uint64_t wal_inserts_replayed = 0;
  /// Deletes that tombstoned a live row.
  uint64_t wal_deletes_replayed = 0;
  /// Deletes whose target was never acked or already dead (no-ops).
  uint64_t wal_deletes_ignored = 0;
  /// True iff the WAL scan stopped before its physical end (torn tail or a
  /// corrupt record) — the damaged suffix was discarded, not loaded.
  bool wal_suffix_discarded = false;
  uint64_t wal_bytes_discarded = 0;
  /// True iff every checkpoint was damaged and the state was rebuilt from
  /// the WAL alone (degraded: bootstrap rows are lost).
  bool wal_only_rebuild = false;
  /// Rows that predate the WAL and could not be recovered (WAL-only
  /// rebuilds only; recreated as tombstoned placeholders).
  uint64_t base_rows_lost = 0;
  /// First LSN a reopened WAL should assign.
  uint64_t next_lsn = 1;
  double seconds_total = 0;
};

/// A recovered ingest state, ready to serve and to keep ingesting.
struct RecoveredState {
  std::unique_ptr<IncrementalCubeMaintainer> maintainer;
  RecoveryStats stats;
};

/// What replaying one logged op did.
struct ReplayedOp {
  WalOp op = WalOp::kInsert;
  InsertPath insert_path = InsertPath::kNoOp;         // inserts
  DeletePath delete_path = DeletePath::kAlreadyDead;  // deletes; dead = no-op
};

/// The replay rules for one logged op, shared by recovery and the replica
/// apply path (DurableIngest::ApplyReplicated): decode `payload`, check
/// it, and apply it to `maintainer`. A payload that does not decode, or an
/// insert whose width differs from the cube's or whose logged row id is
/// not the next one, applies nothing and is kInvalidArgument. A delete
/// whose target is dead or was never acked is a no-op. `log`, when set,
/// runs after the checks and before the apply, and its failure also
/// applies nothing: the replica appends the record to its own WAL there.
[[nodiscard]] Result<ReplayedOp> ReplayOp(
    std::string_view payload, IncrementalCubeMaintainer* maintainer,
    const std::function<Status()>& log = nullptr);

/// True iff `dir` holds at least one complete checkpoint — the signal that
/// a data directory carries state to recover rather than bootstrap.
bool DirHasDurableState(const std::string& dir);

/// Runs the recovery sequence over `dir`. Fails with kNotFound when the
/// directory has no checkpoint at all, and kInternal when every checkpoint
/// is damaged and the WAL does not reach back to LSN 1 (nothing is ever
/// silently loaded from a bad file).
Result<RecoveredState> RecoverFromDir(const std::string& dir);

}  // namespace skycube

#endif  // SKYCUBE_STORAGE_RECOVERY_H_
