#include "storage/recovery.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "storage/checkpointer.h"
#include "storage/wal.h"

namespace skycube {

namespace {

/// Applies one decoded WAL op to the maintainer. Returns false on format
/// drift (wrong width, or a v3 insert whose recorded id disagrees with the
/// dataset) — the caller stops the replay exactly as it would at a damaged
/// record.
bool ApplyOp(const WalOpRecord& op, IncrementalCubeMaintainer* maintainer,
             RecoveryStats* stats) {
  if (op.op == WalOp::kInsert) {
    if (static_cast<int>(op.values.size()) !=
        maintainer->data().num_dims()) {
      return false;
    }
    if (!op.legacy &&
        op.row != static_cast<uint32_t>(maintainer->data().num_objects())) {
      return false;
    }
    maintainer->Insert(op.values, op.timestamp_ms);
    ++stats->wal_inserts_replayed;
    return true;
  }
  // A delete of a never-acked or already-dead row is a no-op by design: a
  // durable delete record outlives its target only when the target insert
  // never became durable (or an earlier delete/expiry already won).
  if (maintainer->Remove(op.row) == DeletePath::kAlreadyDead) {
    ++stats->wal_deletes_ignored;
  } else {
    ++stats->wal_deletes_replayed;
  }
  return true;
}

}  // namespace

bool DirHasDurableState(const std::string& dir) {
  return !ListCheckpoints(dir).empty();
}

Result<RecoveredState> RecoverFromDir(const std::string& dir) {
  WallTimer timer;
  RecoveredState state;
  RecoveryStats& stats = state.stats;

  std::vector<uint64_t> lsns = ListCheckpoints(dir);
  stats.checkpoints_found = lsns.size();
  if (lsns.empty()) {
    return Status::NotFound("no checkpoint in " + dir);
  }

  // Newest valid checkpoint wins; anything that fails its checksum, its
  // parse, or the cube cross-check is rejected wholesale.
  std::string last_error;
  for (size_t i = lsns.size(); i-- > 0;) {
    Result<CheckpointData> loaded = LoadCheckpoint(dir, lsns[i]);
    if (!loaded.ok()) {
      ++stats.checkpoints_rejected;
      last_error = loaded.status().ToString();
      continue;
    }
    const size_t rows = loaded.value().data.num_objects();
    auto maintainer = std::make_unique<IncrementalCubeMaintainer>(
        std::move(loaded.value().data), std::move(loaded.value().live),
        std::move(loaded.value().timestamps));
    // Cross-check: the cube rebuilt over the checkpoint's *live* rows must
    // equal the checkpointed cube (both normalized). A mismatch means the
    // checkpoint does not describe the state it claims to — treat it
    // exactly like a checksum failure.
    if (maintainer->groups() != loaded.value().groups) {
      ++stats.checkpoints_rejected;
      last_error = "checkpoint " + std::to_string(lsns[i]) +
                   " failed the cube cross-check";
      continue;
    }
    stats.checkpoint_lsn = lsns[i];
    stats.checkpoint_rows = rows;
    stats.checkpoint_live_rows = maintainer->num_live();
    state.maintainer = std::move(maintainer);
    break;
  }

  if (state.maintainer == nullptr) {
    // Every checkpoint is damaged. If the WAL still reaches back to LSN 1
    // the acked ops can be rebuilt from the log alone; rows older than the
    // log (the bootstrap set) are gone and come back only as tombstoned
    // placeholders so ids stay exact.
    Result<WalReadResult> full = ReadWal(dir, 0);
    if (!full.ok()) return full.status();
    const std::vector<WalRecord>& records = full.value().records;
    int dims = 0;
    uint32_t base_rows = 0;
    if (!records.empty() && records.front().lsn == 1) {
      for (const WalRecord& record : records) {
        Result<WalOpRecord> op = DecodeOpPayload(record.payload);
        if (!op.ok()) break;
        if (op.value().op == WalOp::kInsert) {
          dims = static_cast<int>(op.value().values.size());
          base_rows = op.value().legacy ? 0 : op.value().row;
          break;
        }
      }
    }
    if (dims < 1) {
      return Status::Internal("every checkpoint in " + dir +
                              " is damaged (last: " + last_error +
                              ") and the WAL cannot seed a rebuild");
    }
    Dataset data(dims);
    const std::vector<double> placeholder(dims, 0.0);
    for (uint32_t i = 0; i < base_rows; ++i) data.AddRow(placeholder);
    state.maintainer = std::make_unique<IncrementalCubeMaintainer>(
        std::move(data), std::vector<uint8_t>(base_rows, 0),
        std::vector<uint64_t>(base_rows, 0));
    stats.wal_only_rebuild = true;
    stats.base_rows_lost = base_rows;
  }

  // Replay the WAL suffix. The read already validated every record's
  // checksum and LSN contiguity; a record that fails to decode or apply
  // here would indicate format drift, and stops the replay the same way a
  // damaged record stops the scan.
  Result<WalReadResult> wal = ReadWal(dir, stats.checkpoint_lsn);
  if (!wal.ok()) return wal.status();
  stats.wal_suffix_discarded = wal.value().damaged_suffix;
  stats.wal_bytes_discarded = wal.value().discarded_bytes;
  uint64_t last_applied = stats.checkpoint_lsn;
  for (const WalRecord& record : wal.value().records) {
    Result<WalOpRecord> op = DecodeOpPayload(record.payload);
    if (!op.ok() || !ApplyOp(op.value(), state.maintainer.get(), &stats)) {
      stats.wal_suffix_discarded = true;
      break;
    }
    ++stats.wal_records_replayed;
    last_applied = record.lsn;
  }
  stats.next_lsn = last_applied + 1;
  stats.seconds_total = timer.ElapsedSeconds();
  return state;
}

}  // namespace skycube
