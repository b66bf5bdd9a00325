#include "storage/durable_ingest.h"

#include <utility>

#include "common/macros.h"

namespace skycube {

DurableIngest::DurableIngest(std::string dir, DurableIngestOptions options)
    : dir_(std::move(dir)),
      options_(options),
      checkpointer_(dir_, options.keep_checkpoints) {}

Result<std::unique_ptr<DurableIngest>> DurableIngest::Open(
    const std::string& dir, const Dataset* bootstrap,
    DurableIngestOptions options) {
  std::unique_ptr<DurableIngest> ingest(new DurableIngest(dir, options));
  // No concurrent access is possible before Open returns, but the members
  // set up here are guarded, so hold the (uncontended) lock for the
  // analysis — it also publishes them to whichever thread uses the handle.
  MutexLock lock(&ingest->mu_);
  uint64_t next_lsn = 1;
  if (DirHasDurableState(dir)) {
    Result<RecoveredState> recovered = RecoverFromDir(dir);
    if (!recovered.ok()) return recovered.status();
    ingest->maintainer_ = std::move(recovered.value().maintainer);
    ingest->recovery_stats_ = recovered.value().stats;
    ingest->recovered_ = true;
    ingest->last_checkpoint_lsn_ = recovered.value().stats.checkpoint_lsn;
    next_lsn = recovered.value().stats.next_lsn;
  } else {
    if (bootstrap == nullptr) {
      return Status::NotFound(
          "data directory has no durable state and no bootstrap dataset "
          "was provided");
    }
    ingest->maintainer_ =
        std::make_unique<IncrementalCubeMaintainer>(*bootstrap);
    // The LSN-0 checkpoint makes the bootstrap rows durable before the
    // first insert is ever acknowledged; without it a crash before the
    // first periodic checkpoint would have a WAL with no base to replay
    // onto.
    Status wrote = ingest->checkpointer_.Write(
        0, ingest->maintainer_->data(), ingest->maintainer_->groups(),
        ingest->maintainer_->live(), ingest->maintainer_->timestamps());
    if (!wrote.ok()) return wrote;
  }
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(dir, next_lsn, options.wal);
  if (!wal.ok()) return wal.status();
  ingest->wal_ = std::move(wal).value();
  return ingest;
}

Result<InsertHandler::Applied> DurableIngest::ApplyInsert(
    const std::vector<double>& values, uint64_t timestamp_ms) {
  MutexLock lock(&mu_);
  if (static_cast<int>(values.size()) != maintainer_->data().num_dims()) {
    return Status::InvalidArgument("insert width must equal num_dims");
  }
  // Log first: an insert the WAL did not accept is never applied, so the
  // in-memory cube can run *behind* the durable log but never ahead of it.
  const uint32_t row =
      static_cast<uint32_t>(maintainer_->data().num_objects());
  Result<uint64_t> appended =
      wal_->Append(EncodeInsertPayload(values, row, timestamp_ms));
  if (!appended.ok()) return appended.status();
  const uint64_t lsn = appended.value();

  Applied applied;
  applied.path = maintainer_->Insert(values, timestamp_ms);
  applied.lsn = lsn;
  applied.num_objects = maintainer_->data().num_objects();
  applied.num_live = maintainer_->num_live();
  applied.cube = std::make_shared<const CompressedSkylineCube>(
      maintainer_->MakeCube());

  ++ops_since_checkpoint_;
  MaybeCheckpointLocked(lsn);
  return applied;
}

Result<InsertHandler::Applied> DurableIngest::ApplyDelete(ObjectId id) {
  MutexLock lock(&mu_);
  Applied applied;
  applied.num_objects = maintainer_->data().num_objects();
  applied.num_live = maintainer_->num_live();
  if (!maintainer_->IsLive(id)) {
    // Nothing changes, so nothing is logged: replaying the log must not
    // manufacture a delete of a row that was never acked.
    applied.delete_path = DeletePath::kAlreadyDead;
    return applied;
  }
  Result<uint64_t> appended = wal_->Append(EncodeDeletePayload(id, 0));
  if (!appended.ok()) return appended.status();
  const uint64_t lsn = appended.value();

  applied.delete_path = maintainer_->Remove(id);
  applied.lsn = lsn;
  applied.num_live = maintainer_->num_live();
  applied.cube = std::make_shared<const CompressedSkylineCube>(
      maintainer_->MakeCube());

  ++ops_since_checkpoint_;
  MaybeCheckpointLocked(lsn);
  return applied;
}

Result<InsertHandler::Applied> DurableIngest::ApplyExpire(
    uint64_t cutoff_ms) {
  MutexLock lock(&mu_);
  Applied applied;
  applied.num_objects = maintainer_->data().num_objects();
  applied.num_live = maintainer_->num_live();
  // Log the whole pass before tombstoning anything: the expiring set is a
  // deterministic function of (rows, timestamps, cutoff) under mu_, so the
  // logged records and the batch below agree; a crash mid-logging recovers
  // a clean prefix of the pass.
  const std::vector<uint8_t>& live = maintainer_->live();
  const std::vector<uint64_t>& stamps = maintainer_->timestamps();
  uint64_t last_lsn = 0;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (!live[id] || stamps[id] == 0 || stamps[id] >= cutoff_ms) continue;
    Result<uint64_t> appended =
        wal_->Append(EncodeDeletePayload(id, cutoff_ms));
    if (!appended.ok()) return appended.status();
    last_lsn = appended.value();
  }
  applied.num_expired = maintainer_->ExpireOlderThan(cutoff_ms);
  applied.lsn = last_lsn;
  applied.num_live = maintainer_->num_live();
  if (applied.num_expired == 0) return applied;
  last_expiry_ms_ = cutoff_ms;
  applied.cube = std::make_shared<const CompressedSkylineCube>(
      maintainer_->MakeCube());
  ops_since_checkpoint_ += applied.num_expired;
  MaybeCheckpointLocked(last_lsn);
  return applied;
}

Result<InsertHandler::Applied> DurableIngest::ApplyReplicated(
    uint64_t lsn, std::string_view payload) {
  MutexLock lock(&mu_);
  if (lsn != wal_->next_lsn()) {
    return Status::InvalidArgument(
        "replicated record out of order: got LSN " + std::to_string(lsn) +
        ", expected " + std::to_string(wal_->next_lsn()));
  }
  // Checked before it is logged: a payload this node cannot apply must
  // not enter its WAL (the log would no longer replay cleanly). The lambda
  // runs under mu_, which the thread-safety analysis cannot see into.
  WriteAheadLog* wal = wal_.get();
  Result<ReplayedOp> replayed = ReplayOp(payload, maintainer_.get(), [&] {
    return wal->Append(payload).status();
  });
  if (!replayed.ok()) return replayed.status();

  Applied applied;
  applied.lsn = lsn;
  applied.path = replayed.value().insert_path;
  applied.delete_path = replayed.value().delete_path;
  if (replayed.value().op == WalOp::kInsert ||
      applied.delete_path != DeletePath::kAlreadyDead) {
    applied.cube = std::make_shared<const CompressedSkylineCube>(
        maintainer_->MakeCube());
  }
  applied.num_objects = maintainer_->data().num_objects();
  applied.num_live = maintainer_->num_live();
  ++ops_since_checkpoint_;
  MaybeCheckpointLocked(lsn);
  return applied;
}

int DurableIngest::num_dims() const {
  MutexLock lock(&mu_);
  return maintainer_->data().num_dims();
}

Status DurableIngest::Flush() {
  MutexLock lock(&mu_);
  return wal_->Sync();
}

void DurableIngest::MaybeCheckpointLocked(uint64_t lsn) {
  if (options_.checkpoint_every > 0 &&
      ops_since_checkpoint_ >= options_.checkpoint_every) {
    // A failed periodic checkpoint does not fail the mutation — it is in
    // the WAL; only the truncation horizon stops advancing.
    (void)CheckpointLocked(lsn);
  }
}

Status DurableIngest::CheckpointLocked(uint64_t lsn) {
  // Sync the log first: if the rename lands, every record the checkpoint
  // covers is also durable, so the (old checkpoint + WAL) fallback view
  // and the new checkpoint agree.
  Status synced = wal_->Sync();
  if (!synced.ok()) return synced;
  Status wrote =
      checkpointer_.Write(lsn, maintainer_->data(), maintainer_->groups(),
                          maintainer_->live(), maintainer_->timestamps());
  if (!wrote.ok()) return wrote;
  last_checkpoint_lsn_ = lsn;
  ops_since_checkpoint_ = 0;
  // Truncate only through the *oldest retained* checkpoint: a corrupt
  // newest checkpoint must still find its WAL suffix under the older one.
  return wal_->TruncateThrough(checkpointer_.oldest_retained_lsn());
}

Status DurableIngest::Checkpoint() {
  MutexLock lock(&mu_);
  const uint64_t lsn = wal_->next_lsn() - 1;
  if (lsn == last_checkpoint_lsn_ && checkpointer_.checkpoints_written() > 0) {
    return Status::Ok();  // nothing new to cover
  }
  return CheckpointLocked(lsn);
}

Status DurableIngest::Drain() {
  Status flushed = Flush();
  if (!flushed.ok()) return flushed;
  return Checkpoint();
}

DurableIngestStats DurableIngest::stats() const {
  MutexLock lock(&mu_);
  DurableIngestStats stats;
  stats.recovered = recovered_;
  stats.recovery = recovery_stats_;
  stats.wal = wal_->stats();
  stats.checkpoints_written = checkpointer_.checkpoints_written();
  stats.last_checkpoint_lsn = last_checkpoint_lsn_;
  stats.ops_since_checkpoint = ops_since_checkpoint_;
  stats.num_objects = static_cast<uint64_t>(
      maintainer_->data().num_objects());
  stats.num_live = static_cast<uint64_t>(maintainer_->num_live());
  stats.num_tombstones = stats.num_objects - stats.num_live;
  stats.num_groups = static_cast<uint64_t>(maintainer_->groups().size());
  stats.last_expiry_ms = last_expiry_ms_;
  return stats;
}

}  // namespace skycube
