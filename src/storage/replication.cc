#include "storage/replication.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "storage/checkpointer.h"
#include "storage/durable_ingest.h"
#include "storage/file_io.h"

namespace skycube {

std::string EncodeShippedRecords(const std::vector<WalRecord>& records) {
  std::string out;
  for (const WalRecord& record : records) {
    PutU64(&out, record.lsn);
    PutU32(&out, static_cast<uint32_t>(record.payload.size()));
    out.append(record.payload);
  }
  return out;
}

Result<std::vector<WalRecord>> DecodeShippedRecords(std::string_view bytes) {
  std::vector<WalRecord> records;
  size_t offset = 0;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < 12) {
      return Status::InvalidArgument("truncated shipped record header");
    }
    WalRecord record;
    record.lsn = GetU64(bytes.data() + offset);
    const uint32_t len = GetU32(bytes.data() + offset + 8);
    offset += 12;
    if (bytes.size() - offset < len) {
      return Status::InvalidArgument("truncated shipped record payload");
    }
    record.payload.assign(bytes.data() + offset, len);
    offset += len;
    records.push_back(std::move(record));
  }
  return records;
}

// --- WalShipper -----------------------------------------------------------

namespace {

/// Batch ceiling when the fetch does not name one.
constexpr uint32_t kShipperDefaultBatch = 256;
/// Hard ceiling regardless of what the fetch asks for.
constexpr uint32_t kShipperMaxBatch = 4096;
/// Long-poll ceiling: a caught-up fetch blocks at most this long.
constexpr std::chrono::milliseconds kShipperMaxWait{2000};
/// A follower whose last fetch is older than this stops counting toward
/// followers() (and its ack stops holding back WaitAcked reporting).
constexpr std::chrono::milliseconds kFollowerTtl{10000};

}  // namespace

WalShipper::WalShipper(std::string dir) : dir_(std::move(dir)) {}

Result<ShippedBatch> WalShipper::Fetch(uint64_t ack_lsn,
                                       uint32_t max_records,
                                       std::chrono::milliseconds wait) {
  const uint32_t batch =
      max_records == 0 ? kShipperDefaultBatch
                       : std::min(max_records, kShipperMaxBatch);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::min(wait, kShipperMaxWait);
  {
    MutexLock lock(&mu_);
    ++stats_.fetches;
    last_fetch_ = std::chrono::steady_clock::now();
    if (ack_lsn > acked_lsn_) {
      acked_lsn_ = ack_lsn;
      ack_advanced_.NotifyAll();
    }
  }
  for (;;) {
    // The log may have been truncated (checkpoint retention) past the
    // follower's ack — incremental catch-up is impossible, re-bootstrap.
    const uint64_t oldest = WalOldestStart(dir_);
    if (oldest == 0 || oldest > ack_lsn + 1) {
      return Status::NotFound(
          "WAL no longer reaches back to the follower's ack; snapshot "
          "bootstrap required");
    }
    Result<WalReadResult> read = ReadWal(dir_, ack_lsn);
    if (!read.ok()) return read.status();
    WalReadResult& result = read.value();
    // A torn in-flight append just bounds the batch at the valid prefix —
    // the next fetch picks up the rest once the appender finishes it.
    if (!result.records.empty()) {
      if (result.records.size() > batch) result.records.resize(batch);
      ShippedBatch shipped;
      shipped.records = std::move(result.records);
      MutexLock lock(&mu_);
      tip_lsn_ = std::max(tip_lsn_, result.last_valid_lsn);
      shipped.tip_lsn = tip_lsn_;
      stats_.records_shipped += shipped.records.size();
      return shipped;
    }
    // Caught up: long-poll until an append lands or the deadline passes.
    MutexLock lock(&mu_);
    tip_lsn_ = std::max(tip_lsn_, result.last_valid_lsn);
    if (std::chrono::steady_clock::now() >= deadline ||
        tip_lsn_ > ack_lsn) {
      // Deadline, or a notify raced the read — return empty (the follower
      // refetches immediately when tip > ack).
      ShippedBatch shipped;
      shipped.tip_lsn = tip_lsn_;
      return shipped;
    }
    while (tip_lsn_ <= ack_lsn) {
      if (!tip_advanced_.WaitUntil(&mu_, deadline)) break;
    }
    if (tip_lsn_ <= ack_lsn) {
      ShippedBatch shipped;
      shipped.tip_lsn = tip_lsn_;
      return shipped;
    }
    // New records appeared — loop around and read them.
  }
}

Result<ReplicationSnapshot> WalShipper::Snapshot() {
  const std::vector<uint64_t> lsns = ListCheckpoints(dir_);
  if (lsns.empty()) {
    return Status::NotFound("no checkpoint to ship from " + dir_);
  }
  const uint64_t lsn = lsns.back();
  Result<std::string> bytes =
      ReadFileBytes(dir_ + "/" + CheckpointFileName(lsn));
  if (!bytes.ok()) return bytes.status();
  ReplicationSnapshot snapshot;
  snapshot.lsn = lsn;
  snapshot.bytes = std::move(bytes).value();
  MutexLock lock(&mu_);
  ++stats_.snapshots_shipped;
  return snapshot;
}

void WalShipper::NotifyAppended(uint64_t lsn) {
  MutexLock lock(&mu_);
  if (lsn > tip_lsn_) {
    tip_lsn_ = lsn;
    tip_advanced_.NotifyAll();
  }
}

bool WalShipper::WaitAcked(uint64_t lsn, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  ++stats_.fence_waits;
  while (acked_lsn_ < lsn) {
    const auto now = std::chrono::steady_clock::now();
    // Nothing to wait for without a live follower: degrade immediately
    // rather than stalling every mutation while the replica is down.
    const bool follower_live =
        last_fetch_ != std::chrono::steady_clock::time_point{} &&
        now - last_fetch_ <= kFollowerTtl;
    if (now >= deadline || !follower_live) {
      ++stats_.fence_timeouts;
      return false;
    }
    ack_advanced_.WaitUntil(&mu_, deadline);
  }
  return true;
}

WalShipperStats WalShipper::stats() const {
  MutexLock lock(&mu_);
  WalShipperStats stats = stats_;
  stats.acked_lsn = acked_lsn_;
  stats.tip_lsn = tip_lsn_;
  const auto now = std::chrono::steady_clock::now();
  stats.followers =
      (last_fetch_ != std::chrono::steady_clock::time_point{} &&
       now - last_fetch_ <= kFollowerTtl)
          ? 1
          : 0;
  return stats;
}

// --- Bootstrap / rewind ---------------------------------------------------

Status InstallSnapshot(const std::string& dir, uint64_t lsn,
                       std::string_view bytes) {
  const std::string name = CheckpointFileName(lsn);
  if (Status wrote = WriteFileAtomically(dir, name, bytes); !wrote.ok()) {
    return wrote;
  }
  // The file is self-validating; prove it loads before anyone recovers
  // from it, so a corrupted ship fails here instead of at serve time.
  if (Result<CheckpointData> loaded = LoadCheckpoint(dir, lsn);
      !loaded.ok()) {
    std::error_code ec;
    std::filesystem::remove(dir + "/" + name, ec);
    return Status::Internal("shipped snapshot failed validation: " +
                            loaded.status().message());
  }
  return Status::Ok();
}

Status WipeDurableState(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return Status::Ok();
  bool removed_any = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool wal = name.rfind("wal-", 0) == 0;
    const bool checkpoint = name.rfind("checkpoint-", 0) == 0;
    if (!wal && !checkpoint) continue;
    std::error_code remove_ec;
    if (!std::filesystem::remove(entry.path(), remove_ec)) {
      return Status::Internal("cannot remove: " + entry.path().string());
    }
    removed_any = true;
  }
  if (ec) return Status::Internal("cannot list data dir: " + dir);
  if (removed_any) {
    if (Status synced = SyncDir(dir); !synced.ok()) return synced;
  }
  return Status::Ok();
}

Status RewindDurableState(const std::string& dir, uint64_t fence_lsn) {
  bool has_base = false;
  for (uint64_t lsn : ListCheckpoints(dir)) {
    if (lsn <= fence_lsn) {
      has_base = true;
      continue;
    }
    const std::string path = dir + "/" + CheckpointFileName(lsn);
    std::error_code ec;
    if (!std::filesystem::remove(path, ec)) {
      return Status::Internal("cannot remove checkpoint: " + path);
    }
  }
  const uint64_t oldest = WalOldestStart(dir);
  if (!has_base && (oldest == 0 || oldest > 1)) {
    return Status::InvalidArgument(
        "rewind would lose the base state: no checkpoint at or below the "
        "fence and the WAL does not reach back to LSN 1");
  }
  if (Status synced = SyncDir(dir); !synced.ok()) return synced;
  // Opening the WAL at fence + 1 physically truncates everything beyond
  // the fence; the handle is closed immediately — the caller reopens the
  // directory through DurableIngest::Open.
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(dir, fence_lsn + 1);
  if (!wal.ok()) return wal.status();
  return Status::Ok();
}

// --- WalFollower ----------------------------------------------------------

namespace {

/// Records per fetch.
constexpr uint32_t kFollowerBatch = 512;
/// Long-poll wait the follower asks the source for when caught up.
constexpr std::chrono::milliseconds kFollowerPollWait{500};
/// Backoff between retries after a fetch/apply error.
constexpr std::chrono::milliseconds kFollowerRetryBackoff{200};

}  // namespace

WalFollower::WalFollower(DurableIngest* ingest, ReplicationSource* source,
                         AppliedCallback on_applied,
                         WalFollowerOptions options)
    : ingest_(ingest),
      source_(source),
      on_applied_(std::move(on_applied)),
      options_(options) {}

WalFollower::~WalFollower() { Stop(); }

void WalFollower::Start() {
  {
    MutexLock lock(&mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
    stats_.running = true;
  }
  thread_ = std::thread([this] { Run(); });
}

void WalFollower::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stop_ = true;
    stop_cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  MutexLock lock(&mu_);
  running_ = false;
  stats_.running = false;
}

uint64_t WalFollower::applied_lsn() const {
  MutexLock lock(&mu_);
  return stats_.applied_lsn;
}

WalFollowerStats WalFollower::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void WalFollower::Run() {
  // The apply cursor: everything through this LSN is already in our WAL.
  uint64_t applied = ingest_->stats().wal.next_lsn - 1;
  {
    MutexLock lock(&mu_);
    stats_.applied_lsn = applied;
  }
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (stop_) return;
    }
    Result<ShippedBatch> fetched =
        source_->Fetch(applied, kFollowerBatch, kFollowerPollWait);
    if (!fetched.ok()) {
      MutexLock lock(&mu_);
      ++stats_.fetch_errors;
      stats_.last_error = fetched.status().message();
      if (stop_) return;
      // Includes the truncated-past-our-ack case: keep retrying so an
      // operator restart (which re-bootstraps) finds the loop alive and
      // the error visible in stats.
      stop_cv_.WaitUntil(
          &mu_, std::chrono::steady_clock::now() + kFollowerRetryBackoff);
      continue;
    }
    {
      MutexLock lock(&mu_);
      stats_.tip_lsn = std::max(stats_.tip_lsn, fetched.value().tip_lsn);
    }
    for (const WalRecord& record : fetched.value().records) {
      {
        MutexLock lock(&mu_);
        if (stop_) return;
      }
      Result<InsertHandler::Applied> result =
          ingest_->ApplyReplicated(record.lsn, record.payload);
      if (!result.ok()) {
        MutexLock lock(&mu_);
        ++stats_.apply_errors;
        stats_.last_error = result.status().message();
        if (stop_) return;
        stop_cv_.WaitUntil(&mu_, std::chrono::steady_clock::now() +
                                     kFollowerRetryBackoff);
        break;  // refetch from the cursor; the stream must stay contiguous
      }
      applied = record.lsn;
      {
        MutexLock lock(&mu_);
        stats_.applied_lsn = applied;
        ++stats_.records_applied;
      }
      if (on_applied_ && result.value().cube != nullptr) {
        on_applied_(result.value());
      }
    }
    if (options_.coalesce.count() > 0 &&
        applied >= fetched.value().tip_lsn) {
      // Caught up: let appends accumulate so the next fetch carries a
      // batch instead of waking per record. Stop() interrupts the pause.
      MutexLock lock(&mu_);
      if (stop_) return;
      stop_cv_.WaitUntil(
          &mu_, std::chrono::steady_clock::now() + options_.coalesce);
    }
  }
}

// --- ReplicatedInsertHandler ----------------------------------------------

ReplicatedInsertHandler::ReplicatedInsertHandler(
    InsertHandler* base, WalShipper* shipper,
    std::chrono::milliseconds fence_timeout)
    : base_(base), shipper_(shipper), fence_timeout_(fence_timeout) {}

Result<InsertHandler::Applied> ReplicatedInsertHandler::Fence(
    Result<Applied> applied) {
  if (!applied.ok() || applied.value().lsn == 0) return applied;
  shipper_->NotifyAppended(applied.value().lsn);
  if (fence_timeout_.count() > 0) {
    // Best effort: a timeout degrades this mutation to async replication
    // (counted in the shipper's stats), it does not fail the ack — the
    // record is durable on the primary either way.
    (void)shipper_->WaitAcked(applied.value().lsn, fence_timeout_);
  }
  return applied;
}

Result<InsertHandler::Applied> ReplicatedInsertHandler::ApplyInsert(
    const std::vector<double>& values, uint64_t timestamp_ms) {
  return Fence(base_->ApplyInsert(values, timestamp_ms));
}

Result<InsertHandler::Applied> ReplicatedInsertHandler::ApplyDelete(
    ObjectId id) {
  return Fence(base_->ApplyDelete(id));
}

Result<InsertHandler::Applied> ReplicatedInsertHandler::ApplyExpire(
    uint64_t cutoff_ms) {
  return Fence(base_->ApplyExpire(cutoff_ms));
}

int ReplicatedInsertHandler::num_dims() const { return base_->num_dims(); }

}  // namespace skycube
