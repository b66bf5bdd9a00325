// Atomic, checksummed checkpoints of the ingest state: the full dataset
// plus its compressed skyline cube, tagged with the WAL LSN they cover.
//
// File format (text, in the checksummed-text envelope of
// core/serialization.h):
//
//   skycube-checkpoint v2
//   checksum <fnv1a64-hex>            (over everything below)
//   lsn <L>
//   dims <d> rows <n>
//   names <name0> <name1> ...
//   <n lines of d max-precision doubles>
//   dead <k> <id> ...                 (tombstoned row ids, ascending)
//   stamps <n per-row timestamps, ms> (0 = none / never expires)
//   skycube-cube v2 ...               (embedded cube, itself checksummed)
//
// v2 is the only version written or read; any other header, the v1 files
// from before deletes existed included, is kInvalidArgument.
//
// A checkpoint at LSN L contains the bootstrap rows plus the first L WAL
// ops; recovery loads it and replays only records with lsn > L. The
// embedded cube covers the *live* rows only — tombstoned ids appear in no
// group, exactly as the maintainer serves them.
//
// Crash consistency: checkpoints are written with WriteFileAtomically
// (storage/file_io.h) as `checkpoint-<16hex-lsn>.ckpt` — a crash at any
// point leaves either the old set of checkpoints or the old set plus the
// complete new one, never a half-written visible file. Stray .tmp files
// from crashed writers are ignored by List and removed by the next
// successful Write.
//
// Retention keeps the newest `keep` checkpoints. The WAL may only be
// truncated through the *oldest retained* checkpoint's LSN — that way a
// corrupt newest checkpoint can still fall back to an older one and find
// every WAL record it needs.
#ifndef SKYCUBE_STORAGE_CHECKPOINTER_H_
#define SKYCUBE_STORAGE_CHECKPOINTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/skyline_group.h"
#include "dataset/dataset.h"

namespace skycube {

/// A loaded checkpoint.
struct CheckpointData {
  uint64_t lsn = 0;
  Dataset data{1};
  SkylineGroupSet groups;
  /// Per-row liveness (size == data.num_objects()).
  std::vector<uint8_t> live;
  /// Per-row ingest timestamps in ms (0 = none).
  std::vector<uint64_t> timestamps;
};

/// LSNs of the complete (renamed-into-place) checkpoints in `dir`,
/// ascending. Missing directory = empty list.
std::vector<uint64_t> ListCheckpoints(const std::string& dir);

/// File name of the checkpoint covering `lsn` ("checkpoint-<16hex>.ckpt").
/// Exported for the replication layer, which ships the self-validating
/// file verbatim rather than re-serializing its contents.
std::string CheckpointFileName(uint64_t lsn);

/// Loads and validates checkpoint `lsn`; checksum mismatch or structural
/// damage is an error (kInternal / kInvalidArgument), never a partial load.
[[nodiscard]] Result<CheckpointData> LoadCheckpoint(const std::string& dir,
                                                    uint64_t lsn);

/// Validates and decodes checkpoint file contents already in memory — the
/// parsing half of LoadCheckpoint, which adds only the file read and the
/// filename-vs-content LSN cross-check. Exposed so untrusted checkpoint
/// bytes (fuzzing, the replication snapshot path) can be vetted without
/// touching the filesystem.
[[nodiscard]] Result<CheckpointData> ParseCheckpoint(const std::string& text);

/// Writes checkpoints into one directory and applies retention.
class Checkpointer {
 public:
  /// `keep` >= 1: how many newest checkpoints survive retention.
  Checkpointer(std::string dir, size_t keep = 2);

  /// Atomically writes the checkpoint for `lsn`, then deletes checkpoints
  /// beyond the retention horizon (and stray .tmp files). On success,
  /// oldest_retained_lsn() says how far the WAL may be truncated. `live`
  /// and `timestamps` are per-row (empty = all live / no timestamps).
  [[nodiscard]] Status Write(uint64_t lsn, const Dataset& data,
                             const SkylineGroupSet& groups,
                             const std::vector<uint8_t>& live = {},
                             const std::vector<uint64_t>& timestamps = {});

  /// LSN of the oldest checkpoint still on disk after the last successful
  /// Write (the safe WAL truncation horizon).
  uint64_t oldest_retained_lsn() const { return oldest_retained_lsn_; }

  uint64_t checkpoints_written() const { return checkpoints_written_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  size_t keep_;
  uint64_t oldest_retained_lsn_ = 0;
  uint64_t checkpoints_written_ = 0;
};

}  // namespace skycube

#endif  // SKYCUBE_STORAGE_CHECKPOINTER_H_
