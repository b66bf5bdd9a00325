// skycube_waldump — read-only WAL inspector (docs/ROBUSTNESS.md).
//
//   skycube_waldump --dir=DATA_DIR [--values] [--from-lsn=N] [--segment=FILE]
//
// Prints one line per record in LSN order, segment by segment:
//
//   segment wal-000000000000000001.log start_lsn=1 magic=ok
//   lsn=1 op=insert row=400 ts=1754550000123 bytes=45 checksum=ok
//   lsn=2 op=delete row=17 ts=1754550000940 bytes=13 checksum=ok
//   lsn=3 op=? bytes=9 checksum=BAD
//   trailing_bytes=132
//
// Unlike recovery (storage/recovery.h) this never stops at a damaged
// record or an inter-segment gap: it reports what is actually on disk —
// the debugging view for a data directory that refuses to recover. A
// payload that is not a v3 op (a v2 row record among them) prints
// decode=BAD.
//
// --from-lsn=N skips records below N (segments whose records all fall
// below N are elided entirely) — the view a replication follower acked at
// N−1 would fetch next. --segment=FILE restricts the dump to one segment
// by file name. A zero-byte final segment (a rotation that crashed before
// the magic was written) prints `empty=1` and does not count as damage;
// anywhere else an empty segment is a hole and exits 1.
//
// With --values, insert records also print their row values. Exit status
// is 0 when every record framed and decoded cleanly and the LSNs in view
// form one contiguous run, 1 when any record was damaged or out of place
// — checksum/decode failure, trailing garbage, a hole segment, a spliced
// or gapped LSN sequence, a segment whose name disagrees with its first
// record — so scripts can gate on WAL integrity; 2 on usage errors. A gap
// prints its own `gap expected_lsn=E found_lsn=F` line: the records on
// both sides are individually valid, the *sequence* is what recovery
// would refuse to trust.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "storage/wal.h"

namespace skycube {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: skycube_waldump --dir=DATA_DIR [--values] "
               "[--from-lsn=N] [--segment=FILE]\n");
  return 2;
}

/// True when the segment has nothing at or past `from_lsn` to show. A
/// damaged or empty segment is never elided — damage must stay visible
/// regardless of the LSN window.
bool SegmentBelow(const WalDumpSegment& segment, uint64_t from_lsn) {
  if (from_lsn <= 1) return false;
  if (!segment.magic_ok || segment.empty || segment.trailing_bytes > 0) {
    return false;
  }
  for (const WalDumpRecord& record : segment.records) {
    if (!record.checksum_ok || !record.decode_ok) return false;
    if (record.lsn >= from_lsn) return false;
  }
  return true;
}

int Dump(const FlagParser& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Usage();
  const bool with_values = flags.GetBool("values", false);
  const uint64_t from_lsn =
      static_cast<uint64_t>(flags.GetInt("from-lsn", 0));
  const std::string only_segment = flags.GetString("segment", "");

  Result<std::vector<WalDumpSegment>> dumped = DumpWal(dir);
  if (!dumped.ok()) {
    std::fprintf(stderr, "%s\n", dumped.status().ToString().c_str());
    return 2;
  }

  if (!only_segment.empty()) {
    bool found = false;
    for (const WalDumpSegment& segment : dumped.value()) {
      if (segment.file == only_segment) found = true;
    }
    if (!found) {
      std::fprintf(stderr, "no segment named '%s' in %s\n",
                   only_segment.c_str(), dir.c_str());
      return 2;
    }
  }

  bool damaged = false;
  // Last framing-valid LSN seen (0 = none yet) — the continuity cursor.
  // Records are individually checksummed, so a spliced or gapped log can
  // be record-clean yet unrecoverable; any shown record whose LSN is not
  // cursor + 1 is damage.
  uint64_t prev_lsn = 0;
  const std::vector<WalDumpSegment>& segments = dumped.value();
  for (size_t i = 0; i < segments.size(); ++i) {
    const WalDumpSegment& segment = segments[i];
    if (!only_segment.empty() && segment.file != only_segment) {
      // Advance the cursor silently so a gap inside the shown segment is
      // attributed there, not to the viewing window's edge.
      for (const WalDumpRecord& record : segment.records) {
        if (record.checksum_ok) prev_lsn = record.lsn;
      }
      continue;
    }
    if (SegmentBelow(segment, from_lsn)) {
      for (const WalDumpRecord& record : segment.records) {
        if (record.checksum_ok) prev_lsn = record.lsn;
      }
      continue;
    }
    const bool final_segment = i + 1 == segments.size();
    if (segment.empty) {
      // A zero-byte file holds no magic; only the final segment may be
      // empty (crashed rotation) without counting as damage.
      std::printf("segment %s start_lsn=%llu empty=1%s\n",
                  segment.file.c_str(),
                  static_cast<unsigned long long>(segment.declared_start),
                  final_segment ? "" : " damage=not-final");
      if (!final_segment) damaged = true;
      continue;
    }
    std::printf("segment %s start_lsn=%llu magic=%s\n", segment.file.c_str(),
                static_cast<unsigned long long>(segment.declared_start),
                segment.magic_ok ? "ok" : "BAD");
    if (!segment.magic_ok) damaged = true;
    bool first_in_segment = true;
    for (const WalDumpRecord& record : segment.records) {
      if (record.checksum_ok) {
        const uint64_t expected =
            prev_lsn != 0 ? prev_lsn + 1 : record.lsn;
        const bool gap =
            record.lsn != expected ||
            (first_in_segment && record.lsn != segment.declared_start);
        if (gap) {
          std::printf("gap expected_lsn=%llu found_lsn=%llu\n",
                      static_cast<unsigned long long>(
                          prev_lsn != 0 ? expected : segment.declared_start),
                      static_cast<unsigned long long>(record.lsn));
          damaged = true;
        }
        first_in_segment = false;
        prev_lsn = record.lsn;
      }
      if (!record.checksum_ok) {
        std::printf("lsn=%llu op=? bytes=%zu checksum=BAD\n",
                    static_cast<unsigned long long>(record.lsn),
                    record.payload_bytes);
        damaged = true;
        continue;
      }
      if (!record.decode_ok) {
        std::printf("lsn=%llu op=? bytes=%zu checksum=ok decode=BAD\n",
                    static_cast<unsigned long long>(record.lsn),
                    record.payload_bytes);
        damaged = true;
        continue;
      }
      if (record.lsn < from_lsn) continue;
      const WalOpRecord& op = record.record;
      std::printf("lsn=%llu op=%s row=%u ts=%llu bytes=%zu checksum=ok",
                  static_cast<unsigned long long>(record.lsn),
                  WalOpName(op.op), op.row,
                  static_cast<unsigned long long>(op.timestamp_ms),
                  record.payload_bytes);
      if (with_values && op.op == WalOp::kInsert) {
        std::printf(" values=");
        for (size_t v = 0; v < op.values.size(); ++v) {
          std::printf("%s%g", v == 0 ? "" : ",", op.values[v]);
        }
      }
      std::printf("\n");
    }
    if (segment.trailing_bytes > 0) {
      std::printf("trailing_bytes=%llu\n",
                  static_cast<unsigned long long>(segment.trailing_bytes));
      damaged = true;
    }
  }
  return damaged ? 1 : 0;
}

}  // namespace
}  // namespace skycube

int main(int argc, char** argv) {
  const skycube::FlagParser flags(argc, argv);
  return skycube::Dump(flags);
}
