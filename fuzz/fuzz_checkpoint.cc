// Fuzz target: the checkpoint loader (storage/checkpointer.h) — the outer
// text format, the embedded cube, and the replication snapshot-install
// path that feeds untrusted checkpoint bytes to it.
//
// Modes (first input byte % 2):
//   0  raw bytes straight into ParseCheckpoint
//   1  the remaining bytes wrapped with a valid "skycube-checkpoint v2"
//      header and a correct checksum, so mutations reach the structural
//      parsing behind the digest gate
//
// Properties: ParseCheckpoint never crashes or over-allocates; whatever
// it accepts must survive InstallSnapshot + LoadCheckpoint (the replica
// bootstrap sequence) with the same shape.
#include <stdlib.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "core/serialization.h"
#include "fuzz_util.h"
#include "storage/checkpointer.h"
#include "storage/replication.h"

using skycube::fuzz::Expect;
using skycube::fuzz::InputReader;

namespace {

const std::string& ScratchDir() {
  static const std::string dir = [] {
    std::string tmpl = "/tmp/skycube-fuzz-ckpt-XXXXXX";
    const char* made = ::mkdtemp(tmpl.data());
    return std::string(made != nullptr ? made : "/tmp");
  }();
  return dir;
}

void WipeDir(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::error_code remove_ec;
    std::filesystem::remove_all(entry.path(), remove_ec);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  InputReader in(data, size);
  const uint8_t mode = in.TakeByte() % 2;
  const std::string_view rest = in.Rest();

  // The checksum covers everything after the checksum line's newline;
  // forging it here lets mutations past the digest gate.
  const std::string text =
      mode == 0 ? std::string(rest)
                : skycube::WrapChecksummed("skycube-checkpoint v2", rest);

  skycube::Result<skycube::CheckpointData> parsed =
      skycube::ParseCheckpoint(text);
  if (!parsed.ok()) return 0;

  const skycube::CheckpointData& checkpoint = parsed.value();
  Expect(checkpoint.live.size() == checkpoint.data.num_objects() &&
             checkpoint.timestamps.size() == checkpoint.data.num_objects(),
         "liveness and timestamp vectors must match the dataset");

  // Replica-bootstrap property: accepted bytes must install and reload.
  const std::string& dir = ScratchDir();
  WipeDir(dir);
  skycube::Status installed =
      skycube::InstallSnapshot(dir, checkpoint.lsn, text);
  Expect(installed.ok(), "parsed checkpoint bytes must install as snapshot");
  skycube::Result<skycube::CheckpointData> loaded =
      skycube::LoadCheckpoint(dir, checkpoint.lsn);
  Expect(loaded.ok() &&
             loaded.value().lsn == checkpoint.lsn &&
             loaded.value().data.num_objects() ==
                 checkpoint.data.num_objects() &&
             loaded.value().data.num_dims() == checkpoint.data.num_dims() &&
             loaded.value().groups.size() == checkpoint.groups.size(),
         "installed snapshot must reload with the same shape");
  return 0;
}
