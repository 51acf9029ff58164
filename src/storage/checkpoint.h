#ifndef XMLAC_STORAGE_CHECKPOINT_H_
#define XMLAC_STORAGE_CHECKPOINT_H_

// Checkpoint files: a full durable snapshot of the engine state at one
// committed epoch, written atomically (write-temp / fsync / rename), so a
// crash mid-checkpoint leaves the previous checkpoint intact.  Once a
// checkpoint at epoch E is durable, WAL segments whose records are all
// <= E can be deleted (Wal::TruncateThrough).
//
// File layout: "XCKP" magic, u32 format version, u32 crc32(body), body.
// The body is the binary CheckpointData encoding; the CRC rejects torn or
// bit-rotted files at read time, and ReadNewestCheckpoint falls back to
// the next-newest valid file, counting the ones it skipped.
//
// A durable data directory always has one: a fresh server writes its
// genesis state as the epoch-1 checkpoint, so a checkpoint is the only
// base state recovery knows (recovery.h).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/wal.h"

namespace xmlac::storage {

struct CheckpointData {
  uint64_t epoch = 0;
  uint64_t rule_cache_epoch = 0;
  std::string dtd_text;
  std::string master_binary;  // un-annotated master, NodeIds preserved
  std::vector<SubjectState> subjects;
};

// "checkpoint-<zero-padded epoch>.ckpt".
std::string CheckpointFileName(uint64_t epoch);
bool ParseCheckpointFileName(std::string_view name, uint64_t* epoch);

std::string EncodeCheckpoint(const CheckpointData& data);
Result<CheckpointData> DecodeCheckpoint(std::string_view bytes);

// Atomically writes `data` into `dir`.
Status WriteCheckpoint(std::string_view dir, const CheckpointData& data);

// Loads the highest-epoch checkpoint that decodes cleanly; NotFound when
// none qualifies.  Checkpoint files that cannot be read or decoded are
// skipped and, when `skipped` is set, counted into it.
Result<CheckpointData> ReadNewestCheckpoint(std::string_view dir,
                                            size_t* skipped = nullptr);

// Deletes checkpoint files with epoch < `epoch` (keeps the current one).
Status RemoveCheckpointsBefore(std::string_view dir, uint64_t epoch);

}  // namespace xmlac::storage

#endif  // XMLAC_STORAGE_CHECKPOINT_H_
