#ifndef XMLAC_STORAGE_RECOVERY_H_
#define XMLAC_STORAGE_RECOVERY_H_

// Crash recovery: newest valid checkpoint + WAL tail replay
// (docs/durability.md).
//
// The base state is always a checkpoint: a fresh durable server writes its
// genesis state as the epoch-1 checkpoint, and the WAL holds batch records
// only.  Batch records beyond the base epoch then replay through the
// engine's decision-replay path — mutations plus recorded per-subject sign
// deltas, never re-running policy evaluation.  A torn tail on the newest
// segment is a clean truncation (those commits never acked).  Anything
// else that would lose acknowledged commits is refused with an Internal
// error: damage before the newest segment's tail, a CRC-valid record that
// does not decode, an epoch gap, or WAL records (or checkpoint files) with
// no valid checkpoint to apply them to.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/multi_subject.h"
#include "storage/wal.h"

namespace xmlac::storage {

// Raw durable contents of a data directory (also used by xmlac_recover for
// offline inspection).
struct WalContents {
  std::vector<BatchRecord> records;  // segment order, then in-segment order
  size_t segments = 0;
  // Segments that were torn/corrupt.  At most the last segment may be torn
  // in a clean shutdown-free crash; more than that means damage.
  size_t torn_segments = 0;
  // Empty when every segment was read to its end (a torn tail on the
  // newest one included).  Otherwise where and why reading stopped early —
  // a torn non-final segment, or a CRC-valid record that failed to decode —
  // naming the segment file; no record from that point on was read.
  std::string damage;
};

Result<WalContents> ReadWalDir(std::string_view dir);

struct RecoveredState {
  bool found = false;  // false: directory held no durable state
  uint64_t epoch = 0;  // last committed epoch re-materialized
  size_t replayed_batches = 0;
  // Newer checkpoint files that failed to read or decode, passed over for
  // the older one recovery used.
  size_t checkpoints_skipped = 0;
  std::string dtd_text;
  // (subject, policy text) pairs, for the serving layer to re-adopt.
  std::vector<std::pair<std::string, std::string>> subject_policies;
};

// Re-materializes the durable state of `dir` into `controller` (which is
// Reset() first).  When the directory holds neither checkpoint files nor
// WAL records the controller is left untouched and `found` is false; when
// it holds state that cannot be recovered in full, Internal.
Result<RecoveredState> RecoverState(std::string_view dir,
                                    engine::MultiSubjectController* controller);

// ---------------------------------------------------------------------------
// Offline inspection (tools/xmlac_recover.cc).

struct WalDirSummary {
  bool has_checkpoint = false;
  uint64_t checkpoint_epoch = 0;
  size_t checkpoints_skipped = 0;
  size_t segments = 0;
  size_t torn_segments = 0;
  // Why RecoverState would refuse the directory; empty when it would not
  // (epoch gaps, found only by replaying, aside).
  std::string refusal;
  size_t batch_records = 0;
  uint64_t first_batch_epoch = 0;  // 0 when no batch records
  uint64_t last_batch_epoch = 0;
  std::vector<std::string> subjects;  // from the checkpoint
};

Result<WalDirSummary> InspectWalDir(std::string_view dir);

}  // namespace xmlac::storage

#endif  // XMLAC_STORAGE_RECOVERY_H_
