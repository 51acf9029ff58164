#ifndef XMLAC_STORAGE_WAL_H_
#define XMLAC_STORAGE_WAL_H_

// Write-ahead log of logical commit records (docs/durability.md).
//
// The serving layer's single writer appends one record per committed batch
// and syncs before publishing the epoch, so "the WAL record is durable" IS
// the commit point.  Records are *decisions*, not physical pages: a batch
// record carries the ops plus each subject's sign delta, and recovery
// replays those decisions through the engine without re-running policy
// evaluation (the paper's update asymmetry — re-annotation dominates update
// cost — makes decision replay the cheap direction).
//
// The log is segmented; a sealed segment is immutable and remembers the
// highest epoch it contains, so checkpointing can truncate whole segments
// whose epochs the checkpoint covers.  Only the newest segment may have a
// torn tail; Open truncates it and starts a fresh segment.
//
// Thread safety: Append/Sync (the serve writer) and TruncateThrough (the
// background checkpointer) may run concurrently; an internal mutex
// serializes all file and segment-map state.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/access_controller.h"
#include "engine/multi_subject.h"
#include "xml/document.h"

namespace xmlac::storage {

enum class DurabilityLevel {
  kNone,       // never sync; crash loses the OS-buffered tail
  kFdatasync,  // sync file data each commit (default)
  kFsync,      // sync data + metadata each commit
};

std::string_view DurabilityLevelName(DurabilityLevel level);
std::optional<DurabilityLevel> ParseDurabilityLevel(std::string_view name);

struct WalOptions {
  std::string dir;
  DurabilityLevel level = DurabilityLevel::kFdatasync;
  // Roll to a new segment once the current one exceeds this many bytes.
  size_t segment_bytes = 64u << 20;

  // --- Crash-point fuzzing hooks (src/testing/serve_fuzz.cc) -------------
  // After this many successful appends the WAL "crashes": every later
  // Append/Sync silently succeeds without touching the file, exactly as if
  // the process had been SIGKILLed after the Nth commit.  -1 = never.
  int64_t crash_after_records = -1;
  // When crashing, first write this many bytes of the next frame (clamped
  // to frame size - 1) — a simulated torn tail for recovery to truncate.
  size_t torn_tail_bytes = 0;
};

class Wal {
 public:
  // Opens (creating if needed) the log directory: scans existing segments,
  // truncates a torn tail on the newest one, and starts a fresh segment
  // after it.  Reading the records back is recovery's job (recovery.h).
  static Result<std::unique_ptr<Wal>> Open(WalOptions options);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends one framed record; `marker` is the record's commit epoch.
  // Not durable until Sync() returns.  InvalidArgument for payloads a
  // frame's u32 length prefix cannot represent (~4GiB).
  Status Append(uint64_t marker, std::string_view payload);

  // Makes every appended record durable, per the configured level.
  Status Sync();

  // Deletes sealed segments whose highest epoch is <= `marker` (checkpoint
  // truncation; the open segment is never deleted).
  Status TruncateThrough(uint64_t marker);

  // True once the crash hook fired or a real IO error was hit; checkpoints
  // must not truncate past this point.  After the *simulated* crash hook,
  // appends silently succeed without touching the file (the caller must
  // behave as if the process died); after a *real* IO failure, Append and
  // Sync keep returning the original error — later commits must never look
  // durable when an earlier one is missing.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  uint64_t records_appended() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }
  uint64_t current_segment_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
  }
  const WalOptions& options() const { return options_; }

 private:
  explicit Wal(WalOptions options) : options_(std::move(options)) {}

  // All of these require mu_ to be held.
  Status SyncLocked();
  Status OpenSegment(uint64_t seq);
  Status CloseSegment();
  Status WriteAll(std::string_view bytes);
  // Records a real IO failure: the error is sticky for every later
  // Append/Sync, and crashed() gates truncation from here on.
  void Poison(const Status& error);

  WalOptions options_;
  // Serializes Append/Sync (writer thread) against TruncateThrough
  // (checkpointer thread): fd_/seq_/current_* and sealed_max_marker_ are
  // all guarded by it (a segment roll inserts into the map concurrently
  // with truncation iterating it).
  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t seq_ = 0;
  size_t current_bytes_ = 0;
  uint64_t current_max_marker_ = 0;
  // Highest marker per sealed segment (0 for empty ones), for truncation.
  std::map<uint64_t, uint64_t> sealed_max_marker_;
  uint64_t records_ = 0;
  std::atomic<bool> crashed_{false};
  bool simulated_crash_ = false;     // crash_after_records hook fired
  Status io_error_ = Status::OK();   // first real IO failure, sticky
  bool torn_written_ = false;
};

// ---------------------------------------------------------------------------
// Logical record payloads.  The log holds batch records only: the base
// state a batch applies to is a checkpoint (checkpoint.h), the first one
// being the epoch-1 checkpoint a fresh durable server writes at Start().

// One subject's durable annotation state: its policy source plus the signs
// as "default sign + ids carrying the flipped sign" (engine::SignState).
struct SubjectState {
  std::string name;
  std::string policy_text;
  char default_sign = '-';
  std::vector<engine::UniversalId> marked;
};

// One committed ApplyBatch.
struct BatchRecord {
  uint64_t epoch = 0;
  std::vector<engine::BatchOp> ops;
  // Informational copy of the master's journaled mutations (replay
  // re-derives them from the ops; may be empty after journal overflow).
  std::vector<xml::Mutation> master_mutations;
  std::map<std::string, engine::SubjectDelta> deltas;
};

std::string EncodeBatchRecord(const BatchRecord& record);

// ParseError for anything but a well-formed batch record, including a
// kind-1 payload from a data directory written before genesis moved into
// the epoch-1 checkpoint.
Result<BatchRecord> DecodeBatchRecord(std::string_view payload);

}  // namespace xmlac::storage

#endif  // XMLAC_STORAGE_WAL_H_
