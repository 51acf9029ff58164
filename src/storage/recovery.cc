#include "storage/recovery.h"

#include <algorithm>
#include <utility>

#include "common/io.h"
#include "storage/checkpoint.h"
#include "storage/segment.h"
#include "xml/dtd.h"
#include "xml/parser.h"

namespace xmlac::storage {

namespace {

std::string JoinPath(std::string_view dir, std::string_view name) {
  std::string out(dir);
  if (!out.empty() && out.back() != '/') out.push_back('/');
  out.append(name);
  return out;
}

// Internal when `dir`'s durable state — its newest valid checkpoint (or
// NotFound after skipping `skipped` damaged files) plus `wal` — would
// recover less than every acknowledged commit.  Checked before recovery
// touches the controller.  Epoch gaps are found during replay.
Status CheckRecoverable(std::string_view dir,
                        const Result<CheckpointData>& checkpoint,
                        size_t skipped, const WalContents& wal) {
  if (!wal.damage.empty()) {
    uint64_t last_good = checkpoint.ok() ? checkpoint->epoch : 0;
    if (!wal.records.empty()) {
      last_good = std::max(last_good, wal.records.back().epoch);
    }
    return Status::Internal("WAL damaged in " + wal.damage +
                            "; last good epoch " + std::to_string(last_good) +
                            "; refusing to recover only the commits before "
                            "the damage");
  }
  if (!checkpoint.ok() && (!wal.records.empty() || skipped > 0)) {
    return Status::Internal(
        "no valid checkpoint in '" + std::string(dir) + "' (" +
        std::to_string(skipped) + " damaged) to replay " +
        std::to_string(wal.records.size()) +
        " WAL records onto; refusing to start from an empty state");
  }
  return Status::OK();
}

}  // namespace

Result<WalContents> ReadWalDir(std::string_view dir) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<std::string> names, ListFiles(dir));
  // Zero-padded names: sorted directory order == numeric segment order.
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq)) segments.emplace_back(seq, name);
  }
  std::sort(segments.begin(), segments.end());

  WalContents out;
  out.segments = segments.size();
  for (size_t i = 0; i < segments.size() && out.damage.empty(); ++i) {
    const std::string& name = segments[i].second;
    XMLAC_ASSIGN_OR_RETURN(std::string bytes, ReadFile(JoinPath(dir, name)));
    SegmentScan scan = ScanSegment(bytes);
    for (FramedRecord& framed : scan.records) {
      auto record = DecodeBatchRecord(framed.payload);
      if (!record.ok()) {
        // CRC-valid but undecodable: a format bug, targeted corruption, or
        // a directory written in an older format.  Nothing after it can be
        // trusted.
        out.damage = name + ": the record at epoch " +
                     std::to_string(framed.marker) + " does not decode (" +
                     record.status().message() + ")";
        break;
      }
      out.records.push_back(std::move(*record));
    }
    if (!scan.clean) {
      ++out.torn_segments;
      // A torn tail on the newest segment is the expected crash signature;
      // torn bytes anywhere else mean damage.
      if (i + 1 != segments.size() && out.damage.empty()) {
        out.damage = name + ": torn or corrupt after byte " +
                     std::to_string(scan.valid_bytes) +
                     ", and not the newest segment";
      }
    }
  }
  return out;
}

Result<RecoveredState> RecoverState(
    std::string_view dir, engine::MultiSubjectController* controller) {
  RecoveredState out;
  auto checkpoint = ReadNewestCheckpoint(dir, &out.checkpoints_skipped);
  if (!checkpoint.ok() &&
      checkpoint.status().code() != StatusCode::kNotFound) {
    return checkpoint.status();
  }
  XMLAC_ASSIGN_OR_RETURN(WalContents wal, ReadWalDir(dir));
  XMLAC_RETURN_IF_ERROR(
      CheckRecoverable(dir, checkpoint, out.checkpoints_skipped, wal));
  if (!checkpoint.ok()) return out;  // nothing durable: found = false

  const CheckpointData& base = *checkpoint;
  controller->Reset();
  XMLAC_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(base.dtd_text));
  XMLAC_ASSIGN_OR_RETURN(xml::Document master,
                         xml::Document::FromBinary(base.master_binary));
  // LoadParsed publishes the structural index over the recovered document.
  // FromBinary restores the arena byte for byte and labeling is
  // deterministic, so that build equals the index a checkpoint-time
  // labeling would have produced; no labels are stored.
  XMLAC_RETURN_IF_ERROR(controller->LoadParsed(dtd, master));
  controller->RestoreRuleCacheEpoch(base.rule_cache_epoch);
  for (const SubjectState& s : base.subjects) {
    XMLAC_RETURN_IF_ERROR(controller->RestoreSubject(
        s.name, s.policy_text, s.default_sign, s.marked));
    out.subject_policies.emplace_back(s.name, s.policy_text);
  }

  // Replay committed batches past the base epoch, in order.  Epochs are
  // assigned consecutively by the single writer, so any gap means a
  // missing record — refuse rather than replay on a wrong base.
  uint64_t epoch = base.epoch;
  for (const BatchRecord& r : wal.records) {
    if (r.epoch <= epoch) continue;  // covered by the checkpoint
    if (r.epoch != epoch + 1) {
      return Status::Internal("WAL gap: expected epoch " +
                              std::to_string(epoch + 1) + ", found " +
                              std::to_string(r.epoch));
    }
    auto replayed = controller->ReplayBatch(r.ops, r.deltas);
    if (!replayed.ok()) return replayed.status();
    epoch = r.epoch;
    ++out.replayed_batches;
  }

  out.found = true;
  out.epoch = epoch;
  out.dtd_text = base.dtd_text;
  return out;
}

Result<WalDirSummary> InspectWalDir(std::string_view dir) {
  WalDirSummary out;
  auto checkpoint = ReadNewestCheckpoint(dir, &out.checkpoints_skipped);
  if (checkpoint.ok()) {
    out.has_checkpoint = true;
    out.checkpoint_epoch = checkpoint->epoch;
    for (const SubjectState& s : checkpoint->subjects) {
      out.subjects.push_back(s.name);
    }
  } else if (checkpoint.status().code() != StatusCode::kNotFound) {
    return checkpoint.status();
  }
  XMLAC_ASSIGN_OR_RETURN(WalContents wal, ReadWalDir(dir));
  out.segments = wal.segments;
  out.torn_segments = wal.torn_segments;
  out.refusal =
      CheckRecoverable(dir, checkpoint, out.checkpoints_skipped, wal).message();
  out.batch_records = wal.records.size();
  if (!wal.records.empty()) {
    out.first_batch_epoch = wal.records.front().epoch;
    out.last_batch_epoch = wal.records.back().epoch;
  }
  return out;
}

}  // namespace xmlac::storage
