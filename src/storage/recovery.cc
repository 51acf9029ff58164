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
  for (size_t i = 0; i < segments.size(); ++i) {
    if (out.stopped_early) break;
    XMLAC_ASSIGN_OR_RETURN(std::string bytes,
                           ReadFile(JoinPath(dir, segments[i].second)));
    SegmentScan scan = ScanSegment(bytes);
    if (!scan.clean) {
      ++out.torn_segments;
      // A torn tail on the newest segment is the expected crash signature;
      // torn bytes anywhere else mean damage, so stop consuming records
      // conservatively at the last good one.
      if (i + 1 != segments.size()) out.stopped_early = true;
    }
    for (FramedRecord& framed : scan.records) {
      auto record = DecodeRecord(framed.payload);
      if (!record.ok()) {
        // CRC-valid but undecodable: a format bug or targeted corruption.
        // Either way nothing after it can be trusted.
        out.stopped_early = true;
        break;
      }
      out.records.push_back(std::move(*record));
    }
  }
  return out;
}

Result<RecoveredState> RecoverState(
    std::string_view dir, engine::MultiSubjectController* controller) {
  RecoveredState out;

  auto checkpoint = ReadNewestCheckpoint(dir);
  if (!checkpoint.ok() &&
      checkpoint.status().code() != StatusCode::kNotFound) {
    return checkpoint.status();
  }
  XMLAC_ASSIGN_OR_RETURN(WalContents wal, ReadWalDir(dir));

  // Pick the base state: checkpoint if present, else the genesis install.
  CheckpointData base;
  if (checkpoint.ok()) {
    base = std::move(*checkpoint);
    out.from_checkpoint = true;
  } else {
    const WalRecord* install = nullptr;
    for (const WalRecord& r : wal.records) {
      if (r.kind == RecordKind::kInstall) {
        install = &r;
        break;
      }
    }
    if (install == nullptr) return out;  // nothing durable: found = false
    base.epoch = install->install.epoch;
    base.rule_cache_epoch = install->install.rule_cache_epoch;
    base.dtd_text = install->install.dtd_text;
    base.master_binary = install->install.master_binary;
    base.subjects = install->install.subjects;
  }

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
  for (const WalRecord& r : wal.records) {
    if (r.kind != RecordKind::kBatch) continue;
    if (r.batch.epoch <= epoch) continue;  // covered by the checkpoint
    if (r.batch.epoch != epoch + 1) {
      return Status::Internal(
          "WAL gap: expected epoch " + std::to_string(epoch + 1) + ", found " +
          std::to_string(r.batch.epoch));
    }
    auto replayed = controller->ReplayBatch(r.batch.ops, r.batch.deltas);
    if (!replayed.ok()) return replayed.status();
    epoch = r.batch.epoch;
    ++out.replayed_batches;
  }

  out.found = true;
  out.epoch = epoch;
  out.dtd_text = base.dtd_text;
  return out;
}

Result<WalDirSummary> InspectWalDir(std::string_view dir) {
  WalDirSummary out;
  auto checkpoint = ReadNewestCheckpoint(dir);
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
  out.stopped_early = wal.stopped_early;
  for (const WalRecord& r : wal.records) {
    if (r.kind == RecordKind::kInstall) {
      ++out.install_records;
      if (out.subjects.empty()) {
        for (const SubjectState& s : r.install.subjects) {
          out.subjects.push_back(s.name);
        }
      }
    } else {
      ++out.batch_records;
      if (out.first_batch_epoch == 0) out.first_batch_epoch = r.batch.epoch;
      out.last_batch_epoch = r.batch.epoch;
    }
  }
  return out;
}

}  // namespace xmlac::storage
