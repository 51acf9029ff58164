#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/binary.h"
#include "common/io.h"
#include "storage/segment.h"

namespace xmlac::storage {

namespace {

std::string JoinPath(std::string_view dir, std::string_view name) {
  std::string out(dir);
  if (!out.empty() && out.back() != '/') out.push_back('/');
  out.append(name);
  return out;
}

}  // namespace

std::string_view DurabilityLevelName(DurabilityLevel level) {
  switch (level) {
    case DurabilityLevel::kNone:
      return "none";
    case DurabilityLevel::kFdatasync:
      return "fdatasync";
    case DurabilityLevel::kFsync:
      return "fsync";
  }
  return "unknown";
}

std::optional<DurabilityLevel> ParseDurabilityLevel(std::string_view name) {
  if (name == "none") return DurabilityLevel::kNone;
  if (name == "fdatasync") return DurabilityLevel::kFdatasync;
  if (name == "fsync") return DurabilityLevel::kFsync;
  return std::nullopt;
}

Result<std::unique_ptr<Wal>> Wal::Open(WalOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WAL directory not set");
  }
  XMLAC_RETURN_IF_ERROR(EnsureDirectory(options.dir));
  auto wal = std::unique_ptr<Wal>(new Wal(std::move(options)));

  XMLAC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         ListFiles(wal->options_.dir));
  uint64_t max_seq = 0;
  bool have_segments = false;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (!ParseSegmentFileName(name, &seq)) continue;
    have_segments = true;
    max_seq = std::max(max_seq, seq);
  }
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (!ParseSegmentFileName(name, &seq)) continue;
    std::string path = JoinPath(wal->options_.dir, name);
    XMLAC_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
    SegmentScan scan = ScanSegment(bytes);
    uint64_t max_marker = 0;
    for (const FramedRecord& r : scan.records) {
      max_marker = std::max(max_marker, r.marker);
    }
    wal->sealed_max_marker_[seq] = max_marker;
    // Only the newest segment may legitimately be torn; truncating an
    // earlier one here would hide real corruption, so recovery (not the
    // WAL) decides how to treat those.
    if (!scan.clean && seq == max_seq &&
        ::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) != 0) {
      return Status::Internal(std::string("truncate torn WAL tail: ") +
                              std::strerror(errno));
    }
  }
  // Appends always go to a brand-new segment: sealed files stay immutable,
  // which keeps "only the newest segment can be torn" an invariant.
  XMLAC_RETURN_IF_ERROR(
      wal->OpenSegment(have_segments ? max_seq + 1 : 1));
  XMLAC_RETURN_IF_ERROR(SyncDirectory(wal->options_.dir));
  return wal;
}

Wal::~Wal() {
  if (fd_ >= 0) {
    if (!crashed() && options_.level != DurabilityLevel::kNone) {
      (void)::fsync(fd_);
    }
    (void)::close(fd_);
  }
}

void Wal::Poison(const Status& error) {
  if (io_error_.ok()) io_error_ = error;
  crashed_.store(true, std::memory_order_release);
}

Status Wal::OpenSegment(uint64_t seq) {
  std::string path = JoinPath(options_.dir, SegmentFileName(seq));
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("open WAL segment '" + path +
                            "': " + std::strerror(errno));
  }
  fd_ = fd;
  seq_ = seq;
  current_bytes_ = 0;
  current_max_marker_ = 0;
  return Status::OK();
}

Status Wal::CloseSegment() {
  if (fd_ < 0) return Status::OK();
  Status sync = SyncLocked();
  int rc = ::close(fd_);
  fd_ = -1;
  sealed_max_marker_[seq_] = current_max_marker_;
  if (!sync.ok()) return sync;
  if (rc != 0) {
    return Status::Internal(std::string("close WAL segment: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status Wal::WriteAll(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("WAL write: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Wal::Append(uint64_t marker, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (simulated_crash_) return Status::OK();  // post-kill appends vanish
  if (!io_error_.ok()) return io_error_;      // real failures stay errors
  // A frame body is [u64 marker][payload] behind a u32 length prefix.
  if (payload.size() > static_cast<size_t>(UINT32_MAX) - 8) {
    return Status::InvalidArgument(
        "WAL record payload of " + std::to_string(payload.size()) +
        " bytes exceeds the frame format's u32 length limit");
  }
  std::string frame;
  AppendFrame(&frame, marker, payload);
  if (options_.crash_after_records >= 0 &&
      records_ >= static_cast<uint64_t>(options_.crash_after_records)) {
    // Simulated kill between WAL append and apply: optionally leave a torn
    // prefix of this frame behind, then go dark.
    if (options_.torn_tail_bytes > 0 && !torn_written_) {
      torn_written_ = true;
      size_t torn = std::min(options_.torn_tail_bytes, frame.size() - 1);
      (void)WriteAll(std::string_view(frame).substr(0, torn));
      if (options_.level != DurabilityLevel::kNone) (void)::fsync(fd_);
    }
    simulated_crash_ = true;
    crashed_.store(true, std::memory_order_release);
    return Status::OK();
  }
  // Roll before the append so a record never spans segments.  A failed
  // roll poisons the log just like a failed write: the record was never
  // made durable, so later commits must not look like they were.
  if (current_bytes_ > 0 && current_bytes_ + frame.size() > options_.segment_bytes) {
    Status roll = CloseSegment();
    if (roll.ok()) roll = OpenSegment(seq_ + 1);
    if (roll.ok()) roll = SyncDirectory(options_.dir);
    if (!roll.ok()) {
      Poison(roll);
      return roll;
    }
  }
  Status s = WriteAll(frame);
  if (!s.ok()) {
    Poison(s);
    return s;
  }
  current_bytes_ += frame.size();
  current_max_marker_ = std::max(current_max_marker_, marker);
  ++records_;
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::SyncLocked() {
  if (simulated_crash_) return Status::OK();
  if (!io_error_.ok()) return io_error_;
  if (fd_ < 0) return Status::OK();
  int rc = 0;
  switch (options_.level) {
    case DurabilityLevel::kNone:
      return Status::OK();
    case DurabilityLevel::kFdatasync:
#if defined(__linux__)
      rc = ::fdatasync(fd_);
#else
      rc = ::fsync(fd_);
#endif
      break;
    case DurabilityLevel::kFsync:
      rc = ::fsync(fd_);
      break;
  }
  if (rc != 0) {
    Status s = Status::Internal(std::string("WAL sync: ") +
                                std::strerror(errno));
    Poison(s);
    return s;
  }
  return Status::OK();
}

Status Wal::TruncateThrough(uint64_t marker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed()) return Status::OK();
  bool removed = false;
  for (auto it = sealed_max_marker_.begin(); it != sealed_max_marker_.end();) {
    if (it->second <= marker) {
      XMLAC_RETURN_IF_ERROR(RemoveFileIfExists(
          JoinPath(options_.dir, SegmentFileName(it->first))));
      it = sealed_max_marker_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  if (removed) XMLAC_RETURN_IF_ERROR(SyncDirectory(options_.dir));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record payload encoding.

namespace {

// A payload's leading kind byte.  Kind 1 was the genesis install record,
// replaced by the epoch-1 checkpoint.
constexpr uint8_t kRetiredInstallKind = 1;
constexpr uint8_t kBatchKind = 2;

void PutIds(std::string* out, const std::vector<engine::UniversalId>& ids) {
  PutU32(out, static_cast<uint32_t>(ids.size()));
  for (engine::UniversalId id : ids) {
    PutU64(out, static_cast<uint64_t>(id));
  }
}

std::vector<engine::UniversalId> GetIds(BinaryCursor* cursor) {
  uint32_t n = cursor->GetU32();
  std::vector<engine::UniversalId> ids;
  if (!cursor->Need(static_cast<size_t>(n) * 8)) return ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<engine::UniversalId>(cursor->GetU64()));
  }
  return ids;
}

}  // namespace

std::string EncodeBatchRecord(const BatchRecord& record) {
  std::string out;
  PutU8(&out, kBatchKind);
  PutU64(&out, record.epoch);
  PutU32(&out, static_cast<uint32_t>(record.ops.size()));
  for (const engine::BatchOp& op : record.ops) {
    PutU8(&out, op.kind == engine::BatchOp::Kind::kInsert ? 1 : 0);
    PutString(&out, op.xpath);
    PutString(&out, op.fragment_xml);
  }
  std::string mutations;
  xml::AppendMutations(record.master_mutations, &mutations);
  PutString(&out, mutations);
  PutU32(&out, static_cast<uint32_t>(record.deltas.size()));
  for (const auto& [name, delta] : record.deltas) {
    PutString(&out, name);
    PutIds(&out, delta.marked);
    PutIds(&out, delta.cleared);
  }
  return out;
}

Result<BatchRecord> DecodeBatchRecord(std::string_view payload) {
  BinaryCursor cursor(payload);
  uint8_t kind = cursor.GetU8();
  if (kind == kRetiredInstallKind) {
    return Status::ParseError(
        "WAL record kind 1 is a genesis install record: genesis install "
        "records were replaced by the epoch-1 checkpoint");
  }
  if (kind != kBatchKind) {
    return Status::ParseError("unknown WAL record kind " +
                              std::to_string(kind));
  }
  BatchRecord r;
  r.epoch = cursor.GetU64();
  uint32_t nops = cursor.GetU32();
  for (uint32_t i = 0; i < nops && cursor.ok; ++i) {
    engine::BatchOp op;
    op.kind = cursor.GetU8() == 1 ? engine::BatchOp::Kind::kInsert
                                  : engine::BatchOp::Kind::kDelete;
    op.xpath = cursor.GetString();
    op.fragment_xml = cursor.GetString();
    r.ops.push_back(std::move(op));
  }
  std::string mutations = cursor.GetString();
  if (cursor.ok) {
    XMLAC_ASSIGN_OR_RETURN(r.master_mutations, xml::ParseMutations(mutations));
  }
  uint32_t nsubjects = cursor.GetU32();
  for (uint32_t i = 0; i < nsubjects && cursor.ok; ++i) {
    std::string name = cursor.GetString();
    engine::SubjectDelta delta;
    delta.marked = GetIds(&cursor);
    delta.cleared = GetIds(&cursor);
    r.deltas[std::move(name)] = std::move(delta);
  }
  if (!cursor.ok || !cursor.AtEnd()) {
    return Status::ParseError("malformed WAL record payload");
  }
  return r;
}

}  // namespace xmlac::storage
