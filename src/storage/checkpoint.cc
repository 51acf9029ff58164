#include "storage/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/binary.h"
#include "common/io.h"

namespace xmlac::storage {

namespace {

constexpr char kMagic[4] = {'X', 'C', 'K', 'P'};
constexpr uint32_t kFormatVersion = 2;
constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".ckpt";
constexpr size_t kEpochDigits = 12;

std::string JoinPath(std::string_view dir, std::string_view name) {
  std::string out(dir);
  if (!out.empty() && out.back() != '/') out.push_back('/');
  out.append(name);
  return out;
}

void PutSubject(std::string* out, const SubjectState& s) {
  PutString(out, s.name);
  PutString(out, s.policy_text);
  PutU8(out, static_cast<uint8_t>(s.default_sign));
  PutU32(out, static_cast<uint32_t>(s.marked.size()));
  for (engine::UniversalId id : s.marked) {
    PutU64(out, static_cast<uint64_t>(id));
  }
}

bool GetSubject(BinaryCursor* cursor, SubjectState* s) {
  s->name = cursor->GetString();
  s->policy_text = cursor->GetString();
  s->default_sign = static_cast<char>(cursor->GetU8());
  uint32_t n = cursor->GetU32();
  if (!cursor->Need(static_cast<size_t>(n) * 8)) return false;
  s->marked.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    s->marked.push_back(static_cast<engine::UniversalId>(cursor->GetU64()));
  }
  return cursor->ok;
}

}  // namespace

std::string CheckpointFileName(uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%0*llu%s", kPrefix,
                static_cast<int>(kEpochDigits),
                static_cast<unsigned long long>(epoch), kSuffix);
  return buf;
}

bool ParseCheckpointFileName(std::string_view name, uint64_t* epoch) {
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kPrefixLen + kSuffixLen) return false;
  if (name.substr(0, kPrefixLen) != kPrefix) return false;
  if (name.substr(name.size() - kSuffixLen) != kSuffix) return false;
  std::string_view digits =
      name.substr(kPrefixLen, name.size() - kPrefixLen - kSuffixLen);
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *epoch = value;
  return true;
}

std::string EncodeCheckpoint(const CheckpointData& data) {
  std::string body;
  PutU64(&body, data.epoch);
  PutU64(&body, data.rule_cache_epoch);
  PutString(&body, data.dtd_text);
  PutString(&body, data.master_binary);
  PutU32(&body, static_cast<uint32_t>(data.subjects.size()));
  for (const SubjectState& s : data.subjects) PutSubject(&body, s);

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kFormatVersion);
  PutU32(&out, Crc32(body));
  out.append(body);
  return out;
}

Result<CheckpointData> DecodeCheckpoint(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + 8 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a checkpoint file");
  }
  BinaryCursor header(bytes.substr(sizeof(kMagic), 8));
  uint32_t version = header.GetU32();
  uint32_t crc = header.GetU32();
  if (version != kFormatVersion) {
    return Status::ParseError("unsupported checkpoint format version " +
                              std::to_string(version));
  }
  std::string_view body = bytes.substr(sizeof(kMagic) + 8);
  if (Crc32(body) != crc) {
    return Status::ParseError("checkpoint checksum mismatch");
  }
  BinaryCursor cursor(body);
  CheckpointData data;
  data.epoch = cursor.GetU64();
  data.rule_cache_epoch = cursor.GetU64();
  data.dtd_text = cursor.GetString();
  data.master_binary = cursor.GetString();
  uint32_t nsubjects = cursor.GetU32();
  for (uint32_t i = 0; i < nsubjects && cursor.ok; ++i) {
    SubjectState s;
    if (!GetSubject(&cursor, &s)) break;
    data.subjects.push_back(std::move(s));
  }
  if (!cursor.ok || !cursor.AtEnd()) {
    return Status::ParseError("malformed checkpoint body");
  }
  return data;
}

Status WriteCheckpoint(std::string_view dir, const CheckpointData& data) {
  return AtomicWriteFile(JoinPath(dir, CheckpointFileName(data.epoch)),
                         EncodeCheckpoint(data));
}

Result<CheckpointData> ReadNewestCheckpoint(std::string_view dir,
                                            size_t* skipped) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<std::string> names, ListFiles(dir));
  // Collect candidate epochs, newest first (names sort ascending and the
  // epoch field is zero-padded).
  std::vector<std::string> candidates;
  for (const std::string& name : names) {
    uint64_t epoch = 0;
    if (ParseCheckpointFileName(name, &epoch)) candidates.push_back(name);
  }
  std::reverse(candidates.begin(), candidates.end());
  for (const std::string& name : candidates) {
    auto bytes = ReadFile(JoinPath(dir, name));
    if (bytes.ok()) {
      auto data = DecodeCheckpoint(*bytes);
      if (data.ok()) return data;
    }
    // Unreadable or corrupt (the atomic rename rules out half-written
    // files, but a damaged disk does not): fall back to the next-newest.
    if (skipped != nullptr) ++*skipped;
  }
  return Status::NotFound("no valid checkpoint in '" + std::string(dir) + "'");
}

Status RemoveCheckpointsBefore(std::string_view dir, uint64_t epoch) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<std::string> names, ListFiles(dir));
  bool removed = false;
  for (const std::string& name : names) {
    uint64_t file_epoch = 0;
    if (!ParseCheckpointFileName(name, &file_epoch)) continue;
    if (file_epoch >= epoch) continue;
    XMLAC_RETURN_IF_ERROR(RemoveFileIfExists(JoinPath(dir, name)));
    removed = true;
  }
  if (removed) XMLAC_RETURN_IF_ERROR(SyncDirectory(dir));
  return Status::OK();
}

}  // namespace xmlac::storage
