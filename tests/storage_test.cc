// Durability subsystem tests (src/storage/, docs/durability.md):
// segment framing and torn-tail scanning, WAL append/reopen/truncate,
// checkpoint encode/decode with corruption fallback, and end-to-end crash
// recovery including the randomized crash-point fuzz harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/io.h"
#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/segment.h"
#include "storage/wal.h"
#include "testing/serve_fuzz.h"
#include "tests/testdata.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xpath/structural_index.h"

namespace xmlac::storage {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/xmlac_storage_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ----- Segment framing ---------------------------------------------------

TEST(SegmentTest, FileNameRoundTrip) {
  uint64_t seq = 0;
  EXPECT_EQ(SegmentFileName(1), "wal-00000001.log");
  ASSERT_TRUE(ParseSegmentFileName(SegmentFileName(42), &seq));
  EXPECT_EQ(seq, 42u);
  ASSERT_TRUE(ParseSegmentFileName(SegmentFileName(99999999), &seq));
  EXPECT_EQ(seq, 99999999u);
  EXPECT_FALSE(ParseSegmentFileName("checkpoint-000000000001.ckpt", &seq));
  EXPECT_FALSE(ParseSegmentFileName("wal-.log", &seq));
  EXPECT_FALSE(ParseSegmentFileName("wal-0000000x.log", &seq));
  EXPECT_FALSE(ParseSegmentFileName("wal-00000001.log.tmp", &seq));
}

TEST(SegmentTest, FrameRoundTrip) {
  std::string bytes;
  AppendFrame(&bytes, 7, "alpha");
  AppendFrame(&bytes, 8, "");
  std::string binary("\x00\x01\xff\xfe", 4);
  AppendFrame(&bytes, 9, binary);
  SegmentScan scan = ScanSegment(bytes);
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, bytes.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].marker, 7u);
  EXPECT_EQ(scan.records[0].payload, "alpha");
  EXPECT_EQ(scan.records[1].marker, 8u);
  EXPECT_TRUE(scan.records[1].payload.empty());
  EXPECT_EQ(scan.records[2].marker, 9u);
  EXPECT_EQ(scan.records[2].payload, binary);
}

// The recovery invariant, exhaustively: a segment truncated at EVERY byte
// offset parses as a complete prefix of the original records plus a clean
// truncation point — never as corrupt or invented records.
TEST(SegmentTest, TruncationAtEveryByteOffsetYieldsCleanPrefix) {
  std::string bytes;
  std::vector<size_t> boundaries{0};  // frame end offsets
  std::vector<std::string> payloads;
  for (int i = 0; i < 6; ++i) {
    std::string payload(static_cast<size_t>(i * 7), 'a' + static_cast<char>(i));
    payload += "rec" + std::to_string(i);
    payloads.push_back(payload);
    AppendFrame(&bytes, 100 + static_cast<uint64_t>(i), payload);
    boundaries.push_back(bytes.size());
  }
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SegmentScan scan = ScanSegment(std::string_view(bytes).substr(0, cut));
    // Complete frames strictly before the cut survive.
    size_t want = 0;
    while (want + 1 < boundaries.size() && boundaries[want + 1] <= cut) ++want;
    ASSERT_EQ(scan.records.size(), want) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, boundaries[want]) << "cut at " << cut;
    EXPECT_EQ(scan.clean, boundaries[want] == cut) << "cut at " << cut;
    for (size_t r = 0; r < want; ++r) {
      EXPECT_EQ(scan.records[r].marker, 100 + r);
      EXPECT_EQ(scan.records[r].payload, payloads[r]);
    }
  }
}

// Flipping any single byte never yields a record that differs from the
// original at that position — the scan stops at or before the damage.
TEST(SegmentTest, BitRotNeverYieldsCorruptRecords) {
  std::string bytes;
  std::vector<std::string> payloads;
  for (int i = 0; i < 4; ++i) {
    payloads.push_back("payload-" + std::to_string(i));
    AppendFrame(&bytes, static_cast<uint64_t>(i + 1), payloads.back());
  }
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x41);
    SegmentScan scan = ScanSegment(damaged);
    ASSERT_LE(scan.records.size(), payloads.size());
    for (size_t r = 0; r < scan.records.size(); ++r) {
      // Any record the scan does return must be one of the originals,
      // in order (the flip may damage only frames at or after its
      // offset).
      EXPECT_EQ(scan.records[r].marker, r + 1) << "flip at " << at;
      EXPECT_EQ(scan.records[r].payload, payloads[r]) << "flip at " << at;
    }
  }
}

// ----- WAL ---------------------------------------------------------------

// A batch record with the given epoch and no ops — a decodable payload
// for WAL-level tests that don't care about record contents.
std::string EpochRecord(uint64_t epoch) {
  BatchRecord record;
  record.epoch = epoch;
  return EncodeBatchRecord(record);
}

TEST(WalTest, AppendReopenRoundTrip) {
  std::string dir = FreshDir("wal_roundtrip");
  {
    WalOptions opt;
    opt.dir = dir;
    opt.level = DurabilityLevel::kNone;
    auto wal = Wal::Open(opt);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(1, EpochRecord(1)).ok());
    ASSERT_TRUE((*wal)->Append(2, EpochRecord(2)).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    EXPECT_EQ((*wal)->records_appended(), 2u);
  }
  // A reopen starts a fresh segment after the existing ones and appends
  // there; the directory reads back in order across segments.
  {
    WalOptions opt;
    opt.dir = dir;
    opt.level = DurabilityLevel::kNone;
    auto wal = Wal::Open(opt);
    ASSERT_TRUE(wal.ok()) << wal.status();
    EXPECT_GT((*wal)->current_segment_seq(), 1u);
    ASSERT_TRUE((*wal)->Append(3, EpochRecord(3)).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto contents = ReadWalDir(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->segments, 2u);
  EXPECT_EQ(contents->torn_segments, 0u);
  EXPECT_EQ(contents->damage, "");
  ASSERT_EQ(contents->records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(contents->records[i].epoch, i + 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(WalTest, TornTailTruncatedOnReopen) {
  std::string dir = FreshDir("wal_torn");
  {
    WalOptions opt;
    opt.dir = dir;
    opt.level = DurabilityLevel::kNone;
    auto wal = Wal::Open(opt);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, EpochRecord(1)).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Simulate a torn append: garbage bytes at the tail of the newest
  // segment (looks like a frame header pointing past EOF).
  std::string segment_path = dir + "/" + SegmentFileName(1);
  auto before = ReadFile(segment_path);
  ASSERT_TRUE(before.ok());
  std::string torn = *before + std::string("\xff\xff\xff\x7f tail", 9);
  ASSERT_TRUE(WriteFile(segment_path, torn).ok());
  {
    WalOptions opt;
    opt.dir = dir;
    opt.level = DurabilityLevel::kNone;
    auto wal = Wal::Open(opt);
    ASSERT_TRUE(wal.ok()) << wal.status();
  }
  auto after = ReadFile(segment_path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before) << "open must truncate the torn tail in place";
  auto contents = ReadWalDir(dir);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].epoch, 1u);
  EXPECT_EQ(contents->damage, "") << "a torn newest segment is no damage";
  std::filesystem::remove_all(dir);
}

TEST(WalTest, SegmentRollingAndTruncateThrough) {
  std::string dir = FreshDir("wal_roll");
  WalOptions opt;
  opt.dir = dir;
  opt.level = DurabilityLevel::kNone;
  opt.segment_bytes = 64;  // force a roll every couple of records
  auto wal = Wal::Open(opt);
  ASSERT_TRUE(wal.ok());
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    ASSERT_TRUE((*wal)->Append(epoch, EpochRecord(epoch)).ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_GT((*wal)->current_segment_seq(), 2u);

  auto files_before = ListFiles(dir);
  ASSERT_TRUE(files_before.ok());
  size_t segments_before = files_before->size();

  // Truncation drops sealed segments whose every record is <= the marker;
  // the open segment survives regardless.
  ASSERT_TRUE((*wal)->TruncateThrough(5).ok());
  auto files_after = ListFiles(dir);
  ASSERT_TRUE(files_after.ok());
  EXPECT_LT(files_after->size(), segments_before);

  auto contents = ReadWalDir(dir);
  ASSERT_TRUE(contents.ok());
  ASSERT_FALSE(contents->records.empty());
  // Everything with marker > 5 must still be there, contiguously.
  uint64_t max_epoch = 0;
  for (const BatchRecord& record : contents->records) {
    max_epoch = std::max(max_epoch, record.epoch);
  }
  EXPECT_EQ(max_epoch, 10u);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, CrashHookDropsLaterAppendsSilently) {
  std::string dir = FreshDir("wal_crash");
  WalOptions opt;
  opt.dir = dir;
  opt.level = DurabilityLevel::kNone;
  opt.crash_after_records = 2;
  auto wal = Wal::Open(opt);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, EpochRecord(1)).ok());
  ASSERT_TRUE((*wal)->Append(2, EpochRecord(2)).ok());
  EXPECT_FALSE((*wal)->crashed());
  // The third append hits the crash point: it reports success (the caller
  // must behave exactly as if the process died) but persists nothing.
  ASSERT_TRUE((*wal)->Append(3, EpochRecord(3)).ok());
  EXPECT_TRUE((*wal)->crashed());
  ASSERT_TRUE((*wal)->Append(4, EpochRecord(4)).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  // Truncation must refuse to run post-crash.
  ASSERT_TRUE((*wal)->TruncateThrough(99).ok());
  wal->reset();

  auto contents = ReadWalDir(dir);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, RealIoFailureStaysAnError) {
  std::string dir = FreshDir("wal_io_fail");
  WalOptions opt;
  opt.dir = dir;
  opt.level = DurabilityLevel::kNone;
  opt.segment_bytes = 64;  // roll after a couple of records
  auto wal = Wal::Open(opt);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, EpochRecord(1)).ok());
  // Pull the directory out from under the log: appends to the already-open
  // segment still land, but the next segment roll cannot create its file —
  // a real IO failure, not a simulated crash.
  std::filesystem::remove_all(dir);
  Status first = Status::OK();
  for (uint64_t epoch = 2; epoch <= 16 && first.ok(); ++epoch) {
    first = (*wal)->Append(epoch, EpochRecord(epoch));
  }
  ASSERT_FALSE(first.ok()) << "segment roll into a missing dir must fail";
  EXPECT_TRUE((*wal)->crashed());
  // Unlike the simulated-crash hook, the error is sticky: every later
  // append and sync keeps reporting it, so no client is ever told a
  // post-failure commit is durable.
  Status again = (*wal)->Append(99, EpochRecord(99));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.message(), first.message());
  EXPECT_FALSE((*wal)->Sync().ok());
  // Truncation still refuses to run on a crashed log.
  EXPECT_TRUE((*wal)->TruncateThrough(99).ok());
}

TEST(WalTest, OversizedPayloadRejectedWithoutPoisoning) {
  std::string dir = FreshDir("wal_oversize");
  WalOptions opt;
  opt.dir = dir;
  opt.level = DurabilityLevel::kNone;
  auto wal = Wal::Open(opt);
  ASSERT_TRUE(wal.ok());
  // A frame's u32 length prefix covers [u64 marker][payload]; anything the
  // prefix cannot represent must be rejected before any bytes are written.
  // The size check fires before the payload is read, so a sized view over
  // a one-byte buffer exercises it without allocating 4GiB.
  const char byte = 'x';
  std::string_view huge(&byte, static_cast<size_t>(UINT32_MAX) - 7);
  Status s = (*wal)->Append(1, huge);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Rejection is not corruption: the log stays healthy and appendable.
  EXPECT_FALSE((*wal)->crashed());
  ASSERT_TRUE((*wal)->Append(1, EpochRecord(1)).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  wal->reset();
  auto contents = ReadWalDir(dir);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records.size(), 1u);
  std::filesystem::remove_all(dir);
}

// Appends (with frequent segment rolls) racing TruncateThrough from a
// second thread — the checkpointer-vs-writer interleaving.  TSan verifies
// the locking; without it this still smoke-tests map/file consistency.
TEST(WalTest, ConcurrentAppendAndTruncate) {
  std::string dir = FreshDir("wal_concurrent");
  WalOptions opt;
  opt.dir = dir;
  opt.level = DurabilityLevel::kNone;
  opt.segment_bytes = 64;  // roll every couple of records
  auto wal = Wal::Open(opt);
  ASSERT_TRUE(wal.ok());
  constexpr uint64_t kRecords = 400;
  std::thread appender([&wal] {
    for (uint64_t epoch = 1; epoch <= kRecords; ++epoch) {
      ASSERT_TRUE((*wal)->Append(epoch, EpochRecord(epoch)).ok());
    }
  });
  for (int i = 0; i < 100; ++i) {
    uint64_t marker = (*wal)->records_appended();
    ASSERT_TRUE((*wal)->TruncateThrough(marker).ok());
  }
  appender.join();
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->records_appended(), kRecords);
  wal->reset();
  // Whatever survived truncation must read back as a contiguous tail
  // ending at the last record.
  auto contents = ReadWalDir(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_FALSE(contents->records.empty());
  EXPECT_EQ(contents->records.back().epoch, kRecords);
  for (size_t i = 1; i < contents->records.size(); ++i) {
    EXPECT_EQ(contents->records[i].epoch,
              contents->records[i - 1].epoch + 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(WalTest, DurabilityLevelNames) {
  EXPECT_EQ(DurabilityLevelName(DurabilityLevel::kNone), "none");
  EXPECT_EQ(DurabilityLevelName(DurabilityLevel::kFdatasync), "fdatasync");
  EXPECT_EQ(DurabilityLevelName(DurabilityLevel::kFsync), "fsync");
  EXPECT_EQ(ParseDurabilityLevel("fsync"), DurabilityLevel::kFsync);
  EXPECT_EQ(ParseDurabilityLevel("fdatasync"), DurabilityLevel::kFdatasync);
  EXPECT_EQ(ParseDurabilityLevel("none"), DurabilityLevel::kNone);
  EXPECT_FALSE(ParseDurabilityLevel("o_direct").has_value());
}

// ----- Record payload encoding -------------------------------------------

// Kind 1 was the genesis install record, which the epoch-1 checkpoint
// replaced; a payload of that kind is refused by name, never skipped.
TEST(RecordTest, InstallKindIsRefused) {
  std::string payload = EncodeBatchRecord(BatchRecord{});
  payload[0] = 1;
  auto decoded = DecodeBatchRecord(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find(
                "genesis install records were replaced by the epoch-1 "
                "checkpoint"),
            std::string::npos)
      << decoded.status();
}

TEST(RecordTest, BatchRoundTrip) {
  BatchRecord batch;
  batch.epoch = 9;
  batch.ops.push_back(engine::BatchOp::Delete("//a[b=\"c\"]"));
  batch.ops.push_back(engine::BatchOp::Insert("//a", "<b>x</b>"));
  batch.deltas["alice"] = engine::SubjectDelta{{1, 2}, {3}};
  batch.deltas["bob"] = engine::SubjectDelta{{}, {7}};

  auto decoded = DecodeBatchRecord(EncodeBatchRecord(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epoch, 9u);
  ASSERT_EQ(decoded->ops.size(), 2u);
  EXPECT_EQ(decoded->ops[0].kind, engine::BatchOp::Kind::kDelete);
  EXPECT_EQ(decoded->ops[0].xpath, "//a[b=\"c\"]");
  EXPECT_EQ(decoded->ops[1].kind, engine::BatchOp::Kind::kInsert);
  EXPECT_EQ(decoded->ops[1].fragment_xml, "<b>x</b>");
  ASSERT_EQ(decoded->deltas.size(), 2u);
  EXPECT_EQ(decoded->deltas.at("alice").marked,
            (std::vector<engine::UniversalId>{1, 2}));
  EXPECT_EQ(decoded->deltas.at("alice").cleared,
            (std::vector<engine::UniversalId>{3}));
  EXPECT_EQ(decoded->deltas.at("bob").cleared,
            (std::vector<engine::UniversalId>{7}));
}

TEST(RecordTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeBatchRecord("").ok());
  EXPECT_FALSE(DecodeBatchRecord("\x07garbage").ok());
  // A valid record with trailing bytes is rejected (AtEnd check).
  std::string padded = EncodeBatchRecord(BatchRecord{});
  padded += "x";
  EXPECT_FALSE(DecodeBatchRecord(padded).ok());
}

// ----- Checkpoints -------------------------------------------------------

CheckpointData SampleCheckpoint(uint64_t epoch) {
  CheckpointData data;
  data.epoch = epoch;
  data.rule_cache_epoch = epoch + 1;
  data.dtd_text = "<!ELEMENT r (#PCDATA)>";
  data.master_binary = "binary-master-" + std::to_string(epoch);
  SubjectState subject;
  subject.name = "alice";
  subject.policy_text = "p";
  subject.default_sign = '-';
  subject.marked = {4, 9};
  data.subjects.push_back(subject);
  return data;
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  CheckpointData data = SampleCheckpoint(12);
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(data));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epoch, 12u);
  EXPECT_EQ(decoded->rule_cache_epoch, 13u);
  EXPECT_EQ(decoded->master_binary, data.master_binary);
  ASSERT_EQ(decoded->subjects.size(), 1u);
  EXPECT_EQ(decoded->subjects[0].marked,
            (std::vector<engine::UniversalId>{4, 9}));
}

TEST(CheckpointTest, DecodeRejectsCorruption) {
  std::string bytes = EncodeCheckpoint(SampleCheckpoint(3));
  EXPECT_TRUE(DecodeCheckpoint(bytes).ok());
  for (size_t at : {size_t{0}, size_t{5}, bytes.size() / 2,
                    bytes.size() - 1}) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    EXPECT_FALSE(DecodeCheckpoint(damaged).ok()) << "flip at " << at;
  }
  EXPECT_FALSE(DecodeCheckpoint(bytes.substr(0, bytes.size() - 3)).ok());
  EXPECT_FALSE(DecodeCheckpoint("").ok());
}

// Version-1 files carried interval labels; the current format rebuilds
// them at load and refuses the old layout outright.
TEST(CheckpointTest, FormatVersionOneIsRefused) {
  std::string bytes = EncodeCheckpoint(SampleCheckpoint(3));
  // Header: 4-byte magic, then the little-endian u32 format version.
  ASSERT_EQ(bytes[4], 2);
  bytes[4] = 1;
  auto decoded = DecodeCheckpoint(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(),
            "unsupported checkpoint format version 1");
}

TEST(CheckpointTest, NewestValidWinsAndCorruptFallsBack) {
  std::string dir = FreshDir("ckpt");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, SampleCheckpoint(5)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, SampleCheckpoint(9)).ok());
  size_t skipped = 0;
  auto newest = ReadNewestCheckpoint(dir, &skipped);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->epoch, 9u);
  EXPECT_EQ(skipped, 0u);

  // Corrupt the newest file: reads fall back to the older valid one.
  std::string newest_path = dir + "/" + CheckpointFileName(9);
  auto bytes = ReadFile(newest_path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteFile(newest_path, damaged).ok());
  newest = ReadNewestCheckpoint(dir, &skipped);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->epoch, 5u);
  EXPECT_EQ(skipped, 1u) << "the fallback past the damaged file is counted";

  ASSERT_TRUE(RemoveCheckpointsBefore(dir, 9).ok());
  EXPECT_FALSE(ReadNewestCheckpoint(dir + "/nope").ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, EmptyDirIsNotFound) {
  std::string dir = FreshDir("ckpt_empty");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto r = ReadNewestCheckpoint(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

// ----- Recovery ----------------------------------------------------------

engine::MultiSubjectController MakeController() {
  return engine::MultiSubjectController(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
}

struct DurableRun {
  std::string dir;
  xml::Dtd dtd;
  std::vector<std::pair<std::string, std::string>> subjects;
};

// The checkpoint a server would write for `controller`'s state at `epoch`.
CheckpointData CaptureCheckpoint(engine::MultiSubjectController* controller,
                                 const DurableRun& run, uint64_t epoch) {
  CheckpointData data;
  data.epoch = epoch;
  data.rule_cache_epoch = controller->rule_cache().epoch();
  data.dtd_text = xml::DtdToString(run.dtd);
  controller->document().AppendBinary(&data.master_binary);
  for (const auto& [name, policy] : run.subjects) {
    auto* ac = controller->subject(name);
    SubjectState subject;
    subject.name = name;
    subject.policy_text = policy;
    subject.default_sign = ac->CurrentDefaultSign();
    subject.marked = ac->ExportMarkedSigns();
    data.subjects.push_back(std::move(subject));
  }
  return data;
}

// Builds a data directory as a durable server would — the genesis state
// as the epoch-1 checkpoint, then one WAL batch record per op — while
// applying the ops through `controller` normally; markers are the commit
// epochs.
void WriteRun(engine::MultiSubjectController* controller,
              const std::vector<engine::BatchOp>& ops, const DurableRun& run,
              size_t segment_bytes = 64u << 20) {
  WalOptions wopt;
  wopt.dir = run.dir;
  wopt.level = DurabilityLevel::kNone;
  wopt.segment_bytes = segment_bytes;
  auto wal = Wal::Open(wopt);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE(
      WriteCheckpoint(run.dir, CaptureCheckpoint(controller, run, 1)).ok());

  uint64_t epoch = 1;
  for (const engine::BatchOp& op : ops) {
    std::vector<engine::BatchOp> batch{op};
    engine::CommitCapture capture;
    auto stats = controller->ApplyBatch(batch, &capture);
    ASSERT_TRUE(stats.ok()) << stats.status();
    BatchRecord record;
    record.epoch = ++epoch;
    record.ops = std::move(batch);
    record.master_mutations = std::move(capture.master_mutations);
    record.deltas = std::move(capture.subjects);
    ASSERT_TRUE(
        (*wal)->Append(record.epoch, EncodeBatchRecord(record)).ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());
}

// A second policy so recovery exercises per-subject sign divergence.
constexpr char kAuditorPolicy[] = R"(
default deny
conflict deny
allow //patient
allow //patient/psn
deny  //patient[.//experimental]
allow //bill
)";

DurableRun HospitalRun(const char* tag) {
  DurableRun run;
  run.dir = FreshDir(tag);
  auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  run.dtd = *dtd;
  run.subjects = {
      {"auditor", kAuditorPolicy},
      {"nurse", testdata::kHospitalPolicy},
  };
  return run;
}

void SetUpRun(const DurableRun& run,
              engine::MultiSubjectController* controller) {
  auto doc = xml::ParseDocument(testdata::kHospitalDoc);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(controller->LoadParsed(run.dtd, *doc).ok());
  for (const auto& [name, policy] : run.subjects) {
    ASSERT_TRUE(controller->AddSubject(name, policy).ok());
  }
}

// What a structural join reads from `version` over `doc`: each alive
// element's level, the order of all label endpoints (which fixes nesting
// and document order), and the alive entries of every tag stream.
std::string IndexShape(const xpath::IndexVersion& version,
                       const xml::Document& doc) {
  std::string out;
  std::vector<std::pair<uint64_t, std::string>> endpoints;
  std::set<std::string> tags;
  for (xml::NodeId id : doc.AllElements()) {
    const xpath::IntervalLabel& label = version.label(id);
    out += std::to_string(id) + "@" + std::to_string(label.level) + " ";
    endpoints.emplace_back(label.start, "(" + std::to_string(id));
    endpoints.emplace_back(label.end, std::to_string(id) + ")");
    tags.insert(doc.node(id).label);
  }
  std::sort(endpoints.begin(), endpoints.end());
  out += "\nlabels:";
  for (const auto& endpoint : endpoints) out += " " + endpoint.second;
  for (const std::string& tag : tags) {
    out += "\n" + tag + ":";
    for (xml::NodeId id : version.TagStream(tag)) {
      if (doc.IsAlive(id)) out += " " + std::to_string(id);
    }
  }
  return out;
}

TEST(RecoveryTest, ReplayedStateMatchesLiveState) {
  DurableRun run = HospitalRun("recover_e2e");
  engine::MultiSubjectController live = MakeController();
  SetUpRun(run, &live);
  std::vector<engine::BatchOp> ops{
      engine::BatchOp::Delete("//patient[psn=\"033\"]"),
      engine::BatchOp::Insert("//patients",
                              "<patient><psn>009</psn><name>new</name>"
                              "</patient>"),
      engine::BatchOp::Delete("//patient[psn=\"042\"]/treatment"),
  };
  WriteRun(&live, ops, run);

  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(run.dir, &recovered);
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_TRUE(state->found);
  EXPECT_EQ(state->epoch, 1 + ops.size());
  EXPECT_EQ(state->replayed_batches, ops.size());
  EXPECT_EQ(state->dtd_text, xml::DtdToString(run.dtd));
  ASSERT_EQ(state->subject_policies.size(), 2u);

  EXPECT_EQ(engine::DiffFleetState(recovered, live), "");
  std::filesystem::remove_all(run.dir);
}

TEST(RecoveryTest, ReplayFromCheckpointSkipsCoveredBatches) {
  DurableRun run = HospitalRun("recover_ckpt");
  engine::MultiSubjectController live = MakeController();
  SetUpRun(run, &live);
  std::vector<engine::BatchOp> ops{
      engine::BatchOp::Delete("//patient[psn=\"033\"]"),
      engine::BatchOp::Delete("//patient[psn=\"042\"]"),
  };
  WriteRun(&live, ops, run);

  // Checkpoint the final state (epoch 3): recovery must load it and
  // replay zero batches, ignoring the fully covered WAL.
  ASSERT_TRUE(WriteCheckpoint(run.dir, CaptureCheckpoint(&live, run, 3)).ok());

  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(run.dir, &recovered);
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_TRUE(state->found);
  EXPECT_EQ(state->epoch, 3u);
  EXPECT_EQ(state->replayed_batches, 0u);
  EXPECT_EQ(engine::DiffFleetState(recovered, live), "");
  // With no tail to replay, the recovered index is the load-time build:
  // its labels are exactly those of a fresh labeling of the document the
  // checkpoint stored.
  auto index = recovered.native_store()->CurrentIndexVersion();
  ASSERT_NE(index, nullptr);
  const xml::Document& doc = recovered.document();
  std::vector<xpath::IntervalLabel> fresh = xpath::ComputeIntervalLabels(doc);
  for (xml::NodeId id : doc.AllElements()) {
    EXPECT_EQ(index->label(id).start, fresh[id].start) << id;
    EXPECT_EQ(index->label(id).end, fresh[id].end) << id;
    EXPECT_EQ(index->label(id).level, fresh[id].level) << id;
  }
  std::filesystem::remove_all(run.dir);
}

// Recovery from a checkpoint plus a WAL tail: the index published at load
// and maintained through the replayed batches must read like a fresh index
// over the recovered document.  Incremental inserts carve labels out of
// gaps, so the values may differ; the nesting and order they encode, the
// levels and the alive entries of every tag stream may not.
TEST(RecoveryTest, RecoveredIndexMatchesFreshIndexAfterTail) {
  DurableRun run = HospitalRun("recover_ckpt_tail");
  std::vector<engine::BatchOp> ops{
      engine::BatchOp::Delete("//patient[psn=\"033\"]"),
      engine::BatchOp::Insert("//patients",
                              "<patient><psn>009</psn><name>new</name>"
                              "<treatment><regular><bill>5</bill></regular>"
                              "</treatment></patient>"),
      engine::BatchOp::Delete("//patient[psn=\"042\"]/treatment"),
  };
  engine::MultiSubjectController live = MakeController();
  SetUpRun(run, &live);
  WriteRun(&live, ops, run);
  // The checkpoint covers the first batch (epoch 2); the tail replays the
  // insert and the second delete.
  engine::MultiSubjectController at_two = MakeController();
  SetUpRun(run, &at_two);
  ASSERT_TRUE(at_two.ApplyBatch({ops[0]}).ok());
  ASSERT_TRUE(
      WriteCheckpoint(run.dir, CaptureCheckpoint(&at_two, run, 2)).ok());

  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(run.dir, &recovered);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->epoch, 4u);
  EXPECT_EQ(state->replayed_batches, 2u);
  EXPECT_EQ(engine::DiffFleetState(recovered, live), "");

  const xml::Document& doc = recovered.document();
  auto maintained = recovered.native_store()->CurrentIndexVersion();
  ASSERT_NE(maintained, nullptr);
  ASSERT_TRUE(maintained->Matches(doc));
  xpath::StructuralIndex fresh(&doc);
  fresh.Publish();
  ASSERT_NE(fresh.current(), nullptr);
  EXPECT_EQ(IndexShape(*maintained, doc), IndexShape(*fresh.current(), doc));
  std::filesystem::remove_all(run.dir);
}

TEST(RecoveryTest, EpochGapIsAnError) {
  DurableRun run = HospitalRun("recover_gap");
  engine::MultiSubjectController live = MakeController();
  SetUpRun(run, &live);
  std::vector<engine::BatchOp> ops{
      engine::BatchOp::Delete("//patient[psn=\"033\"]"),
  };
  WriteRun(&live, ops, run);
  // Append a batch whose epoch skips 3: recovery must refuse rather than
  // replay out of order.
  {
    WalOptions wopt;
    wopt.dir = run.dir;
    wopt.level = DurabilityLevel::kNone;
    auto wal = Wal::Open(wopt);
    ASSERT_TRUE(wal.ok());
    BatchRecord record;
    record.epoch = 4;
    record.ops.push_back(engine::BatchOp::Delete("//patient[psn=\"042\"]"));
    ASSERT_TRUE(
        (*wal)->Append(record.epoch, EncodeBatchRecord(record)).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(run.dir, &recovered);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kInternal);
  std::filesystem::remove_all(run.dir);
}

TEST(RecoveryTest, EmptyDirectoryRecoversNothing) {
  std::string dir = FreshDir("recover_empty");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  engine::MultiSubjectController controller = MakeController();
  auto state = RecoverState(dir, &controller);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_FALSE(state->found);
  std::filesystem::remove_all(dir);
}

// A server's data dir lock file is not durable state: a directory holding
// only LOCK, held or not, is fresh to recovery and to inspection.
TEST(RecoveryTest, LockFileAloneIsFresh) {
  std::string dir = FreshDir("recover_lock_only");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto lock = FileLock::Acquire(dir + "/LOCK");
  ASSERT_TRUE(lock.ok()) << lock.status();
  for (bool held : {true, false}) {
    if (!held) lock->Release();
    engine::MultiSubjectController controller = MakeController();
    auto state = RecoverState(dir, &controller);
    ASSERT_TRUE(state.ok()) << state.status();
    EXPECT_FALSE(state->found) << "held " << held;
    auto summary = InspectWalDir(dir);
    ASSERT_TRUE(summary.ok()) << summary.status();
    EXPECT_FALSE(summary->has_checkpoint);
    EXPECT_EQ(summary->refusal, "");
    EXPECT_EQ(summary->segments, 0u);
    EXPECT_EQ(summary->batch_records, 0u);
  }
  EXPECT_EQ(ListFiles(dir).value(), std::vector<std::string>{"LOCK"});
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, InspectSummarizesDirectory) {
  DurableRun run = HospitalRun("recover_inspect");
  engine::MultiSubjectController live = MakeController();
  SetUpRun(run, &live);
  std::vector<engine::BatchOp> ops{
      engine::BatchOp::Delete("//patient[psn=\"033\"]"),
      engine::BatchOp::Delete("//patient[psn=\"042\"]"),
  };
  WriteRun(&live, ops, run);
  auto summary = InspectWalDir(run.dir);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_TRUE(summary->has_checkpoint);
  EXPECT_EQ(summary->checkpoint_epoch, 1u);
  EXPECT_EQ(summary->checkpoints_skipped, 0u);
  EXPECT_EQ(summary->refusal, "");
  EXPECT_EQ(summary->segments, 1u);
  EXPECT_EQ(summary->batch_records, 2u);
  EXPECT_EQ(summary->first_batch_epoch, 2u);
  EXPECT_EQ(summary->last_batch_epoch, 3u);
  EXPECT_EQ(summary->subjects.size(), 2u);
  std::filesystem::remove_all(run.dir);
}

void FlipByte(const std::string& path, size_t offset) {
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_LT(offset, bytes->size());
  std::string damaged = *bytes;
  damaged[offset] = static_cast<char>(damaged[offset] ^ 0x20);
  ASSERT_TRUE(WriteFile(path, damaged).ok());
}

const std::vector<engine::BatchOp> kFourDeletes{
    engine::BatchOp::Delete("//patient[psn=\"033\"]"),
    engine::BatchOp::Delete("//patient[psn=\"042\"]/treatment"),
    engine::BatchOp::Delete("//patient[psn=\"042\"]"),
    engine::BatchOp::Delete("//patient/name"),
};

// Damage before the newest segment loses acknowledged commits after it:
// recovery refuses instead of serving the prefix, naming the segment and
// the last good epoch.
TEST(RecoveryTest, DamagedSealedSegmentIsRefused) {
  DurableRun run = HospitalRun("recover_damaged_segment");
  engine::MultiSubjectController live = MakeController();
  SetUpRun(run, &live);
  WriteRun(&live, kFourDeletes, run, /*segment_bytes=*/64);
  auto contents = ReadWalDir(run.dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_GE(contents->segments, 3u) << "every record rolls a segment";
  // The second segment's frame header: its first record (epoch 3) fails
  // its CRC, and the records of later segments are unreachable.
  FlipByte(run.dir + "/" + SegmentFileName(2), 5);

  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(run.dir, &recovered);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kInternal);
  EXPECT_NE(state.status().message().find(SegmentFileName(2)),
            std::string::npos)
      << state.status();
  EXPECT_NE(state.status().message().find("last good epoch 2"),
            std::string::npos)
      << state.status();
  auto summary = InspectWalDir(run.dir);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->refusal, state.status().message());
  std::filesystem::remove_all(run.dir);
}

// WAL records (or damaged checkpoint files) with no valid checkpoint to
// apply them to: recovery refuses rather than report an empty directory.
TEST(RecoveryTest, NoValidCheckpointIsRefused) {
  DurableRun run = HospitalRun("recover_no_checkpoint");
  engine::MultiSubjectController live = MakeController();
  SetUpRun(run, &live);
  WriteRun(&live, kFourDeletes, run);
  const std::string genesis = run.dir + "/" + CheckpointFileName(1);
  FlipByte(genesis, 20);

  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(run.dir, &recovered);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kInternal);
  EXPECT_NE(state.status().message().find("no valid checkpoint"),
            std::string::npos)
      << state.status();

  // The damaged checkpoint alone is refused too: it is durable state.
  auto names = ListFiles(run.dir);
  ASSERT_TRUE(names.ok()) << names.status();
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq)) {
      std::filesystem::remove(run.dir + "/" + name);
    }
  }
  state = RecoverState(run.dir, &recovered);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kInternal);
  std::filesystem::remove_all(run.dir);
}

// A directory written before genesis moved into the epoch-1 checkpoint: a
// kind-1 genesis record and no checkpoint.  It is refused with the named
// error, not recovered as empty.
TEST(RecoveryTest, GenesisInstallRecordIsRefused) {
  std::string dir = FreshDir("recover_old_format");
  {
    WalOptions wopt;
    wopt.dir = dir;
    wopt.level = DurabilityLevel::kNone;
    auto wal = Wal::Open(wopt);
    ASSERT_TRUE(wal.ok()) << wal.status();
    std::string install = EpochRecord(1);
    install[0] = 1;  // the retired install kind
    ASSERT_TRUE((*wal)->Append(1, install).ok());
    ASSERT_TRUE((*wal)->Append(2, EpochRecord(2)).ok());
  }
  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(dir, &recovered);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kInternal);
  EXPECT_NE(state.status().message().find(
                "genesis install records were replaced by the epoch-1 "
                "checkpoint"),
            std::string::npos)
      << state.status();
  std::filesystem::remove_all(dir);
}

// ----- Crash-point fuzz harness ------------------------------------------

// Fixed crash points cover the interesting boundaries deterministically;
// the remaining seeds draw crash point, torn-tail length, segment size,
// and checkpoint cadence at random (testing/serve_fuzz.h).
TEST(RecoveryFuzzTest, CrashBeforeGenesisRecoversNothing) {
  // A kill while a fresh server writes its epoch-1 checkpoint leaves only
  // the checkpoint's temp file (the rename never happened) next to an
  // empty WAL segment: nothing durable, so the next start is fresh.
  std::string dir = FreshDir("recover_pre_genesis");
  {
    WalOptions wopt;
    wopt.dir = dir;
    wopt.level = DurabilityLevel::kNone;
    ASSERT_TRUE(Wal::Open(wopt).ok());
  }
  std::string partial = EncodeCheckpoint(SampleCheckpoint(1));
  partial.resize(partial.size() / 2);
  ASSERT_TRUE(
      WriteFile(dir + "/" + CheckpointFileName(1) + ".tmp", partial).ok());
  engine::MultiSubjectController recovered = MakeController();
  auto state = RecoverState(dir, &recovered);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_FALSE(state->found);
  EXPECT_EQ(state->checkpoints_skipped, 0u);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryFuzzTest, CrashRightAfterGenesis) {
  xmlac::testing::RecoveryFuzzOptions opt;
  opt.seed = 7;
  opt.crash_point = 0;  // the epoch-1 checkpoint, no batch record
  auto result = xmlac::testing::RunRecoveryFuzz(opt);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.durable_batches, 0u);
  EXPECT_EQ(result.replayed_batches, 0u);
}

TEST(RecoveryFuzzTest, RandomizedCrashPoints) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    xmlac::testing::RecoveryFuzzOptions opt;
    opt.seed = seed;
    auto result = xmlac::testing::RunRecoveryFuzz(opt);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.failure;
  }
}

}  // namespace
}  // namespace xmlac::storage
