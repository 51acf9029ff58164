// bench_recovery — crash-recovery cost (docs/durability.md).
//
// Two panels, reported as one JSON document (--json BENCH_recovery.json):
//
//   1. Recovery time vs document size: XMark at --factors (default
//      0.1,1.0) with three coverage subjects and a fixed short WAL tail.
//      Dominated by the checkpoint materialization (binary document
//      load + structural index rebuild + per-subject sign restore).
//
//   2. Recovery time vs WAL tail length: hospital workload, --tails
//      (default 1000,10000,100000) single-op batch records.  For each
//      tail the same updates are also applied through the normal
//      annotation path ("cold"), timing exactly what recovery's
//      decision replay avoids: trigger matching and rule evaluation.
//
// The acceptance gate (--min-speedup, default 1.0) requires decision
// replay of the LARGEST tail to be strictly faster than cold
// re-annotation of the same updates — the asymmetry that justifies
// logging decisions instead of re-running policy evaluation.
//
// Purpose-built binary (no google-benchmark): every measurement is a
// one-shot wall-clock section over a multi-second workload, not a
// microbenchmark.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/io.h"
#include "common/logging.h"
#include "common/timer.h"
#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "workload/coverage.h"
#include "workload/hospital.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "xml/dtd.h"
#include "xpath/ast.h"

namespace xmlac::bench {
namespace {

using engine::MultiSubjectController;

MultiSubjectController MakeController() {
  return MultiSubjectController(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
}

std::string FreshDir(const char* tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     (std::string("xmlac-bench-recovery-") + tag + "-" +
                      std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Writes the controller's current state as the epoch-1 (genesis)
// checkpoint, the base a durable server's recovery starts from.
void WriteGenesisCheckpoint(
    MultiSubjectController* controller, const xml::Dtd& dtd,
    const std::vector<std::pair<std::string, std::string>>& subject_policies,
    const std::string& dir) {
  storage::CheckpointData genesis;
  genesis.epoch = 1;
  genesis.rule_cache_epoch = controller->rule_cache().epoch();
  genesis.dtd_text = xml::DtdToString(dtd);
  controller->document().AppendBinary(&genesis.master_binary);
  for (const auto& [name, policy] : subject_policies) {
    engine::AccessController* ac = controller->subject(name);
    XMLAC_CHECK_MSG(ac != nullptr, "missing subject " + name);
    storage::SubjectState state;
    state.name = name;
    state.policy_text = policy;
    state.default_sign = ac->CurrentDefaultSign();
    state.marked = ac->ExportMarkedSigns();
    genesis.subjects.push_back(std::move(state));
  }
  Status written = storage::WriteCheckpoint(dir, genesis);
  XMLAC_CHECK_MSG(written.ok(), written.ToString());
}

// Applies `ops` one batch per op through full annotation while logging each
// commit, returning the time spent in ApplyBatch alone (the cold
// re-annotation cost; WAL encode/append time is excluded).
double ApplyAndLog(MultiSubjectController* controller,
                   const std::vector<engine::BatchOp>& ops,
                   storage::Wal* wal) {
  double cold_seconds = 0.0;
  uint64_t epoch = 1;
  for (const engine::BatchOp& op : ops) {
    std::vector<engine::BatchOp> batch{op};
    engine::CommitCapture capture;
    Timer apply;
    auto stats = controller->ApplyBatch(batch, &capture);
    cold_seconds += apply.ElapsedSeconds();
    XMLAC_CHECK_MSG(stats.ok(), stats.status().ToString());
    storage::BatchRecord record;
    record.epoch = ++epoch;
    record.ops = std::move(batch);
    record.master_mutations = std::move(capture.master_mutations);
    record.deltas = std::move(capture.subjects);
    Status appended =
        wal->Append(record.epoch, storage::EncodeBatchRecord(record));
    XMLAC_CHECK_MSG(appended.ok(), appended.ToString());
  }
  Status synced = wal->Sync();
  XMLAC_CHECK_MSG(synced.ok(), synced.ToString());
  return cold_seconds;
}

double RecoverAndCheck(const std::string& dir, uint64_t want_epoch,
                       size_t* replayed) {
  MultiSubjectController recovered = MakeController();
  Timer wall;
  auto state = storage::RecoverState(dir, &recovered);
  double seconds = wall.ElapsedSeconds();
  XMLAC_CHECK_MSG(state.ok(), state.status().ToString());
  XMLAC_CHECK_MSG(state->found, "nothing recovered from " + dir);
  XMLAC_CHECK_MSG(state->epoch == want_epoch,
                  "recovered epoch " + std::to_string(state->epoch) +
                      ", want " + std::to_string(want_epoch));
  if (replayed != nullptr) *replayed = state->replayed_batches;
  return seconds;
}

struct SizePoint {
  double factor = 0;
  size_t master_bytes = 0;
  size_t tail_records = 0;
  double recover_s = 0;
};

// Panel 1: XMark document at `factor`, three coverage subjects, fixed
// short tail of delete updates drawn from the query generator.
SizePoint RunSizePoint(double factor, size_t tail_records) {
  namespace wl = xmlac::workload;
  auto dtd = wl::XmarkGenerator::ParseXmarkDtd();
  XMLAC_CHECK_MSG(dtd.ok(), dtd.status().ToString());
  wl::XmarkOptions xopt;
  xopt.factor = factor;
  wl::XmarkGenerator gen;
  xml::Document doc = gen.Generate(xopt);

  MultiSubjectController controller = MakeController();
  Status loaded = controller.LoadParsed(*dtd, doc);
  XMLAC_CHECK_MSG(loaded.ok(), loaded.ToString());
  std::vector<std::pair<std::string, std::string>> subject_policies;
  for (double target : {0.3, 0.6, 0.9}) {
    wl::CoverageOptions copt;
    copt.target = target;
    copt.seed = 42 + static_cast<uint64_t>(target * 100);
    auto policy = wl::GenerateCoveragePolicy(doc, copt);
    XMLAC_CHECK_MSG(policy.ok(), policy.status().ToString());
    std::string name = "cov" + std::to_string(static_cast<int>(target * 100));
    Status added = controller.AddSubject(name, policy->ToString());
    XMLAC_CHECK_MSG(added.ok(), added.ToString());
    subject_policies.emplace_back(name, policy->ToString());
  }

  wl::QueryWorkloadOptions qopt;
  qopt.count = 16;
  std::vector<engine::BatchOp> ops;
  std::vector<xpath::Path> queries = wl::GenerateQueries(doc, qopt);
  for (size_t i = 0; i < tail_records; ++i) {
    ops.push_back(engine::BatchOp::Delete(
        xpath::ToString(queries[i % queries.size()])));
  }

  std::string dir = FreshDir("size");
  storage::WalOptions wopt;
  wopt.dir = dir;
  wopt.level = storage::DurabilityLevel::kNone;
  auto wal = storage::Wal::Open(wopt);
  XMLAC_CHECK_MSG(wal.ok(), wal.status().ToString());

  SizePoint point;
  point.factor = factor;
  point.tail_records = tail_records;
  std::string master_binary;
  controller.document().AppendBinary(&master_binary);
  point.master_bytes = master_binary.size();

  WriteGenesisCheckpoint(&controller, *dtd, subject_policies, dir);
  ApplyAndLog(&controller, ops, wal->get());
  wal->reset();  // close the segment before recovery reads the directory
  point.recover_s = RecoverAndCheck(dir, 1 + ops.size(), nullptr);
  std::filesystem::remove_all(dir);
  return point;
}

struct TailPoint {
  size_t tail_records = 0;
  double cold_apply_s = 0;
  double recover_s = 0;
  double speedup = 0;
};

// Panel 2: hospital document, `tail_records` single-op batches cycling
// delete-patient / re-insert-patient so the document stays the same size.
TailPoint RunTailPoint(size_t tail_records) {
  namespace wl = xmlac::workload;
  auto dtd = wl::HospitalGenerator::ParseHospitalDtd();
  XMLAC_CHECK_MSG(dtd.ok(), dtd.status().ToString());
  wl::HospitalOptions hopt;
  hopt.departments = 4;
  hopt.patients_per_department = 50;
  wl::HospitalGenerator gen;
  xml::Document doc = gen.Generate(hopt);

  MultiSubjectController controller = MakeController();
  Status loaded = controller.LoadParsed(*dtd, doc);
  XMLAC_CHECK_MSG(loaded.ok(), loaded.ToString());
  std::vector<std::pair<std::string, std::string>> subject_policies;
  for (size_t i = 0; i < wl::kHospitalSubjectCount; ++i) {
    Status added = controller.AddSubject(wl::kHospitalSubjects[i].subject,
                                         wl::kHospitalSubjects[i].policy_text);
    XMLAC_CHECK_MSG(added.ok(), added.ToString());
    subject_policies.emplace_back(wl::kHospitalSubjects[i].subject,
                                  wl::kHospitalSubjects[i].policy_text);
  }

  int total_patients = hopt.departments * hopt.patients_per_department;
  std::vector<engine::BatchOp> ops;
  ops.reserve(tail_records);
  for (size_t i = 0; i < tail_records; ++i) {
    char psn[16];
    std::snprintf(psn, sizeof(psn), "%03d",
                  static_cast<int>((i / 2) % total_patients));
    if (i % 2 == 0) {
      ops.push_back(engine::BatchOp::Delete(
          std::string("//patient[psn=\"") + psn + "\"]"));
    } else {
      ops.push_back(engine::BatchOp::Insert(
          "//patients", std::string("<patient><psn>") + psn +
                            "</psn><name>recovered</name></patient>"));
    }
  }

  std::string dir = FreshDir("tail");
  storage::WalOptions wopt;
  wopt.dir = dir;
  wopt.level = storage::DurabilityLevel::kNone;
  auto wal = storage::Wal::Open(wopt);
  XMLAC_CHECK_MSG(wal.ok(), wal.status().ToString());

  TailPoint point;
  point.tail_records = tail_records;
  WriteGenesisCheckpoint(&controller, *dtd, subject_policies, dir);
  point.cold_apply_s = ApplyAndLog(&controller, ops, wal->get());
  wal->reset();
  size_t replayed = 0;
  point.recover_s = RecoverAndCheck(dir, 1 + ops.size(), &replayed);
  XMLAC_CHECK_MSG(replayed == tail_records, "tail not fully replayed");
  point.speedup =
      point.recover_s > 0 ? point.cold_apply_s / point.recover_s : 0.0;
  std::filesystem::remove_all(dir);
  return point;
}

std::vector<double> ParseDoubles(const char* csv) {
  std::vector<double> out;
  std::string s(csv);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::strtod(s.substr(pos, comma - pos).c_str(), nullptr));
    pos = comma + 1;
  }
  return out;
}

int Run(const std::string& json_path, const std::vector<double>& factors,
        const std::vector<double>& tails, double min_speedup,
        size_t size_tail) {
  std::string json = "{\n  \"benchmark\": \"recovery\",\n";

  json += "  \"size_panel\": [\n";
  std::printf("%8s %14s %10s %12s\n", "factor", "master_bytes", "tail",
              "recover_s");
  for (size_t i = 0; i < factors.size(); ++i) {
    SizePoint p = RunSizePoint(factors[i], size_tail);
    std::printf("%8.2f %14zu %10zu %12.3f\n", p.factor, p.master_bytes,
                p.tail_records, p.recover_s);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"factor\": %.3f, \"master_bytes\": %zu, "
                  "\"tail_records\": %zu, \"recover_s\": %.4f}%s\n",
                  p.factor, p.master_bytes, p.tail_records, p.recover_s,
                  i + 1 < factors.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";

  json += "  \"tail_panel\": [\n";
  std::printf("%10s %14s %12s %9s\n", "tail", "cold_apply_s", "recover_s",
              "speedup");
  double largest_speedup = 0.0;
  size_t largest_tail = 0;
  for (size_t i = 0; i < tails.size(); ++i) {
    TailPoint p = RunTailPoint(static_cast<size_t>(tails[i]));
    std::printf("%10zu %14.3f %12.3f %8.2fx\n", p.tail_records,
                p.cold_apply_s, p.recover_s, p.speedup);
    if (p.tail_records >= largest_tail) {
      largest_tail = p.tail_records;
      largest_speedup = p.speedup;
    }
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"tail_records\": %zu, \"cold_apply_s\": %.4f, "
        "\"recover_s\": %.4f, \"speedup\": %.3f}%s\n",
        p.tail_records, p.cold_apply_s, p.recover_s, p.speedup,
        i + 1 < tails.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";

  bool pass = min_speedup <= 0.0 || largest_speedup > min_speedup;
  char tail_buf[192];
  std::snprintf(tail_buf, sizeof(tail_buf),
                "  \"gate_tail_records\": %zu,\n"
                "  \"gate_speedup\": %.3f,\n"
                "  \"min_speedup\": %.3f,\n"
                "  \"pass\": %s\n}\n",
                largest_tail, largest_speedup, min_speedup,
                pass ? "true" : "false");
  json += tail_buf;

  if (!json_path.empty()) {
    Status written = WriteFile(json_path, json);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
  }
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: decision replay of %zu records is only %.2fx cold "
                 "re-annotation (gate > %.2fx)\n",
                 largest_tail, largest_speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace xmlac::bench

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<double> factors{0.1, 1.0};
  std::vector<double> tails{1000, 10000, 100000};
  double min_speedup = 1.0;
  size_t size_tail = 256;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") json_path = next();
    else if (arg == "--factors") factors = xmlac::bench::ParseDoubles(next());
    else if (arg == "--tails") tails = xmlac::bench::ParseDoubles(next());
    else if (arg == "--min-speedup") min_speedup = std::strtod(next(), nullptr);
    else if (arg == "--size-tail") size_tail = std::strtoull(next(), nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: %s [--json FILE] [--factors CSV] [--tails CSV]\n"
                   "          [--min-speedup R] [--size-tail N]\n",
                   argv[0]);
      return 2;
    }
  }
  return xmlac::bench::Run(json_path, factors, tails, min_speedup, size_tail);
}
