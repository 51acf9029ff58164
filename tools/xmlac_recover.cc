// xmlac_recover — offline inspection and verification of durable data
// directories (docs/durability.md).
//
// Three modes over a --data-dir written by a durable serve::Server run
// (or xmlac_loadgen --data-dir):
//
//   xmlac_recover --inspect DIR
//       Print what the directory holds: newest checkpoint epoch, damaged
//       checkpoints skipped, WAL segment count, torn segments, record
//       counts and the committed epoch range — without materializing any
//       state.  Exits non-zero when recovery would refuse the directory.
//
//   xmlac_recover --verify DIR
//       Recover the directory through the production decision-replay path,
//       then independently re-annotate the recovered document from the
//       recovered policy texts (full static annotation, the expensive path
//       recovery exists to avoid) and require an identical document and
//       identical per-subject signs (engine::DiffFleetState).  This
//       cross-checks the WAL's recorded sign deltas against what policy
//       evaluation would decide from scratch.
//
//   xmlac_recover --replay DIR [--out-xml FILE]
//       Recover and report the re-materialized state (epoch, subjects,
//       document size); optionally serialize the recovered master
//       document to FILE.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/io.h"
#include "common/status.h"
#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "storage/recovery.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

using xmlac::Result;
using xmlac::Status;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --inspect|--verify|--replay DIR [--out-xml FILE]\n"
               "  --inspect DIR    summarize checkpoint + WAL contents\n"
               "  --verify DIR     recover, then cross-check decision replay\n"
               "                   against full policy re-annotation\n"
               "  --replay DIR     recover and report the materialized state\n"
               "  --out-xml FILE   (with --replay) write the recovered master\n",
               argv0);
  return 2;
}

xmlac::engine::MultiSubjectController MakeController() {
  return xmlac::engine::MultiSubjectController(
      [] { return std::make_unique<xmlac::engine::NativeXmlBackend>(); });
}

int Inspect(const std::string& dir) {
  Result<xmlac::storage::WalDirSummary> summary =
      xmlac::storage::InspectWalDir(dir);
  if (!summary.ok()) {
    std::fprintf(stderr, "inspect failed: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  const auto& s = *summary;
  std::printf("data dir        %s\n", dir.c_str());
  if (s.has_checkpoint) {
    std::printf("checkpoint      epoch %llu\n",
                static_cast<unsigned long long>(s.checkpoint_epoch));
  } else {
    std::printf("checkpoint      none\n");
  }
  std::printf("ckpts skipped   %zu\n", s.checkpoints_skipped);
  std::printf("wal segments    %zu (%zu torn)\n", s.segments, s.torn_segments);
  std::printf("wal records     %zu batch\n", s.batch_records);
  if (s.batch_records > 0) {
    std::printf("batch epochs    %llu..%llu\n",
                static_cast<unsigned long long>(s.first_batch_epoch),
                static_cast<unsigned long long>(s.last_batch_epoch));
  }
  std::printf("subjects        %zu", s.subjects.size());
  for (const std::string& name : s.subjects) std::printf(" %s", name.c_str());
  std::printf("\n");
  if (!s.refusal.empty()) {
    std::printf("REFUSED: %s\n", s.refusal.c_str());
    return 1;
  }
  return 0;
}

int Verify(const std::string& dir) {
  xmlac::engine::MultiSubjectController recovered = MakeController();
  Result<xmlac::storage::RecoveredState> state =
      xmlac::storage::RecoverState(dir, &recovered);
  if (!state.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 state.status().ToString().c_str());
    return 1;
  }
  if (!state->found) {
    std::printf("nothing durable in %s; nothing to verify\n", dir.c_str());
    return 0;
  }

  // Re-annotate the recovered document from scratch: full policy
  // evaluation over the post-replay tree must agree with the sign state
  // decision replay produced.
  xmlac::engine::MultiSubjectController reference = MakeController();
  Result<xmlac::xml::Dtd> dtd = xmlac::xml::ParseDtd(state->dtd_text);
  if (!dtd.ok()) {
    std::fprintf(stderr, "recovered DTD unparseable: %s\n",
                 dtd.status().ToString().c_str());
    return 1;
  }
  Status loaded = reference.LoadParsed(*dtd, recovered.document());
  if (!loaded.ok()) {
    std::fprintf(stderr, "reference load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  for (const auto& [name, policy_text] : state->subject_policies) {
    Status added = reference.AddSubject(name, policy_text);
    if (!added.ok()) {
      std::fprintf(stderr, "reference AddSubject(%s) failed: %s\n",
                   name.c_str(), added.ToString().c_str());
      return 1;
    }
  }
  const std::string diff =
      xmlac::engine::DiffFleetState(recovered, reference);
  if (!diff.empty()) {
    std::fprintf(stderr,
                 "MISMATCH: replayed state differs from full "
                 "re-annotation: %s\n",
                 diff.c_str());
  }
  std::printf("verify %s: epoch %llu, %zu batches replayed, %zu checkpoints "
              "skipped, %zu subjects, %s\n",
              dir.c_str(), static_cast<unsigned long long>(state->epoch),
              state->replayed_batches, state->checkpoints_skipped,
              state->subject_policies.size(),
              diff.empty() ? "no mismatch" : "MISMATCH");
  return diff.empty() ? 0 : 1;
}

int Replay(const std::string& dir, const std::string& out_xml) {
  xmlac::engine::MultiSubjectController recovered = MakeController();
  Result<xmlac::storage::RecoveredState> state =
      xmlac::storage::RecoverState(dir, &recovered);
  if (!state.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 state.status().ToString().c_str());
    return 1;
  }
  if (!state->found) {
    std::printf("nothing durable in %s\n", dir.c_str());
    return 0;
  }
  std::string xml = xmlac::xml::Serialize(recovered.document());
  std::printf("replay %s: epoch %llu, %zu batches replayed, %zu checkpoints "
              "skipped, %zu subjects, master %zu bytes\n",
              dir.c_str(), static_cast<unsigned long long>(state->epoch),
              state->replayed_batches, state->checkpoints_skipped,
              state->subject_policies.size(), xml.size());
  if (!out_xml.empty()) {
    Status written = xmlac::WriteFile(out_xml, xml);
    if (!written.ok()) {
      std::fprintf(stderr, "write failed: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("recovered master written to %s\n", out_xml.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::string dir;
  std::string out_xml;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--inspect" || arg == "--verify" || arg == "--replay") {
      mode = arg.substr(2);
      dir = next(arg.c_str());
    } else if (arg == "--out-xml") {
      out_xml = next(arg.c_str());
    } else {
      return Usage(argv[0]);
    }
  }
  if (mode.empty() || dir.empty()) return Usage(argv[0]);
  if (mode == "inspect") return Inspect(dir);
  if (mode == "verify") return Verify(dir);
  return Replay(dir, out_xml);
}
