#include "workloads.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/parallel.h"
#include "engine/access_controller.h"
#include "engine/multi_subject.h"
#include "engine/native_backend.h"
#include "engine/relational_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "storage/wal.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace perfbench {
namespace {

namespace engine = xmlac::engine;
namespace fs = std::filesystem;
namespace obs = xmlac::obs;
namespace serve = xmlac::serve;
namespace storage = xmlac::storage;
namespace xml = xmlac::xml;
using xmlac::Status;
using xmlac::StatusCode;
using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Per-layer metrics in BENCHMARK.json order.  A layer that a workload does
// not reach reports 0 (README.md lists which workload each one belongs to).
const std::vector<std::pair<std::string, std::string>>& LayerMetricTable() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"xpath.parse_us", "us"},
      {"xpath.stream_advances_per_read", "count"},
      {"xpath.index_publish_us", "us"},
      {"serve.query_snapshot_us", "us"},
      {"serve.snapshot_release_us", "us"},
      {"serve.snapshot_build_us", "us"},
      {"serve.snapshot_nodes_copied", "count"},
      {"serve.read_wait_us", "us"},
      {"serve.commit_wait_us", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.reads_denied_frac", "ratio"},
      {"engine.apply_batch_us", "us"},
      {"policy.trigger_us", "us"},
      {"engine.mutate_us", "us"},
      {"engine.scope_eval_us", "us"},
      {"engine.combine_us", "us"},
      {"engine.sign_write_us", "us"},
      {"engine.rule_cache_hit_frac", "ratio"},
      {"policy.rules_triggered_per_commit", "count"},
      {"engine.signs_written_per_commit", "count"},
      {"engine.load_s", "s"},
      {"policy.optimize_s", "s"},
      {"engine.annotate_s", "s"},
      {"serve.first_publish_s", "s"},
      {"storage.wal_append_us", "us"},
      {"storage.wal_sync_us", "us"},
      {"storage.wal_bytes_per_commit", "bytes"},
      {"shred.load_s", "s"},
      {"shred.xpath_to_sql_us", "us"},
      {"reldb.select_us", "us"},
      {"reldb.rows_scanned_per_read", "count"},
      {"engine.sign_check_us", "us"},
      {"reldb.rows_updated_per_commit", "count"},
      {"engine.reannotate_us", "us"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"loadgen.late_p99_us", "us"},
      {"read_p99_us", "us"},
      {"commit_p90_us", "us"},
      {"ops_failed_frac", "ratio"},
  };
  return kTable;
}

class Layers {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::vector<Metric> Metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : LayerMetricTable()) {
      auto it = values_.find(name);
      out.push_back(Metric{name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

double PerOp(double total, size_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

// The process's peak resident set (VmHWM).
double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

std::string FilesystemName(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

void Problem(RunResult* r, const std::string& msg) {
  r->correct = false;
  if (r->problems.size() < 20) r->problems.push_back(msg);
}

// Exact-rank percentile for a metric that must be reported: a missing one
// (too few samples) is a benchmark error, not a number.
double Required(const std::vector<double>& samples, double p,
                const std::string& what, RunResult* r) {
  std::optional<double> v = ExactPercentile(samples, p);
  if (!v.has_value()) {
    Problem(r, what + ": fewer than " + std::to_string(kMinBeyond) +
                   " samples beyond the percentile (" +
                   std::to_string(samples.size()) + " samples)");
    return 0.0;
  }
  return *v;
}

// Placeholder for a Result filled in by a timed call.
Status NotRun() { return Status::Internal("not run"); }

// Completed, non-failed reads per (subject, query) pair, counted from the
// timed loop's outcomes.
class PairCounts {
 public:
  PairCounts(size_t subjects, size_t queries)
      : queries_(queries), counts_(subjects * queries, 0) {}
  void Done(const ReadOp& op) { ++counts_[op.subject * queries_ + op.query]; }
  // Every pair must have completed equally often.
  void Check(RunResult* r) const {
    if (std::adjacent_find(counts_.begin(), counts_.end(),
                           std::not_equal_to<>()) != counts_.end()) {
      Problem(r, "(subject, query) pairs did not complete equally often");
    }
  }

 private:
  size_t queries_;
  std::vector<size_t> counts_;
};

void CheckNodeCount(size_t start, size_t end, RunResult* r) {
  const double drift = std::abs(static_cast<double>(end) -
                                static_cast<double>(start)) /
                       static_cast<double>(std::max<size_t>(start, 1));
  if (drift > 0.01) {
    Problem(r, "document size drifted from " + std::to_string(start) +
                   " to " + std::to_string(end) + " nodes");
  }
}

// The uncached, paper-faithful reference: naive XPath evaluator, no rule
// cache, no sharding.
std::unique_ptr<engine::AccessController> ReferenceController() {
  auto backend = std::make_unique<engine::NativeXmlBackend>();
  backend->set_use_structural_index(false);
  engine::ControllerOptions copt;
  copt.enable_rule_cache = false;
  copt.shard_parallel = false;
  copt.parallel_rules = 1;
  return std::make_unique<engine::AccessController>(std::move(backend), copt);
}

// Engine sub-layer times (us) summed over the spans the subject
// controllers' own tracers record.  A span is counted under its category
// only when no ancestor was already counted under the same category.
struct EngineSums {
  double trigger = 0;
  double mutate = 0;
  double scope = 0;
  double combine = 0;
  double sign = 0;
  double reannotate = 0;
  double sign_check = 0;  // reads: the all-or-nothing per-node sign lookups
};

enum Category { kNone, kTrigger, kMutate, kScope, kCombine, kSign, kSignCheck };

Category CategoryOf(const std::string& name) {
  static const std::map<std::string, Category> kMap = {
      {"batch_trigger", kTrigger},        {"trigger", kTrigger},
      {"batch_apply", kMutate},           {"delete", kMutate},
      {"insert_fragment", kMutate},       {"annotate.rule_scopes", kScope},
      {"triggered_scope", kScope},        {"annotate.evaluate_set", kScope},
      {"annotate.shard_combine", kCombine}, {"annotate.sign_diff", kSign},
      {"annotate.set_signs", kSign},      {"annotate.reset_signs", kSign},
      {"reldb.set_signs", kSign},         {"request.sign_check", kSignCheck},
  };
  auto it = kMap.find(name);
  return it == kMap.end() ? kNone : it->second;
}

void AccumulateEngine(const obs::TraceSpan& span, unsigned counted,
                      EngineSums* sums) {
  const double dur = static_cast<double>(std::max<int64_t>(span.duration_us, 0));
  if (span.name == "reannotate") {
    sums->reannotate += dur;
    double children = 0;
    for (const auto& c : span.children) {
      children += static_cast<double>(std::max<int64_t>(c->duration_us, 0));
    }
    // Fig. 5 combination and diff planning have no span of their own:
    // they are the re-annotation's self time.
    sums->combine += std::max(0.0, dur - children);
  }
  const Category cat = CategoryOf(span.name);
  if (cat != kNone && (counted & (1u << cat)) == 0) {
    switch (cat) {
      case kTrigger: sums->trigger += dur; break;
      case kMutate: sums->mutate += dur; break;
      case kScope: sums->scope += dur; break;
      case kCombine: sums->combine += dur; break;
      case kSign: sums->sign += dur; break;
      case kSignCheck: sums->sign_check += dur; break;
      case kNone: break;
    }
    counted |= 1u << cat;
  }
  for (const auto& c : span.children) AccumulateEngine(*c, counted, sums);
}

void HarvestTracer(obs::Tracer& tracer, EngineSums* sums) {
  for (const auto& top : tracer.root().children) {
    AccumulateEngine(*top, 0, sums);
  }
  tracer.Clear();
}

void SetEngineLayers(const EngineSums& e, size_t commits, Layers* layers) {
  layers->Set("policy.trigger_us", PerOp(e.trigger, commits));
  layers->Set("engine.mutate_us", PerOp(e.mutate, commits));
  layers->Set("engine.scope_eval_us", PerOp(e.scope, commits));
  layers->Set("engine.combine_us", PerOp(e.combine, commits));
  layers->Set("engine.sign_write_us", PerOp(e.sign, commits));
  layers->Set("engine.reannotate_us", PerOp(e.reannotate, commits));
}

uint64_t HistSum(obs::MetricsRegistry& m, const char* name) {
  return m.histogram(name)->sum();
}

// Open-loop due time of read i / commit j.
Clock::duration Offset(double index, double rate) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(index / rate));
}

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

// Server worker threads.  serve_commit's one read sender waits for each
// reply, so at most one read is ever in flight and a second worker would
// never run.  At 100 reads/s a read is in service for 11-16% of the timed
// phase (`read_in_flight_frac` in `meta`, 10 seeds on a 4-vCPU guest).
constexpr size_t kServerWorkers = 1;

// Serving with the WAL at fdatasync and no checkpoints.
serve::ServerOptions ServerOptionsFor(const std::string& wal_dir) {
  serve::ServerOptions o;
  o.workers = kServerWorkers;
  o.durability.data_dir = wal_dir;
  o.durability.level = storage::DurabilityLevel::kFdatasync;
  o.durability.checkpoint_every = 0;
  return o;
}

engine::MultiSubjectOptions FleetOptions(const serve::ServerOptions& o) {
  // The mapping serve::Server applies to its own controller.
  engine::MultiSubjectOptions m;
  m.optimize_policies = o.optimize_policies;
  m.enable_rule_cache = o.enable_rule_cache;
  m.parallel_subjects = o.parallel_subjects;
  m.shard_parallel = o.shard_parallel;
  m.shard_threads = o.shard_threads;
  return m;
}

struct ServeOutcome {
  double latency_us = 0;
  double service_us = 0;  // sent until answered
  double late_us = 0;
  bool ok = false;
  bool granted = false;
  size_t batch_size = 0;
  std::string error;
};

// One open-loop send: waits for `due`, runs `call` and times it.  Latency is
// the call's service time plus however long the sender's previous, still
// running request (done at `*prev_done`) held this one past its due time, so
// a stall counts against the requests queued behind it.  The sender's own
// wake-up lateness is not the server's; it is `late_us`.
ServeOutcome SendAt(Clock::time_point due, Clock::time_point* prev_done,
                    const std::function<serve::ServeResponse()>& call) {
  std::this_thread::sleep_until(due);
  const Clock::time_point sent = Clock::now();
  const serve::ServeResponse resp = call();
  const Clock::time_point done = Clock::now();
  ServeOutcome o;
  o.service_us = Micros(sent, done);
  o.latency_us = o.service_us + Micros(due, std::max(due, *prev_done));
  o.late_us = Micros(due, sent);
  o.ok = resp.status.ok();
  o.granted = resp.granted;
  o.batch_size = resp.batch_size;
  if (!o.ok) o.error = resp.status.ToString();
  *prev_done = done;
  return o;
}

serve::ServeResponse Submit(serve::Server& server, const engine::BatchOp& op) {
  return op.kind == engine::BatchOp::Kind::kDelete
             ? server.Update(op.xpath)
             : server.Insert(op.xpath, op.fragment_xml);
}

// Reads: one sender (this thread) in an open loop at read_rate.  Commits:
// one committer thread in an open loop at commit_rate.  Returns the wall
// time of the timed phase in seconds.
double RunServeTimed(const WorkloadSpec& spec, const Inputs& in,
                     serve::Server& server, const std::vector<ReadOp>& reads,
                     const std::vector<engine::BatchOp>& commits,
                     std::vector<ServeOutcome>* read_out,
                     std::vector<ServeOutcome>* commit_out) {
  read_out->assign(reads.size(), ServeOutcome());
  commit_out->assign(commits.size(), ServeOutcome());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::thread committer([&] {
    Clock::time_point prev_done = start;
    for (size_t j = 0; j < commits.size(); ++j) {
      (*commit_out)[j] = SendAt(
          start + Offset(static_cast<double>(j) + 0.5, spec.commit_rate),
          &prev_done, [&] { return Submit(server, commits[j]); });
    }
  });
  Clock::time_point prev_done = start;
  for (size_t i = 0; i < reads.size(); ++i) {
    const ReadOp& r = reads[i];
    (*read_out)[i] = SendAt(
        start + Offset(static_cast<double>(i), spec.read_rate), &prev_done,
        [&] {
          return server.Query(in.subject_names[r.subject], in.queries[r.query]);
        });
  }
  committer.join();
  return Seconds(start, Clock::now());
}

uint64_t SnapshotDigest(const serve::Snapshot& snap) {
  uint64_t h = Fnv1a("serve");
  for (const auto& [name, view] : snap.subjects) {
    h = Fnv1a(name, h);
    h = Fnv1a(std::string(1, view.default_sign), h);
    h = Fnv1a(xml::Serialize(*view.doc), h);
  }
  return h;
}

size_t SnapshotNodes(const serve::Snapshot& snap) {
  return snap.subjects.empty() ? 0
                               : snap.subjects.begin()->second.doc->alive_count();
}

// The document every run must end with: the base document plus the
// fragments still inside the live window after `commits` commits, in
// insertion order.
std::string FinalXml(const Inputs& in, size_t commits) {
  const size_t deleted = commits / 2;
  std::string live;
  for (size_t k = deleted; k < deleted + in.fragment_window; ++k) {
    live += in.fragments.at(k);
  }
  std::string xml_text = in.base_xml_text;
  xml_text.insert(xml_text.find("</people>"), live);
  return xml_text;
}

// Each subject's final annotated document must equal a from-scratch
// annotation of the expected final document through the reference path,
// and every (subject, query) answer at the final epoch must match the
// reference's.
void GateServe(const Inputs& in, size_t commits, serve::Server& server,
               const serve::Snapshot& snap, RunResult* r) {
  const std::string final_xml = FinalXml(in, commits);
  for (size_t s = 0; s < in.subject_names.size(); ++s) {
    const std::string& name = in.subject_names[s];
    auto it = snap.subjects.find(name);
    if (it == snap.subjects.end()) {
      Problem(r, "gate: subject " + name + " missing from final snapshot");
      continue;
    }
    const serve::SubjectView& view = it->second;
    auto ref = ReferenceController();
    Status st = ref->Load(in.dtd_text, final_xml);
    if (st.ok()) st = ref->SetPolicy(in.policy_texts[s]);
    if (!st.ok()) {
      Problem(r, "gate: reference setup for " + name + ": " + st.ToString());
      continue;
    }
    auto* native = dynamic_cast<engine::NativeXmlBackend*>(ref->backend());
    if (native->default_sign() != view.default_sign ||
        xml::Serialize(native->document()) != xml::Serialize(*view.doc)) {
      Problem(r, "gate: subject " + name +
                     " document or annotations differ from a from-scratch "
                     "annotation of the expected document");
    }
    for (const std::string& q : in.queries) {
      serve::ServeResponse got = server.Query(name, q);
      auto want = ref->Query(q);
      if (!want.ok() && want.status().code() != StatusCode::kAccessDenied) {
        Problem(r, "gate: reference query " + q + ": " +
                       want.status().ToString());
        continue;
      }
      if (!got.status.ok() || got.granted != want.ok() ||
          (want.ok() && got.selected != want->selected)) {
        Problem(r, "gate: subject " + name + " query " + q +
                       " answer differs from the reference");
      }
    }
  }
}

struct ReplayResult {
  std::vector<double> read_us;
  std::vector<double> commit_us;
  double wall_s = 0;
  uint64_t digest = 0;
  std::string error;
};

// Serial replay of the serve op sequence through the calls the server
// makes, in the server's order.  With `log` enabled, every call is a span
// and the per-layer figures land in `layers`.
ReplayResult ReplayServe(const WorkloadSpec& spec, const Inputs& in,
                         const std::vector<ReadOp>& reads,
                         const std::vector<engine::BatchOp>& commits,
                         const std::string& wal_dir, SpanLog* log,
                         Layers* layers) {
  ReplayResult out;
  const bool traced = log->enabled();
  const serve::ServerOptions sopt = ServerOptionsFor(wal_dir);
  obs::MetricsRegistry registry;  // master-store and read-path metrics
  obs::ScopedMetrics metrics_context(&registry);
  engine::MultiSubjectController ctl(
      [] { return std::make_unique<engine::NativeXmlBackend>(); },
      FleetOptions(sopt));
  auto t0 = Clock::now();
  Status st = ctl.Load(in.dtd_text, in.xml_text);
  auto t1 = Clock::now();
  for (size_t s = 0; st.ok() && s < in.subject_names.size(); ++s) {
    st = ctl.AddSubject(in.subject_names[s], in.policy_texts[s]);
  }
  auto t2 = Clock::now();
  auto initial = serve::BuildSnapshot(ctl, 1);
  auto t3 = Clock::now();
  if (!st.ok() || !initial.ok()) {
    out.error = "replay setup: " +
                (st.ok() ? initial.status().ToString() : st.ToString());
    return out;
  }
  serve::SnapshotPtr current = std::move(*initial);
  std::vector<engine::AccessController*> subjects;
  for (const std::string& name : in.subject_names) {
    subjects.push_back(ctl.subject(name));
  }
  if (traced) {
    double load_us = 0, policy_us = 0, annotate_us = 0;
    for (engine::AccessController* ac : subjects) {
      load_us += static_cast<double>(HistSum(ac->metrics(), "engine.load_us"));
      policy_us +=
          static_cast<double>(HistSum(ac->metrics(), "engine.set_policy_us"));
      annotate_us += static_cast<double>(
          HistSum(ac->metrics(), "annotate.full.elapsed_us"));
    }
    layers->Set("engine.load_s", Seconds(t0, t1) + load_us / 1e6);
    layers->Set("engine.annotate_s", annotate_us / 1e6);
    layers->Set("policy.optimize_s", (policy_us - annotate_us) / 1e6);
    layers->Set("serve.first_publish_s", Seconds(t2, t3));
  }
  for (engine::AccessController* ac : subjects) {
    ac->ResetMetrics();
    ac->EnableTracing(traced);
    ac->tracer().Clear();
  }
  registry.Reset();

  fs::remove_all(wal_dir);
  storage::WalOptions wopt;
  wopt.dir = wal_dir;
  wopt.level = sopt.durability.level;
  wopt.segment_bytes = sopt.durability.segment_bytes;
  auto opened = storage::Wal::Open(std::move(wopt));
  if (!opened.ok()) {
    out.error = "replay WAL: " + opened.status().ToString();
    return out;
  }
  std::unique_ptr<storage::Wal> wal = std::move(*opened);

  // Merge reads and commits by due time.
  std::vector<std::pair<double, int64_t>> order;  // (due, read i or ~commit j)
  for (size_t i = 0; i < reads.size(); ++i) {
    order.emplace_back(static_cast<double>(i) / spec.read_rate,
                       static_cast<int64_t>(i));
  }
  for (size_t j = 0; j < commits.size(); ++j) {
    order.emplace_back((static_cast<double>(j) + 0.5) / spec.commit_rate,
                       ~static_cast<int64_t>(j));
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  obs::Counter* advances = registry.counter("xpath.structural.stream_advances");
  const auto cache0 = ctl.rule_cache().GetStats();
  EngineSums engine_sums;
  double parse_us = 0, query_us = 0, release_us = 0, build_us = 0;
  double apply_us = 0, append_us = 0, sync_us = 0;
  double nodes_copied = 0, wal_bytes = 0, rules_triggered = 0, signs = 0;
  uint64_t advance_total = 0;
  uint64_t epoch = 1;
  uint64_t op_id = 0;
  auto timed_call = [&](const char* name, int parent, double* acc,
                        const std::function<void()>& fn) {
    const int span = log->Begin(name, parent, op_id);
    const int64_t b = NowNs();
    fn();
    const int64_t e = NowNs();
    log->End(span);
    if (acc != nullptr) *acc += static_cast<double>(e - b) / 1e3;
  };
  const auto wall0 = Clock::now();
  for (const auto& [due, which] : order) {
    (void)due;
    ++op_id;
    const int64_t op_b = NowNs();
    if (which >= 0) {
      const ReadOp& r = reads[static_cast<size_t>(which)];
      const int op = log->Begin("read", -1, op_id);
      xmlac::Result<xmlac::xpath::Path> path = NotRun();
      timed_call("xpath.parse", op, &parse_us,
                 [&] { path = xmlac::xpath::ParsePath(in.queries[r.query]); });
      serve::SnapshotPtr snap;
      timed_call("serve.snapshot_acquire", op, nullptr, [&] { snap = current; });
      const uint64_t a0 = advances->value();
      xmlac::Result<engine::RequestOutcome> outcome = NotRun();
      timed_call("serve.query_snapshot", op, &query_us, [&] {
        outcome = serve::QuerySnapshot(*snap, in.subject_names[r.subject], *path);
      });
      advance_total += advances->value() - a0;
      timed_call("serve.snapshot_unpin", op, nullptr, [&] { snap.reset(); });
      log->End(op);
      if (!path.ok() || !outcome.ok()) {
        out.error = "replay read failed";
        return out;
      }
      out.read_us.push_back(static_cast<double>(NowNs() - op_b) / 1e3);
      continue;
    }
    const engine::BatchOp& c = commits[static_cast<size_t>(~which)];
    const int op = log->Begin("commit", -1, op_id);
    std::vector<engine::BatchOp> ops = {c};
    engine::CommitCapture capture;
    xmlac::Result<std::map<std::string, engine::BatchStats>> stats =
        NotRun();
    timed_call("engine.apply_batch", op, &apply_us, [&] {
      stats = ctl.ApplyBatch(ops, &capture);
    });
    if (!stats.ok()) {
      out.error = "replay commit: " + stats.status().ToString();
      return out;
    }
    for (const auto& [name, bs] : *stats) {
      rules_triggered += static_cast<double>(bs.rules_triggered);
      signs += static_cast<double>(bs.reannotation.marked + bs.reannotation.reset);
    }
    ++epoch;
    std::string payload;
    timed_call("storage.encode", op, nullptr, [&] {
      storage::BatchRecord record;
      record.epoch = epoch;
      record.ops = ops;
      record.master_mutations = std::move(capture.master_mutations);
      record.deltas = std::move(capture.subjects);
      payload = storage::EncodeBatchRecord(record);
    });
    wal_bytes += static_cast<double>(payload.size());
    Status appended, synced;
    timed_call("storage.wal_append", op, &append_us,
               [&] { appended = wal->Append(epoch, payload); });
    timed_call("storage.wal_sync", op, &sync_us, [&] { synced = wal->Sync(); });
    if (!appended.ok() || !synced.ok()) {
      out.error = "replay WAL write failed";
      return out;
    }
    xmlac::Result<serve::SnapshotPtr> next = NotRun();
    timed_call("serve.snapshot_build", op, &build_us,
               [&] { next = serve::BuildSnapshot(ctl, epoch); });
    if (!next.ok()) {
      out.error = "replay snapshot: " + next.status().ToString();
      return out;
    }
    for (const auto& [name, view] : (*next)->subjects) {
      nodes_copied += static_cast<double>(view.doc->size());
    }
    serve::SnapshotPtr superseded;
    timed_call("serve.publish", op, nullptr, [&] {
      superseded = std::move(current);
      current = std::move(*next);
    });
    timed_call("serve.snapshot_release", op, &release_us,
               [&] { superseded.reset(); });
    log->End(op);
    out.commit_us.push_back(static_cast<double>(NowNs() - op_b) / 1e3);
    if (traced) {
      for (engine::AccessController* ac : subjects) {
        HarvestTracer(ac->tracer(), &engine_sums);
      }
    }
  }
  out.wall_s = Seconds(wall0, Clock::now());
  out.digest = SnapshotDigest(*current);
  if (!traced) return out;

  const size_t nc = commits.size();
  const size_t nr = reads.size();
  layers->Set("xpath.parse_us", PerOp(parse_us, nr));
  layers->Set("xpath.stream_advances_per_read",
              PerOp(static_cast<double>(advance_total), nr));
  double publish_us = static_cast<double>(
      HistSum(registry, "xpath.structural.version_publish_us"));
  for (engine::AccessController* ac : subjects) {
    publish_us += static_cast<double>(
        HistSum(ac->metrics(), "xpath.structural.version_publish_us"));
  }
  layers->Set("xpath.index_publish_us", PerOp(publish_us, nc));
  layers->Set("serve.query_snapshot_us", PerOp(query_us, nr));
  layers->Set("serve.snapshot_release_us", PerOp(release_us, nc));
  layers->Set("serve.snapshot_build_us", PerOp(build_us, nc));
  layers->Set("serve.snapshot_nodes_copied", PerOp(nodes_copied, nc));
  layers->Set("engine.apply_batch_us", PerOp(apply_us, nc));
  SetEngineLayers(engine_sums, nc, layers);
  const auto cache1 = ctl.rule_cache().GetStats();
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  layers->Set("engine.rule_cache_hit_frac",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
  layers->Set("policy.rules_triggered_per_commit", PerOp(rules_triggered, nc));
  layers->Set("engine.signs_written_per_commit", PerOp(signs, nc));
  layers->Set("storage.wal_append_us", PerOp(append_us, nc));
  layers->Set("storage.wal_sync_us", PerOp(sync_us, nc));
  layers->Set("storage.wal_bytes_per_commit", PerOp(wal_bytes, nc));
  return out;
}

// ---------------------------------------------------------------------------
// paper_relational
// ---------------------------------------------------------------------------

std::unique_ptr<engine::AccessController> RelationalController() {
  engine::RelationalOptions ropt;
  ropt.storage = xmlac::reldb::StorageKind::kRowStore;
  ropt.load_via_sql = true;
  return std::make_unique<engine::AccessController>(
      std::make_unique<engine::RelationalBackend>(ropt),
      engine::ControllerOptions());
}

uint64_t RelationalDigest(engine::AccessController& ac) {
  std::string state(1, ac.CurrentDefaultSign());
  state += ":" + std::to_string(ac.backend()->NodeCount()) + ":";
  for (engine::UniversalId id : ac.ExportMarkedSigns()) {
    state += std::to_string(id) + ",";
  }
  return Fnv1a(state, Fnv1a("relational"));
}

struct RelOutcome {
  double latency_us = 0;
  bool ok = false;
  bool granted = false;
  std::string error;
};

RelOutcome RelRead(engine::AccessController& ac, const std::string& q) {
  RelOutcome o;
  const auto b = Clock::now();
  auto res = ac.Query(q);
  o.latency_us = Micros(b, Clock::now());
  // A denial comes back as an AccessDenied status: an answer, not a failure.
  o.ok = res.ok() || res.status().code() == StatusCode::kAccessDenied;
  o.granted = res.ok();
  if (!o.ok) o.error = res.status().ToString();
  return o;
}

RelOutcome RelCommit(engine::AccessController& ac, const engine::BatchOp& op) {
  RelOutcome o;
  const auto b = Clock::now();
  Status st = op.kind == engine::BatchOp::Kind::kDelete
                  ? ac.Update(op.xpath).status()
                  : ac.Insert(op.xpath, op.fragment_xml).status();
  o.latency_us = Micros(b, Clock::now());
  o.ok = st.ok();
  if (!o.ok) o.error = st.ToString();
  return o;
}

// The closed loop: `reads_per_commit` reads, then one commit, repeated.
// `on_read` / `on_commit` run each op and report its outcome.
void RelationalLoop(const WorkloadSpec& spec, size_t reads, size_t commits,
                    const std::function<void(size_t)>& on_read,
                    const std::function<void(size_t)>& on_commit) {
  size_t ri = 0;
  for (size_t c = 0; c < commits; ++c) {
    for (size_t k = 0; k < spec.reads_per_commit && ri < reads; ++k) {
      on_read(ri++);
    }
    on_commit(c);
  }
  while (ri < reads) on_read(ri++);
}

// The live tuples whose stored sign is the non-default one.  The sign
// bitmap may keep bits of deleted tuples (node_bitmap.h), so membership is
// confirmed against the store itself.
std::vector<engine::UniversalId> StoredMarks(engine::AccessController& ac,
                                             RunResult* r) {
  std::vector<engine::UniversalId> out;
  const char def = ac.CurrentDefaultSign();
  for (engine::UniversalId id : ac.ExportMarkedSigns()) {
    auto sign = ac.backend()->GetSign(id);
    if (!sign.ok()) continue;  // deleted tuple
    if (*sign == def) {
      Problem(r, "gate: tuple " + std::to_string(id) +
                     " is marked in the sign state but not in the store");
    }
    out.push_back(id);
  }
  return out;
}

void GateRelational(const Inputs& in, engine::AccessController& ac,
                    size_t commits, RunResult* r) {
  const std::vector<engine::UniversalId> before = StoredMarks(ac, r);
  const char before_sign = ac.CurrentDefaultSign();
  auto full = ac.ReannotateFull();
  if (!full.ok()) {
    Problem(r, "gate: ReannotateFull: " + full.status().ToString());
    return;
  }
  const std::vector<engine::UniversalId> after = StoredMarks(ac, r);
  if (after != before || ac.CurrentDefaultSign() != before_sign) {
    Problem(r, "gate: incremental signs differ from a full re-annotation (" +
                   std::to_string(before.size()) + " vs " +
                   std::to_string(after.size()) + " marked)");
  }
  // Answers must match the native reference over the same final document.
  auto ref = ReferenceController();
  Status st = ref->Load(in.dtd_text, FinalXml(in, commits));
  if (st.ok()) st = ref->SetPolicy(in.policy_texts[0]);
  if (!st.ok()) {
    Problem(r, "gate: reference setup: " + st.ToString());
    return;
  }
  for (const std::string& q : in.queries) {
    auto got = ac.Query(q);
    auto want = ref->Query(q);
    const bool got_answer =
        got.ok() || got.status().code() == StatusCode::kAccessDenied;
    const bool want_answer =
        want.ok() || want.status().code() == StatusCode::kAccessDenied;
    if (!got_answer || !want_answer || got.ok() != want.ok() ||
        (got.ok() && got->selected != want->selected)) {
      Problem(r, "gate: query " + q + " answer differs from the reference");
    }
  }
}

// Re-records one controller op's spans in `log` as children of `op_span`:
// the children of its top-level span ("query", "update", "insert"), with
// "request" opened up into its own children, at their recorded times.  The
// tracer records microseconds since its last Clear(), taken at `base_ns`.
// Returns the start of the "request" span, or -1 when there is none.
int64_t ImportControllerSpans(const obs::Tracer& tracer, int64_t base_ns,
                              int op_span, uint64_t op_id, SpanLog* log) {
  int64_t request_ns = -1;
  auto add = [&](const obs::TraceSpan& s) {
    const int64_t b = base_ns + s.start_us * 1000;
    log->Add(s.name, op_span, op_id, b,
             b + std::max<int64_t>(s.duration_us, 0) * 1000);
  };
  for (const auto& top : tracer.root().children) {
    for (const auto& child : top->children) {
      if (child->name != "request") {
        add(*child);
        continue;
      }
      request_ns = base_ns + child->start_us * 1000;
      for (const auto& c : child->children) add(*c);
    }
  }
  return request_ns;
}

ReplayResult ReplayRelational(const WorkloadSpec& spec, const Inputs& in,
                              const std::vector<ReadOp>& reads,
                              const std::vector<engine::BatchOp>& commits,
                              SpanLog* log, Layers* layers) {
  ReplayResult out;
  const bool traced = log->enabled();
  auto ac = RelationalController();
  ac->EnableTracing(traced);
  Status st = ac->Load(in.dtd_text, in.xml_text);
  if (st.ok()) st = ac->SetPolicy(in.policy_texts[0]);
  if (!st.ok()) {
    out.error = "replay setup: " + st.ToString();
    return out;
  }
  if (traced) {
    double load_us = 0, optimize_us = 0, annotate_us = 0;
    std::function<void(const obs::TraceSpan&)> walk =
        [&](const obs::TraceSpan& s) {
          const double d = static_cast<double>(s.duration_us);
          if (s.name == "load") load_us += d;
          if (s.name == "optimize") optimize_us += d;
          if (s.name == "annotate.full") annotate_us += d;
          for (const auto& c : s.children) walk(*c);
        };
    walk(ac->tracer().root());
    layers->Set("engine.load_s", load_us / 1e6);
    layers->Set("shred.load_s", load_us / 1e6);
    layers->Set("policy.optimize_s", optimize_us / 1e6);
    layers->Set("engine.annotate_s", annotate_us / 1e6);
  }
  ac->tracer().Clear();
  int64_t tracer_base_ns = NowNs();
  ac->ResetMetrics();
  obs::MetricsRegistry& m = ac->metrics();
  obs::Counter* scanned = m.counter("reldb.rows_scanned");
  obs::Counter* updated = m.counter("reldb.rows_updated");
  obs::Histogram* to_sql = m.histogram("shred.xpath_to_sql_us");
  obs::Histogram* select = m.histogram("reldb.select_us");
  double read_scanned = 0, read_to_sql = 0, read_select = 0, commit_updated = 0;
  double commit_us_total = 0;
  EngineSums engine_sums;
  EngineSums read_sums;
  uint64_t op_id = 0;
  const auto wall0 = Clock::now();
  RelationalLoop(
      spec, reads.size(), commits.size(),
      [&](size_t i) {
        const uint64_t s0 = scanned->value(), t0 = to_sql->sum(),
                       q0 = select->sum();
        const int op = log->Begin("read", -1, ++op_id);
        RelOutcome o = RelRead(*ac, in.queries[reads[i].query]);
        log->End(op);
        const uint64_t sql_us = to_sql->sum() - t0;
        const uint64_t select_us = select->sum() - q0;
        read_scanned += static_cast<double>(scanned->value() - s0);
        read_to_sql += static_cast<double>(sql_us);
        read_select += static_cast<double>(select_us);
        if (!o.ok && out.error.empty()) out.error = "replay read: " + o.error;
        out.read_us.push_back(o.latency_us);
        if (!traced) return;
        const int64_t request_ns = ImportControllerSpans(
            ac->tracer(), tracer_base_ns, op, op_id, log);
        if (request_ns >= 0) {
          // XPath-to-SQL and the SELECT have timers but no spans.  Both run
          // at the start of "request" (EvaluateQuery, before the sign
          // check), so they are placed there with their measured lengths.
          const int64_t sql_end = request_ns + static_cast<int64_t>(sql_us) * 1000;
          log->Add("shred.xpath_to_sql", op, op_id, request_ns, sql_end);
          log->Add("reldb.select", op, op_id, sql_end,
                   sql_end + static_cast<int64_t>(select_us) * 1000);
        }
        HarvestTracer(ac->tracer(), &read_sums);
        tracer_base_ns = NowNs();
      },
      [&](size_t j) {
        const uint64_t u0 = updated->value();
        const int op = log->Begin("commit", -1, ++op_id);
        RelOutcome o = RelCommit(*ac, commits[j]);
        log->End(op);
        commit_updated += static_cast<double>(updated->value() - u0);
        commit_us_total += o.latency_us;
        if (!o.ok && out.error.empty()) out.error = "replay commit: " + o.error;
        out.commit_us.push_back(o.latency_us);
        if (!traced) return;
        ImportControllerSpans(ac->tracer(), tracer_base_ns, op, op_id, log);
        HarvestTracer(ac->tracer(), &engine_sums);
        tracer_base_ns = NowNs();
      });
  out.wall_s = Seconds(wall0, Clock::now());
  out.digest = RelationalDigest(*ac);
  if (!traced) return out;
  const size_t nr = reads.size();
  const size_t nc = commits.size();
  layers->Set("shred.xpath_to_sql_us", PerOp(read_to_sql, nr));
  layers->Set("reldb.select_us", PerOp(read_select, nr));
  layers->Set("reldb.rows_scanned_per_read", PerOp(read_scanned, nr));
  layers->Set("engine.sign_check_us", PerOp(read_sums.sign_check, nr));
  layers->Set("reldb.rows_updated_per_commit", PerOp(commit_updated, nc));
  layers->Set("engine.apply_batch_us", PerOp(commit_us_total, nc));
  SetEngineLayers(engine_sums, nc, layers);
  if (const auto* cache = ac->rule_cache()) {
    const auto st2 = cache->GetStats();
    const double total = static_cast<double>(st2.hits + st2.misses);
    layers->Set("engine.rule_cache_hit_frac",
                total > 0 ? static_cast<double>(st2.hits) / total : 0.0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared run logic
// ---------------------------------------------------------------------------

struct Timed {
  std::vector<double> read_us;
  std::vector<double> commit_us;
  std::vector<double> late_us;  // open-loop sends only
  uint64_t denied = 0;
  double batch_size_sum = 0;
};

void SetEndToEnd(double setup_s, const Timed& t, double peak_mb,
                 RunResult* r) {
  r->metrics.push_back(Metric{"setup_s", setup_s, "s"});
  r->metrics.push_back(
      Metric{"read_p50_us", Required(t.read_us, 0.5, "read_p50_us", r), "us"});
  r->metrics.push_back(Metric{
      "commit_p50_us", Required(t.commit_us, 0.5, "commit_p50_us", r), "us"});
  r->metrics.push_back(Metric{"peak_rss_mb", peak_mb, "MB"});
}

// Layer figures that come from the timed run rather than the replay.
void SetTimedLayers(const Timed& t, const ReplayResult& untraced,
                    const RunResult& r, bool serve_layers, Layers* layers) {
  const double reads = static_cast<double>(t.read_us.size());
  layers->Set("serve.reads_denied_frac",
              reads > 0 ? static_cast<double>(t.denied) / reads : 0.0);
  layers->Set("ops_failed_frac",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0);
  layers->Set("read_p99_us", ExactPercentile(t.read_us, 0.99).value_or(0.0));
  layers->Set("commit_p90_us",
              ExactPercentile(t.commit_us, 0.9).value_or(0.0));
  layers->Set("loadgen.late_p99_us",
              ExactPercentile(t.late_us, 0.99).value_or(0.0));
  if (serve_layers) {
    layers->Set("serve.batch_size_mean",
                PerOp(t.batch_size_sum, t.commit_us.size()));
    layers->Set("serve.read_wait_us",
                Median(t.read_us) - Median(untraced.read_us));
    layers->Set("serve.commit_wait_us",
                Median(t.commit_us) - Median(untraced.commit_us));
  }
}

std::string SpansPath(const WorkloadSpec& spec, const RunOptions& opt) {
  return opt.work_dir + "/spans-" + spec.name + "-" +
         std::to_string(opt.seed) + ".json";
}

// Replays twice (spans off, then on): overhead, attribution, digest check.
// The traced replay's spans are written to `spans_path` at the end.
void FinishTrace(const Timed& t, uint64_t timed_digest, bool serve_layers,
                 const std::function<ReplayResult(SpanLog*, Layers*)>& replay,
                 const std::string& spans_path, RunResult* r) {
  Layers layers;
  SpanLog off(false);
  ReplayResult plain = replay(&off, &layers);
  SpanLog on(true);
  ReplayResult traced = replay(&on, &layers);
  std::ofstream spans_file(spans_path);
  spans_file << SpansToChromeJson(on.spans());
  if (!spans_file.good()) Problem(r, "cannot write " + spans_path);
  r->meta.emplace_back("spans_file", spans_path);
  for (const ReplayResult* rr : {&plain, &traced}) {
    if (!rr->error.empty()) Problem(r, rr->error);
    if (rr->error.empty() && rr->digest != timed_digest) {
      Problem(r, "replay final digest differs from the timed run's");
    }
  }
  layers.Set("trace.overhead_frac",
             plain.wall_s > 0 ? traced.wall_s / plain.wall_s - 1.0 : 0.0);
  double worst = 0;
  for (const auto& [op, share] : UnattributedShare(on.spans())) {
    r->meta.emplace_back("unattributed." + op, std::to_string(share));
    worst = std::max(worst, share);
    if (share > 0.10) {
      Problem(r, "child spans cover less than 90% of op type " + op);
    }
  }
  layers.Set("trace.unattributed_frac", worst);
  SetTimedLayers(t, plain, *r, serve_layers, &layers);
  r->metrics = layers.Metrics();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void RunServe(const WorkloadSpec& spec, const RunOptions& opt,
              const Inputs& in, const std::vector<ReadOp>& reads,
              const std::vector<engine::BatchOp>& commits, RunResult* r) {
  const std::string wal_base =
      opt.work_dir + "/wal-" + std::to_string(::getpid());
  std::vector<double> setups;
  std::unique_ptr<serve::Server> server;
  std::string wal_dir;
  for (size_t rep = 0; rep < spec.setup_repeats; ++rep) {
    server.reset();
    if (!wal_dir.empty()) fs::remove_all(wal_dir);
    wal_dir = wal_base + "-" + std::to_string(rep);
    fs::remove_all(wal_dir);
    const auto b = Clock::now();
    server = std::make_unique<serve::Server>(ServerOptionsFor(wal_dir));
    Status st = server->Load(in.dtd_text, in.xml_text);
    for (size_t s = 0; st.ok() && s < in.subject_names.size(); ++s) {
      st = server->AddSubject(in.subject_names[s], in.policy_texts[s]);
    }
    if (st.ok()) st = server->Start();
    setups.push_back(Seconds(b, Clock::now()));
    if (!st.ok()) {
      Problem(r, "setup: " + st.ToString());
      fs::remove_all(wal_dir);
      return;
    }
  }
  r->meta.emplace_back("wal_level", "fdatasync");
  r->meta.emplace_back("wal_fs", FilesystemName(opt.work_dir));
  const size_t start_nodes = SnapshotNodes(*server->CurrentSnapshot());

  std::vector<ServeOutcome> read_out, commit_out;
  const double timed_s =
      RunServeTimed(spec, in, *server, reads, commits, &read_out, &commit_out);
  const double peak_mb = PeakRssMb();
  r->meta.emplace_back("timed_phase_s", std::to_string(timed_s));

  Timed t;
  PairCounts pairs(in.subject_names.size(), in.queries.size());
  double in_service_us = 0;
  for (size_t i = 0; i < read_out.size(); ++i) {
    const ServeOutcome& o = read_out[i];
    ++r->attempted;
    t.read_us.push_back(o.latency_us);
    t.late_us.push_back(o.late_us);
    in_service_us += o.service_us;
    if (!o.ok) {
      ++r->failed;
      Problem(r, "read failed: " + o.error);
      continue;
    }
    pairs.Done(reads[i]);
    if (!o.granted) ++t.denied;
  }
  r->meta.emplace_back("read_in_flight_frac",
                       std::to_string(in_service_us / (timed_s * 1e6)));
  for (const ServeOutcome& o : commit_out) {
    ++r->attempted;
    t.commit_us.push_back(o.latency_us);
    t.late_us.push_back(o.late_us);
    t.batch_size_sum += static_cast<double>(o.batch_size);
    if (!o.ok) {
      ++r->failed;
      Problem(r, "commit failed: " + o.error);
    } else if (o.batch_size != 1) {
      // One committer that waits for each reply: batches must hold one op.
      Problem(r, "a commit was coalesced into a batch of " +
                     std::to_string(o.batch_size) + " ops");
    }
  }
  serve::SnapshotPtr final_snap = server->CurrentSnapshot();
  const uint64_t digest = SnapshotDigest(*final_snap);
  r->meta.emplace_back("final_digest", Hex(digest));
  CheckNodeCount(start_nodes, SnapshotNodes(*final_snap), r);
  pairs.Check(r);
  GateServe(in, commits.size(), *server, *final_snap, r);
  final_snap.reset();
  server.reset();
  fs::remove_all(wal_dir);

  if (!opt.trace) {
    SetEndToEnd(Median(setups), t, peak_mb, r);
    return;
  }
  const std::string replay_wal = wal_base + "-replay";
  FinishTrace(t, digest, /*serve_layers=*/true,
              [&](SpanLog* log, Layers* layers) {
                return ReplayServe(spec, in, reads, commits, replay_wal, log,
                                   layers);
              },
              SpansPath(spec, opt),
              r);
  fs::remove_all(replay_wal);
}

void RunRelational(const WorkloadSpec& spec, const RunOptions& opt,
                   const Inputs& in, const std::vector<ReadOp>& reads,
                   const std::vector<engine::BatchOp>& commits,
                   RunResult* r) {
  std::vector<double> setups;
  std::unique_ptr<engine::AccessController> ac;
  for (size_t rep = 0; rep < spec.setup_repeats; ++rep) {
    ac.reset();
    const auto b = Clock::now();
    ac = RelationalController();
    Status st = ac->Load(in.dtd_text, in.xml_text);
    if (st.ok()) st = ac->SetPolicy(in.policy_texts[0]);
    setups.push_back(Seconds(b, Clock::now()));
    if (!st.ok()) {
      Problem(r, "setup: " + st.ToString());
      return;
    }
  }
  r->meta.emplace_back("wal_level", "off");
  const size_t start_nodes = ac->backend()->NodeCount();
  Timed t;
  PairCounts pairs(in.subject_names.size(), in.queries.size());
  const auto timed0 = Clock::now();
  RelationalLoop(
      spec, reads.size(), commits.size(),
      [&](size_t i) {
        RelOutcome o = RelRead(*ac, in.queries[reads[i].query]);
        ++r->attempted;
        t.read_us.push_back(o.latency_us);
        if (!o.ok) {
          ++r->failed;
          Problem(r, "read failed: " + o.error);
          return;
        }
        pairs.Done(reads[i]);
        if (!o.granted) ++t.denied;
      },
      [&](size_t j) {
        RelOutcome o = RelCommit(*ac, commits[j]);
        ++r->attempted;
        t.commit_us.push_back(o.latency_us);
        if (!o.ok) {
          ++r->failed;
          Problem(r, "commit failed: " + o.error);
        }
      });
  const double timed_s = Seconds(timed0, Clock::now());
  const double peak_mb = PeakRssMb();
  r->meta.emplace_back("timed_phase_s", std::to_string(timed_s));
  r->meta.emplace_back("cycle_ms", std::to_string(timed_s * 1e3 /
                                                  static_cast<double>(commits.size())));
  const uint64_t digest = RelationalDigest(*ac);
  r->meta.emplace_back("final_digest", Hex(digest));
  CheckNodeCount(start_nodes, ac->backend()->NodeCount(), r);
  pairs.Check(r);
  GateRelational(in, *ac, commits.size(), r);
  ac.reset();

  if (!opt.trace) {
    SetEndToEnd(Median(setups), t, peak_mb, r);
    return;
  }
  FinishTrace(t, digest, /*serve_layers=*/false,
              [&](SpanLog* log, Layers* layers) {
                return ReplayRelational(spec, in, reads, commits, log, layers);
              },
              SpansPath(spec, opt),
              r);
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  RunResult r;
  const RunSize size = SizeRun(spec, opt.seconds);
  const Inputs in = GenerateInputs(spec, opt.seed, size.commits);
  const std::vector<ReadOp> reads = ReadSchedule(
      in.subject_names.size(), in.queries.size(), size.read_cycles, opt.seed);
  const std::vector<engine::BatchOp> commits = CommitSchedule(in, size.commits);

  r.meta.emplace_back("workload", spec.name);
  r.meta.emplace_back("seed", std::to_string(opt.seed));
  r.meta.emplace_back("reads", std::to_string(reads.size()));
  r.meta.emplace_back("commits", std::to_string(commits.size()));
  r.meta.emplace_back("subjects", std::to_string(in.subject_names.size()));
  r.meta.emplace_back("queries", std::to_string(in.queries.size()));
  r.meta.emplace_back("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  r.meta.emplace_back("hardware_concurrency",
                      std::to_string(std::thread::hardware_concurrency()));
  // Engine parallelism stays at its defaults (0 = auto); these are the
  // values "auto" resolves to on this host.
  const serve::ServerOptions defaults;
  const size_t resolved = xmlac::DefaultParallelism();
  r.meta.emplace_back(
      "parallel_subjects",
      std::to_string(defaults.parallel_subjects == 0 ? resolved
                                                     : defaults.parallel_subjects));
  r.meta.emplace_back("parallel_rules", std::to_string(resolved));
  r.meta.emplace_back(
      "shard_threads",
      std::to_string(defaults.shard_threads == 0 ? resolved
                                                 : defaults.shard_threads));
  if (!spec.relational) {
    r.meta.emplace_back("server_workers", std::to_string(kServerWorkers));
  }

  if (spec.relational) {
    RunRelational(spec, opt, in, reads, commits, &r);
  } else {
    RunServe(spec, opt, in, reads, commits, &r);
  }
  return r;
}

}  // namespace perfbench
