// Hit-rate-vs-speedup scaling for the fleet-shared rule node-set cache
// (docs/performance.md).  One fleet per subject count {1,2,4,..}, every
// subject installing the same coverage policy (the repeated-subject
// fixture: rule resource paths recur across subjects, so the shared cache's
// hit rate grows as (n-1)/n).  Two phases per fleet:
//
//  - annotate: AddSubject for all n subjects — with the cache on, subject 1
//    evaluates each distinct rule path and the rest replay bitmaps;
//  - update: a broadcast of rule-path deletes — with the cache on, each
//    update evicts exactly the triggered rules (Trigger set), one subject
//    re-evaluates them, and the rest apply bitmap sign diffs.
//
// Expected shape: hit rate climbs towards 1 with subject count and the
// speedup columns climb with it.
//
// Flags: `--json out.json` (BENCH_*.json rows), `--factor F` (XMark scale,
// default 0.01), `--max-subjects N` (default 16), `--backend
// xquery|postgres|monetsql|all` (default xquery), `--reps N` (median-of-N,
// default 3), `--min-hit-rate X` — exit non-zero when the largest fleet's
// cached hit rate lands below X (the CI perf-smoke gate).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/multi_subject.h"
#include "workload/coverage.h"
#include "xpath/ast.h"

namespace xmlac::bench {
namespace {

struct FleetPoint {
  double annotate_s = 0;
  double update_s = 0;
  double hit_rate = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// One full fleet run: build the controller, annotate `subjects` subjects,
// then broadcast a few rule-path deletes.  Fresh controller per run so the
// cache starts cold and the reported hit rate is the run's own.
FleetPoint RunFleet(double factor, BackendKind kind, size_t subjects,
                    bool cached) {
  const xml::Document& doc = XmarkDocument(factor);
  workload::CoverageOptions copt;
  copt.target = 0.55;
  auto policy = workload::GenerateCoveragePolicy(doc, copt);
  XMLAC_CHECK(policy.ok());
  std::string policy_text = policy->ToString();

  engine::MultiSubjectOptions mopt;
  mopt.enable_rule_cache = cached;
  engine::MultiSubjectController msc([kind] { return MakeBackend(kind); },
                                     mopt);
  Status st = msc.LoadParsed(XmarkDtd(), doc);
  XMLAC_CHECK_MSG(st.ok(), st.ToString());

  FleetPoint out;
  Timer annotate;
  for (size_t s = 0; s < subjects; ++s) {
    Status added = msc.AddSubject("subject" + std::to_string(s), policy_text);
    XMLAC_CHECK_MSG(added.ok(), added.ToString());
  }
  out.annotate_s = annotate.ElapsedSeconds();

  // Broadcast deletes on the policy's own rule paths: guaranteed to trigger
  // re-annotation (fig. 12's construction).
  size_t update_count = std::min<size_t>(3, policy->size());
  Timer update;
  for (size_t u = 0; u < update_count; ++u) {
    auto stats = msc.ApplyBatch({engine::BatchOp::Delete(
        xpath::ToString(policy->rules()[u].resource))});
    XMLAC_CHECK_MSG(stats.ok(), stats.status().ToString());
  }
  out.update_s = update.ElapsedSeconds();
  out.hit_rate = cached ? msc.rule_cache().HitRate() : 0.0;
  return out;
}

FleetPoint MedianFleet(double factor, BackendKind kind, size_t subjects,
                       bool cached, int reps) {
  (void)RunFleet(factor, kind, subjects, cached);  // warmup
  std::vector<double> annotate_s, update_s;
  FleetPoint last;
  for (int i = 0; i < reps; ++i) {
    last = RunFleet(factor, kind, subjects, cached);
    annotate_s.push_back(last.annotate_s);
    update_s.push_back(last.update_s);
  }
  FleetPoint out;
  out.annotate_s = Median(std::move(annotate_s));
  out.update_s = Median(std::move(update_s));
  out.hit_rate = last.hit_rate;  // deterministic in (fixture, subjects)
  return out;
}

// Returns the largest fleet's cached hit rate for the gate.
double RunPanel(BackendKind kind, double factor, size_t max_subjects,
                int reps) {
  std::printf(
      "\nMulti-subject rule cache scaling: %s, factor=%g (seconds, "
      "median of %d)\n",
      BackendName(kind), factor, reps);
  std::printf("%9s %11s %11s %9s %11s %11s %9s %9s\n", "subjects",
              "annot_off", "annot_on", "speedup", "upd_off", "upd_on",
              "speedup", "hit_rate");
  double gate_hit_rate = 0;
  for (size_t n = 1; n <= max_subjects; n *= 2) {
    FleetPoint off = MedianFleet(factor, kind, n, false, reps);
    FleetPoint on = MedianFleet(factor, kind, n, true, reps);
    double annotate_speedup =
        off.annotate_s / (on.annotate_s > 0 ? on.annotate_s : 1e-9);
    double update_speedup =
        off.update_s / (on.update_s > 0 ? on.update_s : 1e-9);
    std::printf("%9zu %11.4f %11.4f %8.1fx %11.4f %11.4f %8.1fx %9.3f\n", n,
                off.annotate_s, on.annotate_s, annotate_speedup, off.update_s,
                on.update_s, update_speedup, on.hit_rate);
    BenchReport::Instance().Add(
        "multisubject_cache.scaling",
        {{"backend", BackendName(kind)},
         {"factor", std::to_string(factor)},
         {"subjects", std::to_string(n)}},
        {{"annotate_uncached_s", off.annotate_s},
         {"annotate_cached_s", on.annotate_s},
         {"annotate_speedup", annotate_speedup},
         {"update_uncached_s", off.update_s},
         {"update_cached_s", on.update_s},
         {"update_speedup", update_speedup},
         {"hit_rate", on.hit_rate}});
    gate_hit_rate = on.hit_rate;
  }
  return gate_hit_rate;
}

}  // namespace
}  // namespace xmlac::bench

int main(int argc, char** argv) {
  using xmlac::bench::BackendKind;
  using xmlac::bench::ConsumeFlag;
  xmlac::bench::InitBenchReport(&argc, argv, "bench_multisubject_cache");
  double factor = std::stod(ConsumeFlag(&argc, argv, "--factor", "0.01"));
  size_t max_subjects = static_cast<size_t>(
      std::stoul(ConsumeFlag(&argc, argv, "--max-subjects", "16")));
  int reps = std::stoi(ConsumeFlag(&argc, argv, "--reps", "3"));
  std::string backend = ConsumeFlag(&argc, argv, "--backend", "xquery");
  double min_hit_rate =
      std::stod(ConsumeFlag(&argc, argv, "--min-hit-rate", "-1"));

  double gate_hit_rate = 0;
  for (BackendKind kind : xmlac::bench::PanelOrder()) {
    if (backend != "all" && backend != xmlac::bench::BackendName(kind)) {
      continue;
    }
    gate_hit_rate = std::max(
        gate_hit_rate,
        xmlac::bench::RunPanel(kind, factor, max_subjects, reps));
  }

  int rc = xmlac::bench::FinishBenchReport();
  if (min_hit_rate >= 0 && gate_hit_rate < min_hit_rate) {
    std::fprintf(stderr,
                 "FAIL: repeated-subject cache hit rate %.3f below required "
                 "%.3f\n",
                 gate_hit_rate, min_hit_rate);
    return 1;
  }
  std::printf("\n");
  return rc;
}
