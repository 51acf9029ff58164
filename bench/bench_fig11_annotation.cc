// Figure 11 of the paper: average annotation time against policy coverage
// (25-70% of the document), one curve per document factor, one panel per
// backend.  Expected shape: annotation time grows with both document size
// and coverage; the native store wins in the long run.
//
// A fourth panel extends the figure past the paper: multi-subject
// annotation with the fleet-shared rule node-set cache on and off
// (docs/performance.md).  Subjects in one fleet reuse rule resource paths
// heavily, so the cached configuration evaluates each distinct path once
// and replays bitmaps for the rest — the recorded `speedup` column is the
// headline number CI tracks via BENCH_annotate.json.
//
// Flags (besides google-benchmark's): `--json out.json` writes every table
// row as JSON; `--max-factor F` trims the sweep for smoke runs; `--reps N`
// and `--subjects N` size the median-of-N timing and the fleet.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "engine/annotator.h"
#include "engine/multi_subject.h"
#include "policy/optimizer.h"
#include "workload/coverage.h"
#include "xml/schema_graph.h"

namespace xmlac::bench {
namespace {

const std::vector<double>& Coverages() {
  static const auto* kCoverages =
      new std::vector<double>{0.25, 0.40, 0.55, 0.70};
  return *kCoverages;
}

// Smaller factor sweep: annotation at high coverage touches most tuples.
const std::vector<double>& AnnotationFactors() {
  static const auto* kFactors =
      new std::vector<double>{0.0001, 0.001, 0.01, 0.1, 1.0};
  return *kFactors;
}

double AnnotateOnce(double factor, BackendKind kind, double coverage,
                    double* achieved) {
  const xml::Document& doc = XmarkDocument(factor);
  auto backend = MakeBackend(kind);
  Status st = backend->Load(XmarkDtd(), doc);
  XMLAC_CHECK_MSG(st.ok(), st.ToString());
  workload::CoverageOptions copt;
  copt.target = coverage;
  auto policy = workload::GenerateCoveragePolicy(doc, copt);
  XMLAC_CHECK(policy.ok());
  if (achieved != nullptr) {
    *achieved = workload::MeasureCoverage(*policy, doc);
  }
  Timer t;
  auto ann = engine::AnnotateFull(backend.get(), *policy);
  double seconds = t.ElapsedSeconds();
  XMLAC_CHECK_MSG(ann.ok(), ann.status().ToString());
  return seconds;
}

// Annotates a `subjects`-strong fleet sharing one coverage policy (the
// repeated-subject fixture: every subject's rules resolve to the same
// resource paths, the common case the shared cache targets).  The timed
// region is the per-subject policy install + full annotation only —
// replica provisioning happens before the clock starts, matching the
// single-subject panels, which also time annotation against a loaded
// store.  `hit_rate` receives the shared cache's hit rate for the run (0
// when `cached` is false).
double MultiSubjectAnnotateOnce(double factor, BackendKind kind,
                                size_t subjects, bool cached,
                                double* hit_rate) {
  const xml::Document& doc = XmarkDocument(factor);
  workload::CoverageOptions copt;
  copt.target = 0.55;
  auto policy = workload::GenerateCoveragePolicy(doc, copt);
  XMLAC_CHECK(policy.ok());
  // Fleets optimize the shared policy once and install the result per
  // subject; the per-subject loop below is annotation proper (plus the
  // trigger-index build every controller needs for updates).
  xml::SchemaGraph schema(XmarkDtd());
  policy::Policy optimized = policy::EliminateRedundantRules(
      policy::PruneUnsatisfiableRules(*policy, schema));

  engine::RuleScopeCache cache;
  xpath::ContainmentCache containment;
  std::vector<std::unique_ptr<engine::AccessController>> fleet;
  fleet.reserve(subjects);
  for (size_t s = 0; s < subjects; ++s) {
    engine::ControllerOptions opt;
    opt.optimize_policies = false;
    opt.enable_rule_cache = cached;
    opt.shared_rule_cache = cached ? &cache : nullptr;
    opt.shared_containment_cache = &containment;
    auto ac =
        std::make_unique<engine::AccessController>(MakeBackend(kind), opt);
    Status st = ac->LoadParsed(XmarkDtd(), doc);
    XMLAC_CHECK_MSG(st.ok(), st.ToString());
    fleet.push_back(std::move(ac));
  }

  Timer t;
  for (auto& ac : fleet) {
    Status st = ac->SetPolicyParsed(optimized);
    XMLAC_CHECK_MSG(st.ok(), st.ToString());
  }
  double seconds = t.ElapsedSeconds();
  if (hit_rate != nullptr) {
    *hit_rate = cached ? cache.HitRate() : 0.0;
  }
  return seconds;
}

void BM_Annotate(benchmark::State& state) {
  double factor = DecodeFactor(state.range(0));
  auto kind = static_cast<BackendKind>(state.range(1));
  double coverage = state.range(2) / 100.0;
  double achieved = 0;
  // Collect pipeline metrics across the (manual-time) iterations; the
  // registry's cost is amortized per annotation and reported alongside the
  // timing counters so regressions show where the work went.
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics metrics_ctx(&metrics);
  for (auto _ : state) {
    state.SetIterationTime(AnnotateOnce(factor, kind, coverage, &achieved));
  }
  state.counters["coverage_pct"] = benchmark::Counter(achieved * 100.0);
  AttachMetrics(state, metrics.Snapshot());
  state.SetLabel(std::string(BackendName(kind)) +
                 " f=" + std::to_string(factor));
}

void RegisterAll() {
  for (int b = 0; b < 3; ++b) {
    for (double f : AnnotationFactors()) {
      for (double c : Coverages()) {
        benchmark::RegisterBenchmark(
            (std::string("Fig11/Annotate/") +
             BackendName(static_cast<BackendKind>(b)))
                .c_str(),
            BM_Annotate)
            ->Args({EncodeFactor(f), b, static_cast<int64_t>(c * 100)})
            ->Iterations(1)
            ->UseManualTime()
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

void PrintFigure11(double max_factor, int reps) {
  int panel = 0;
  for (BackendKind kind : PanelOrder()) {
    std::printf("\nFigure 11(%c): avg annotation time (seconds), %s\n",
                'a' + panel++, BackendName(kind));
    std::printf("%14s", "coverage->");
    for (double c : Coverages()) std::printf(" %11.0f%%", c * 100);
    std::printf("\n");
    for (double f : AnnotationFactors()) {
      if (f > max_factor) continue;
      std::printf("f=%-12g", f);
      for (double c : Coverages()) {
        BenchTiming t = MeasureMedian(
            [&] { return AnnotateOnce(f, kind, c, nullptr); }, 1, reps);
        std::printf(" %12.4f", t.median_s);
        BenchReport::Instance().Add(
            "fig11.annotate",
            {{"backend", BackendName(kind)},
             {"factor", std::to_string(f)},
             {"coverage", std::to_string(c)}},
            {{"seconds_median", t.median_s},
             {"seconds_min", t.min_s},
             {"seconds_max", t.max_s}});
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
}

void PrintMultiSubject(double max_factor, int reps, size_t subjects) {
  std::printf(
      "Figure 11(d): multi-subject annotation, %zu subjects sharing rule "
      "paths, rule cache off vs on (seconds)\n",
      subjects);
  std::printf("%10s %10s %12s %12s %9s %9s\n", "backend", "factor",
              "uncached", "cached", "speedup", "hit_rate");
  for (BackendKind kind : PanelOrder()) {
    for (double f : AnnotationFactors()) {
      if (f > max_factor) continue;
      // Keep the biggest documents out of the fleet sweep: the single
      // subject panels above already cover per-store scaling.
      if (f > 0.1) continue;
      BenchTiming uncached = MeasureMedian(
          [&] {
            return MultiSubjectAnnotateOnce(f, kind, subjects, false,
                                            nullptr);
          },
          1, reps);
      double hit_rate = 0;
      BenchTiming cached = MeasureMedian(
          [&] {
            return MultiSubjectAnnotateOnce(f, kind, subjects, true,
                                            &hit_rate);
          },
          1, reps);
      double speedup =
          uncached.median_s / (cached.median_s > 0 ? cached.median_s : 1e-9);
      std::printf("%10s %10g %12.4f %12.4f %8.1fx %9.3f\n",
                  BackendName(kind), f, uncached.median_s, cached.median_s,
                  speedup, hit_rate);
      BenchReport::Instance().Add(
          "fig11.multisubject",
          {{"backend", BackendName(kind)},
           {"factor", std::to_string(f)},
           {"subjects", std::to_string(subjects)}},
          {{"seconds_uncached", uncached.median_s},
           {"seconds_cached", cached.median_s},
           {"speedup", speedup},
           {"hit_rate", hit_rate}});
    }
  }
  std::printf("\n");
}

}  // namespace
}  // namespace xmlac::bench

int main(int argc, char** argv) {
  using xmlac::bench::ConsumeFlag;
  xmlac::bench::InitBenchReport(&argc, argv, "bench_fig11_annotation");
  double max_factor =
      std::stod(ConsumeFlag(&argc, argv, "--max-factor", "1e9"));
  int reps = std::stoi(ConsumeFlag(&argc, argv, "--reps", "3"));
  size_t subjects = static_cast<size_t>(
      std::stoul(ConsumeFlag(&argc, argv, "--subjects", "8")));
  xmlac::bench::PrintFigure11(max_factor, reps);
  xmlac::bench::PrintMultiSubject(max_factor, reps, subjects);
  xmlac::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return xmlac::bench::FinishBenchReport();
}
