// Figure 12 of the paper: partial re-annotation vs full re-annotation,
// averaged over the 55-query workload replayed as delete updates, one panel
// per backend.  Expected shape: re-annotation time is largely independent
// of document size and several times faster than annotating from scratch
// (the paper reports ~5x native, ~9x column store, ~7x row store on
// average, with native re-annotation ~2x faster than relational).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/annotator.h"
#include "policy/trigger.h"
#include "workload/coverage.h"
#include "workload/queries.h"
#include "xml/schema_graph.h"

namespace xmlac::bench {
namespace {

const std::vector<double>& ReannotFactors() {
  static const auto* kFactors =
      new std::vector<double>{0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 2.0};
  return *kFactors;
}

struct Fig12Result {
  double avg_reannot = 0;
  double avg_fannot = 0;
  size_t updates = 0;
};

Fig12Result RunOne(double factor, BackendKind kind, size_t max_updates) {
  const xml::Document& doc = XmarkDocument(factor);
  auto backend = MakeBackend(kind);
  Status st = backend->Load(XmarkDtd(), doc);
  XMLAC_CHECK_MSG(st.ok(), st.ToString());

  workload::CoverageOptions copt;
  copt.target = 0.5;
  auto policy = workload::GenerateCoveragePolicy(doc, copt);
  XMLAC_CHECK(policy.ok());
  auto ann = engine::AnnotateFull(backend.get(), *policy);
  XMLAC_CHECK_MSG(ann.ok(), ann.status().ToString());

  xml::SchemaGraph schema(XmarkDtd());
  policy::TriggerIndex trigger(*policy, &schema);

  // The paper's updates are "derived from the coverage dataset": half of
  // ours are the policy's own rule paths (guaranteed to interact with the
  // annotations), half are generic workload queries over the vocabulary.
  workload::QueryWorkloadOptions qopt;
  qopt.count = max_updates;
  auto updates = workload::GenerateQueries(doc, qopt);
  for (size_t i = 0; i + 1 < updates.size() && !policy->rules().empty();
       i += 2) {
    updates[i] = policy->rules()[(i / 2) % policy->size()].resource;
  }

  Fig12Result out;
  double reannot_total = 0;
  double fannot_total = 0;
  size_t fannot_samples = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    const xpath::Path& u = updates[i];
    std::vector<size_t> triggered = trigger.Trigger(u);
    auto old_scope =
        engine::TriggeredScope(backend.get(), *policy, triggered);
    XMLAC_CHECK_MSG(old_scope.ok(), old_scope.status().ToString());
    auto deleted = backend->DeleteWhere(u);
    XMLAC_CHECK_MSG(deleted.ok(), deleted.status().ToString());

    Timer t;
    auto re = engine::Reannotate(backend.get(), *policy, triggered,
                                 *old_scope);
    reannot_total += t.ElapsedSeconds();
    XMLAC_CHECK_MSG(re.ok(), re.status().ToString());
    ++out.updates;

    // Sample the full-annotation baseline every 8 updates (it also restores
    // a fully consistent store, like the paper's "annotate from scratch").
    if (i % 8 == 0) {
      Timer ft;
      auto full = engine::AnnotateFull(backend.get(), *policy);
      fannot_total += ft.ElapsedSeconds();
      ++fannot_samples;
      XMLAC_CHECK_MSG(full.ok(), full.status().ToString());
    }
  }
  out.avg_reannot = reannot_total / static_cast<double>(out.updates);
  out.avg_fannot = fannot_total / static_cast<double>(fannot_samples);
  return out;
}

size_t UpdatesForFactor(double factor) {
  // The paper replays all 55; we trim the count on the biggest documents to
  // keep the suite's wall-clock reasonable.
  return factor >= 1.0 ? 25 : 55;
}

void BM_Reannotate(benchmark::State& state) {
  double factor = DecodeFactor(state.range(0));
  auto kind = static_cast<BackendKind>(state.range(1));
  for (auto _ : state) {
    Fig12Result r = RunOne(factor, kind, UpdatesForFactor(factor));
    state.SetIterationTime(r.avg_reannot);
    state.counters["fannot_s"] = benchmark::Counter(r.avg_fannot);
    state.counters["speedup"] =
        benchmark::Counter(r.avg_fannot / (r.avg_reannot > 0
                                               ? r.avg_reannot
                                               : 1e-9));
  }
  state.SetLabel(std::string(BackendName(kind)) +
                 " f=" + std::to_string(factor));
}

void RegisterAll() {
  for (int b = 0; b < 3; ++b) {
    for (double f : ReannotFactors()) {
      benchmark::RegisterBenchmark(
          (std::string("Fig12/Reannotate/") +
           BackendName(static_cast<BackendKind>(b)))
              .c_str(),
          BM_Reannotate)
          ->Args({EncodeFactor(f), b})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void PrintFigure12() {
  int panel = 0;
  for (BackendKind kind : PanelOrder()) {
    std::printf(
        "\nFigure 12(%c): avg re-annotation vs full annotation (ms), "
        "%s\n",
        'a' + panel++, BackendName(kind));
    std::printf("%10s %12s %12s %10s\n", "factor", "reannot", "fannot",
                "speedup");
    double total_speedup = 0;
    size_t n = 0;
    for (double f : ReannotFactors()) {
      Fig12Result r = RunOne(f, kind, UpdatesForFactor(f));
      double speedup = r.avg_fannot / (r.avg_reannot > 0 ? r.avg_reannot
                                                         : 1e-9);
      // Milliseconds to 10 ns, so even the smallest factors' times carry
      // enough digits to check the speedup column against them.
      std::printf("%10g %12.5f %12.5f %9.1fx\n", f, r.avg_reannot * 1e3,
                  r.avg_fannot * 1e3, speedup);
      total_speedup += speedup;
      ++n;
    }
    std::printf("%10s %37.1fx (avg)\n", "", total_speedup / n);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace xmlac::bench

int main(int argc, char** argv) {
  xmlac::bench::PrintFigure12();
  xmlac::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
