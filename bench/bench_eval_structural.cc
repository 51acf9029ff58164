// Structural-join XPath engine vs the naive evaluator (docs/performance.md,
// "Structural index").  Descendant-heavy paths (>= 3 steps) over XMark: the
// naive evaluator walks every subtree under each context node, while the
// structural engine merges tag streams under interval labels, so both the
// wall time and the xpath.nodes_visited counter (tree nodes touched vs
// stream entries advanced) should drop sharply.
//
// Flags: `--json out.json` (BENCH_*.json rows), `--factor F` (XMark scale,
// default 1.0 — about 10^5 elements), `--reps N` (median-of-N, default 5),
// and the CI perf-smoke gates `--min-speedup X` / `--min-visit-ratio X`,
// which fail the run when the geometric-mean wall-time speedup (naive /
// structural) or nodes-visited ratio lands below X.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/structural_index.h"

namespace xmlac::bench {
namespace {

// Descendant-heavy shapes from the paper's workload family: every path has
// at least one `//` below the entry and three or more steps total.
const char* const kQueries[] = {
    "//open_auction//increase",
    "//item//text",
    "//people//interest",
    "//regions//item/name",
    "//person//city",
    "//open_auction[.//increase]//date",
    "//item[location=\"United States\"]//from",
    "//closed_auction//description//text",
};

uint64_t VisitedDuring(const std::function<void()>& fn) {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scope(&registry);
  fn();
  auto snapshot = registry.Snapshot();
  auto it = snapshot.counters.find("xpath.nodes_visited");
  return it == snapshot.counters.end() ? 0 : it->second;
}

struct QueryPoint {
  double naive_s = 0;
  double structural_s = 0;
  uint64_t naive_visited = 0;
  uint64_t structural_visited = 0;
  size_t results = 0;
};

QueryPoint RunQuery(const xpath::Path& path, const xml::Document& doc,
                    const xpath::IndexVersion& index, int reps) {
  xpath::EvaluatorOptions structural;
  structural.index = &index;

  QueryPoint out;
  out.naive_s = MeasureMedian(
                    [&] {
                      Timer t;
                      benchmark::DoNotOptimize(xpath::Evaluate(path, doc));
                      return t.ElapsedSeconds();
                    },
                    1, reps)
                    .median_s;
  out.structural_s =
      MeasureMedian(
          [&] {
            Timer t;
            benchmark::DoNotOptimize(xpath::Evaluate(path, doc, structural));
            return t.ElapsedSeconds();
          },
          1, reps)
          .median_s;
  out.naive_visited =
      VisitedDuring([&] { (void)xpath::Evaluate(path, doc); });
  out.structural_visited =
      VisitedDuring([&] { (void)xpath::Evaluate(path, doc, structural); });
  out.results = xpath::Evaluate(path, doc, structural).size();
  return out;
}

}  // namespace
}  // namespace xmlac::bench

int main(int argc, char** argv) {
  using namespace xmlac;
  using bench::BenchReport;
  using bench::ConsumeFlag;
  bench::InitBenchReport(&argc, argv, "bench_eval_structural");
  double factor = std::stod(ConsumeFlag(&argc, argv, "--factor", "1.0"));
  int reps = std::stoi(ConsumeFlag(&argc, argv, "--reps", "5"));
  double min_speedup =
      std::stod(ConsumeFlag(&argc, argv, "--min-speedup", "-1"));
  double min_visit_ratio =
      std::stod(ConsumeFlag(&argc, argv, "--min-visit-ratio", "-1"));

  const xml::Document& doc = bench::XmarkDocument(factor);
  xpath::StructuralIndex index(&doc);
  Timer build;
  index.Publish();
  double build_s = build.ElapsedSeconds();

  size_t elements = 0;
  for (xml::NodeId id = 0; id < doc.size(); ++id) {
    if (doc.IsAlive(id) && doc.node(id).kind == xml::NodeKind::kElement) {
      ++elements;
    }
  }
  std::printf(
      "\nStructural-join engine vs naive evaluator: factor=%g (%zu "
      "elements), median of %d; index build %.4fs\n",
      factor, elements, reps, build_s);
  std::printf("%-42s %10s %10s %8s %12s %12s %8s %8s\n", "query", "naive_s",
              "struct_s", "speedup", "naive_vis", "struct_vis", "ratio",
              "rows");
  BenchReport::Instance().Add("eval_structural.index_build",
                              {{"factor", std::to_string(factor)}},
                              {{"build_s", build_s},
                               {"elements", static_cast<double>(elements)}});

  double log_speedup_sum = 0;
  double log_ratio_sum = 0;
  int counted = 0;
  for (const char* expr : bench::kQueries) {
    auto path = xpath::ParsePath(expr);
    XMLAC_CHECK_MSG(path.ok(), path.status().ToString());
    bench::QueryPoint p = bench::RunQuery(*path, doc, *index.current(), reps);
    double speedup =
        p.naive_s / (p.structural_s > 0 ? p.structural_s : 1e-9);
    double ratio = static_cast<double>(p.naive_visited) /
                   (p.structural_visited > 0
                        ? static_cast<double>(p.structural_visited)
                        : 1.0);
    std::printf("%-42s %10.5f %10.5f %7.1fx %12llu %12llu %7.1fx %8zu\n",
                expr, p.naive_s, p.structural_s, speedup,
                static_cast<unsigned long long>(p.naive_visited),
                static_cast<unsigned long long>(p.structural_visited), ratio,
                p.results);
    BenchReport::Instance().Add(
        "eval_structural.query",
        {{"query", expr}, {"factor", std::to_string(factor)}},
        {{"naive_s", p.naive_s},
         {"structural_s", p.structural_s},
         {"speedup", speedup},
         {"naive_visited", static_cast<double>(p.naive_visited)},
         {"structural_visited", static_cast<double>(p.structural_visited)},
         {"visit_ratio", ratio},
         {"results", static_cast<double>(p.results)}});
    log_speedup_sum += std::log(speedup);
    log_ratio_sum += std::log(ratio);
    ++counted;
  }
  double geo_speedup = std::exp(log_speedup_sum / counted);
  double geo_ratio = std::exp(log_ratio_sum / counted);
  std::printf("%-42s %10s %10s %7.1fx %12s %12s %7.1fx\n", "geometric mean",
              "", "", geo_speedup, "", "", geo_ratio);
  BenchReport::Instance().Add("eval_structural.summary",
                              {{"factor", std::to_string(factor)}},
                              {{"geomean_speedup", geo_speedup},
                               {"geomean_visit_ratio", geo_ratio},
                               {"index_build_s", build_s}});

  int rc = bench::FinishBenchReport();
  if (min_speedup >= 0 && geo_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: geomean wall-time speedup %.2fx below required "
                 "%.2fx\n",
                 geo_speedup, min_speedup);
    return 1;
  }
  if (min_visit_ratio >= 0 && geo_ratio < min_visit_ratio) {
    std::fprintf(stderr,
                 "FAIL: geomean nodes-visited ratio %.2fx below required "
                 "%.2fx\n",
                 geo_ratio, min_visit_ratio);
    return 1;
  }
  std::printf("\n");
  return rc;
}
