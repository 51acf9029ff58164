// Shard-parallel scaling (docs/performance.md, "Shard-parallel execution"):
// the exchange-style fan-out over structural-index intervals and labeling
// subtrees, swept over worker counts.  Each workload runs
// the SAME computation at threads ∈ {1, 2, 4, 8, max} — threads=1 plans a
// single shard, i.e. the serial engine — so the reported speedup is the
// fan-out's wall-clock win, not a change of algorithm.
//
// Workloads:
//   eval        structural-join XPath over XMark, per-interval-range fan-out
//   reannotate  full cached re-annotation: every rule misses the cache and
//               the misses evaluate concurrently, each over interval shards
//               (the Fig. 5 bitmap combination itself is serial)
//   labeling    (st, en) interval labeling, per-top-subtree
//   forkjoin    the ParallelFor pool's fixed cost per fan-out (not gated)
//
// Flags: `--json out.json` (BENCH_*.json rows), `--factor F` (XMark scale,
// default 1.0), `--reps N` (median-of-N, default 3) and the CI perf-smoke
// gate `--min-speedup X`, which fails the run when the best multi-threaded
// eval+reannotate geomean speedup lands below X.  The gate auto-skips (with
// a note) on hosts with fewer than 2 hardware threads, where no parallel
// speedup is physically available.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/shard.h"
#include "common/timer.h"
#include "engine/access_controller.h"
#include "engine/native_backend.h"
#include "workload/coverage.h"
#include "workload/xmark.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/structural_eval.h"
#include "xpath/structural_index.h"

namespace xmlac::bench {
namespace {

// Descendant-heavy paths (same family as bench_eval_structural): large
// context sets at the fan-out step, where sharding has work to split.
const char* const kEvalQueries[] = {
    "//open_auction//increase",
    "//item//text",
    "//people//interest",
    "//regions//item/name",
    "//person//city",
    "//closed_auction//description//text",
};

std::vector<size_t> ThreadSweep() {
  std::vector<size_t> sweep = {1, 2, 4, 8, DefaultParallelism()};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  return sweep;
}

double MedianSeconds(const std::function<void()>& fn, int reps) {
  return MeasureMedian(
             [&] {
               Timer t;
               fn();
               return t.ElapsedSeconds();
             },
             1, reps)
      .median_s;
}

}  // namespace
}  // namespace xmlac::bench

int main(int argc, char** argv) {
  using namespace xmlac;
  using bench::BenchReport;
  using bench::ConsumeFlag;
  bench::InitBenchReport(&argc, argv, "bench_parallel_scaling");
  double factor = std::stod(ConsumeFlag(&argc, argv, "--factor", "1.0"));
  int reps = std::stoi(ConsumeFlag(&argc, argv, "--reps", "3"));
  double min_speedup =
      std::stod(ConsumeFlag(&argc, argv, "--min-speedup", "-1"));

  const std::vector<size_t> sweep = bench::ThreadSweep();
  const size_t hw = std::thread::hardware_concurrency();
  const xml::Document& doc = bench::XmarkDocument(factor);
  size_t elements = 0;
  for (xml::NodeId id = 0; id < doc.size(); ++id) {
    if (doc.IsAlive(id) && doc.node(id).kind == xml::NodeKind::kElement) {
      ++elements;
    }
  }
  std::printf(
      "\nShard-parallel scaling: factor=%g (%zu elements), median of %d, "
      "%zu hardware threads\n",
      factor, elements, reps, hw);
  std::printf("%-12s %8s %10s %8s\n", "workload", "threads", "seconds",
              "speedup");

  auto dtd = workload::XmarkGenerator::ParseXmarkDtd();
  XMLAC_CHECK_MSG(dtd.ok(), dtd.status().ToString());
  workload::CoverageOptions copt;
  copt.target = 0.5;
  auto policy = workload::GenerateCoveragePolicy(doc, copt);
  XMLAC_CHECK_MSG(policy.ok(), policy.status().ToString());

  xpath::StructuralIndex index(&doc);
  index.Publish();
  const xpath::IndexVersion& version = *index.current();
  std::vector<xpath::Path> eval_paths;
  for (const char* expr : bench::kEvalQueries) {
    auto p = xpath::ParsePath(expr);
    XMLAC_CHECK_MSG(p.ok(), p.status().ToString());
    eval_paths.push_back(*p);
  }

  // One row per (workload, threads); returns the threads=1 baseline so each
  // workload's speedups are relative to its own serial run.
  auto report = [&](const char* workload, size_t threads, double seconds,
                    double base_seconds) {
    double speedup = base_seconds / (seconds > 0 ? seconds : 1e-9);
    std::printf("%-12s %8zu %10.4f %7.2fx\n", workload, threads, seconds,
                speedup);
    BenchReport::Instance().Add(
        std::string("parallel_scaling.") + workload,
        {{"threads", std::to_string(threads)},
         {"factor", std::to_string(factor)}},
        {{"seconds", seconds}, {"speedup", speedup}});
    return speedup;
  };

  // --- forkjoin: the pool's fixed cost per fan-out ----------------------
  // One item per participant; the caller's item waits (yielding) until
  // every participant has taken one, so a call times a full fork-join
  // round trip: queue the tickets, wake the workers, join them.  "warm"
  // runs calls back to back; "cold" leaves the pool idle for 10 ms first,
  // like a serve read at 100 reads/s.  structural_eval.cc's
  // kEvalShardMinWork is derived from the cold figure.
  size_t timed = 1;
  for (size_t threads : sweep) {
    const size_t taking_part = std::min(threads, ParallelPoolWorkers() + 1);
    if (taking_part == timed) continue;  // capped at the pool size
    timed = taking_part;
    auto round_trip_us = [&](std::chrono::milliseconds idle, int calls) {
      std::vector<double> samples;
      for (int c = 0; c < calls; ++c) {
        if (idle.count() > 0) std::this_thread::sleep_for(idle);
        std::atomic<size_t> arrived{0};
        Timer t;
        ParallelFor(taking_part, taking_part, 1, [&](size_t) {
          arrived.fetch_add(1);
          while (arrived.load() < taking_part) std::this_thread::yield();
        });
        samples.push_back(t.ElapsedSeconds() * 1e6);
      }
      std::sort(samples.begin(), samples.end());
      return samples[samples.size() / 2];
    };
    const double warm_us = round_trip_us(std::chrono::milliseconds(0), 400);
    const double cold_us = round_trip_us(std::chrono::milliseconds(10), 100);
    std::printf("%-12s %8zu %7.1f us warm, %.1f us cold (median round trip)\n",
                "forkjoin", taking_part, warm_us, cold_us);
    BenchReport::Instance().Add(
        "parallel_scaling.forkjoin",
        {{"threads", std::to_string(taking_part)}},
        {{"warm_us", warm_us}, {"cold_us", cold_us}});
  }

  // Best multi-threaded speedup per gated workload, for the CI gate.
  double best_eval = 1.0;
  double best_reannotate = 1.0;

  // --- eval: sharded structural-join evaluation --------------------------
  {
    double base = 0;
    for (size_t threads : sweep) {
      ShardConfig config;
      config.threads = threads;
      config.min_work = 1;
      double s = bench::MedianSeconds(
          [&] {
            for (const xpath::Path& p : eval_paths) {
              benchmark::DoNotOptimize(
                  xpath::EvaluateStructural(p, doc, version, config));
            }
          },
          reps);
      if (threads == 1) base = s;
      double speedup = report("eval", threads, s, base);
      if (threads > 1) best_eval = std::max(best_eval, speedup);
    }
  }

  // --- reannotate: cached full re-annotation (concurrent rule misses) ----
  {
    double base = 0;
    for (size_t threads : sweep) {
      engine::ControllerOptions options;
      options.shard_parallel = true;
      options.shard_threads = threads;
      options.parallel_rules = threads;
      engine::AccessController ac(
          std::make_unique<engine::NativeXmlBackend>(), options);
      XMLAC_CHECK(ac.LoadParsed(*dtd, doc).ok());
      XMLAC_CHECK(ac.SetPolicyParsed(*policy).ok());  // warms the rule cache
      double s = bench::MedianSeconds(
          [&] { benchmark::DoNotOptimize(ac.ReannotateFull()); }, reps);
      if (threads == 1) base = s;
      double speedup = report("reannotate", threads, s, base);
      if (threads > 1) best_reannotate = std::max(best_reannotate, speedup);
    }
  }

  // --- labeling: per-top-subtree interval labeling -----------------------
  {
    double base = 0;
    for (size_t threads : sweep) {
      ShardConfig config;
      config.threads = threads;
      config.min_work = 1;
      double s = bench::MedianSeconds(
          [&] {
            benchmark::DoNotOptimize(xpath::ComputeIntervalLabels(doc, config));
          },
          reps);
      if (threads == 1) base = s;
      report("labeling", threads, s, base);
    }
  }

  double gated = std::sqrt(best_eval * best_reannotate);  // geomean of 2
  std::printf("%-12s %8s %10s %7.2fx  (geomean of best eval/reannotate)\n",
              "gate", "", "", gated);
  BenchReport::Instance().Add(
      "parallel_scaling.summary", {{"factor", std::to_string(factor)}},
      {{"best_eval_speedup", best_eval},
       {"best_reannotate_speedup", best_reannotate},
       {"gated_speedup", gated},
       {"hardware_threads", static_cast<double>(hw)}});

  int rc = bench::FinishBenchReport();
  if (min_speedup >= 0) {
    if (hw < 2) {
      std::printf(
          "NOTE: --min-speedup %.2f skipped — only %zu hardware thread(s), "
          "no parallel speedup is physically available\n",
          min_speedup, hw);
    } else if (gated < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: shard-parallel speedup %.2fx below required %.2fx\n",
                   gated, min_speedup);
      return 1;
    }
  }
  std::printf("\n");
  return rc;
}
