#ifndef XMLAC_COMMON_SHARD_H_
#define XMLAC_COMMON_SHARD_H_

// Exchange-style shard planner and runner (docs/performance.md,
// "Shard-parallel execution").
//
// The two sites that use it, both in the native store, have the same
// shape: partition an ordered input (a start-sorted context set in the
// structural evaluator, the top-level subtrees of a document in labeling)
// into contiguous ranges, run one body per range, and merge the per-range
// outputs by concatenating them in range order.  Because the shard key is
// aligned with the output order — interval start labels are pre-order —
// concatenation IS the order-preserving merge, and the sharded result is
// byte-identical to the serial one (shard_parallel_test and the
// differential harness's /shard side check this).  The annotator's bitmap
// loops and the relational store run serially.
//
// PlanShards is the one policy point: it decides between a single range
// and k contiguous ranges based on the input size (or the call site's
// estimate of its work), the configured work threshold, and
// DefaultParallelism().  RunShards is the one execution path: a site
// keeps one loop body, and the serial case is simply the plan with one
// range, run inline on the caller.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xmlac {

// A half-open range [begin, end) of the sharded input.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

// Per-site sharding knobs, threaded through EvaluatorOptions /
// ControllerOptions / ServerOptions so the differential harness can run
// every path sharded-vs-serial.
struct ShardConfig {
  // Master toggle.  Disabled => PlanShards always returns one range.
  bool enabled = true;
  // Shard count, and the cap on threads taking part; 0 =
  // DefaultParallelism().  A value above the pool size still plans that
  // many ranges, but only ParallelPoolWorkers() + 1 threads run them.
  size_t threads = 0;
  // Inputs whose work is below this stay serial.  0 = use the call site's
  // default (each site knows its own per-element cost; an XPath context
  // node can be microseconds).
  size_t min_work = 0;

  size_t ResolvedThreads() const {
    return threads == 0 ? DefaultParallelism() : threads;
  }
};

// Partitions [0, n) into contiguous ranges: one range when sharding is
// disabled or `work` (the call site's estimate of the input's cost, in the
// unit of its threshold) is below the work threshold, otherwise up to
// config.ResolvedThreads() ranges of near-equal size covering [0, n) in
// order.  Returns an empty vector when n == 0.
inline std::vector<ShardRange> PlanShards(size_t n, size_t work,
                                          const ShardConfig& config,
                                          size_t default_min_work) {
  std::vector<ShardRange> out;
  if (n == 0) return out;
  size_t min_work = config.min_work != 0 ? config.min_work : default_min_work;
  size_t k = 1;
  if (config.enabled && work >= min_work) k = config.ResolvedThreads();
  if (k > n) k = n;
  if (k == 0) k = 1;
  size_t chunk = (n + k - 1) / k;
  out.reserve(k);
  for (size_t begin = 0; begin < n; begin += chunk) {
    out.push_back(ShardRange{begin, std::min(begin + chunk, n)});
  }
  return out;
}

// Sites whose per-element cost is uniform: the work is the input size.
inline std::vector<ShardRange> PlanShards(size_t n, const ShardConfig& config,
                                          size_t default_min_work = 1) {
  return PlanShards(n, n, config, default_min_work);
}

// Where a fan-out is counted and traced: a run over more than one range
// adds 1 to `<counters>.shard.fanouts` and the range count to
// `<counters>.shard.shards`, inside a span named `span` when one is given.
struct ShardSite {
  std::string_view counters;
  const char* span = nullptr;
};

// The order-preserving shard runner.  Runs body(k) for every range k of
// `ranges` (a PlanShards plan) on ParallelFor with up to
// config.ResolvedThreads() participants; a single range runs inline on the
// caller.  `body` returns a std::vector, and the result is the per-range
// vectors concatenated in range order (a lone part is moved out, never
// copied), or void when each range writes its own disjoint slice of a
// shared output.
template <typename Body>
auto RunShards(const std::vector<ShardRange>& ranges, const ShardConfig& config,
               const ShardSite& site, Body&& body)
    -> std::invoke_result_t<Body&, size_t> {
  using Part = std::invoke_result_t<Body&, size_t>;
  std::optional<obs::ScopedSpan> span;
  if (ranges.size() > 1) {
    if (site.span != nullptr) span.emplace(site.span);
    obs::IncrementCounter(std::string(site.counters) + ".shard.fanouts");
    obs::IncrementCounter(std::string(site.counters) + ".shard.shards",
                          ranges.size());
    if (span && span->active()) {
      span->AddCount("shards", static_cast<int64_t>(ranges.size()));
    }
  }
  if constexpr (std::is_void_v<Part>) {
    ParallelFor(ranges.size(), config.ResolvedThreads(), 1, body);
  } else {
    std::vector<Part> parts(ranges.size());
    ParallelFor(ranges.size(), config.ResolvedThreads(), 1,
                [&](size_t k) { parts[k] = body(k); });
    if (parts.size() == 1) return std::move(parts[0]);
    Part out;
    size_t total = 0;
    for (const Part& part : parts) total += part.size();
    out.reserve(total);
    for (Part& part : parts) {
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    return out;
  }
}

}  // namespace xmlac

#endif  // XMLAC_COMMON_SHARD_H_
