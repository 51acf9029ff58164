#ifndef XMLAC_COMMON_SHARD_H_
#define XMLAC_COMMON_SHARD_H_

// Exchange-style shard planner (docs/performance.md, "Shard-parallel
// execution").
//
// Every parallel site in the engine follows the same shape: partition an
// ordered input (a start-sorted context set, the words of a node bitmap,
// the row range of a table, the top-level subtrees of a document) into
// contiguous ranges, run the ranges through ParallelFor (the caller plus
// persistent pool workers), and merge the per-range outputs by
// concatenating them in range order.  Because every
// shard key is aligned with the output order — interval start labels are
// pre-order, bitmap words own disjoint id ranges, row indices are scan
// order — concatenation IS the order-preserving merge, and the sharded
// result is byte-identical to the serial one (the differential harness
// checks this on every fuzz sweep).
//
// PlanShards is the one policy point: it decides between a single serial
// range and k contiguous ranges based on the input size (or the call site's
// estimate of its work), the configured work threshold, and
// DefaultParallelism().

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/parallel.h"

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
  // default (each site knows its own per-element cost; a bitmap word is
  // ~1ns of work, an XPath context node can be microseconds).
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

}  // namespace xmlac

#endif  // XMLAC_COMMON_SHARD_H_
