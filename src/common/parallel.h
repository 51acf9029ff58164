#ifndef XMLAC_COMMON_PARALLEL_H_
#define XMLAC_COMMON_PARALLEL_H_

// Minimal fork-join parallel-for.
//
// Threads are spawned per call and joined before return, so nested use
// (subject fan-out calling per-rule fan-out calling shard fan-out) cannot
// deadlock the way a shared fixed-size pool would.  The spawn cost is not
// noise next to small reads: on perfbench serve_commit (seed 2, 15 s runs,
// 4-vCPU host) read p50 was 396 us with threads spawned per call, 337 us
// with a persistent pool, and 258-260 us with the structural-eval fan-out
// threshold raised out of reach or fan-out off.  A persistent pool whose
// waiting callers run queued tasks (no nested deadlock) is ROADMAP item 2.
//
// The caller's thread participates, and two pieces of obs context propagate
// to the spawned workers:
//   - the caller's metrics registry (MetricsRegistry is thread-safe), and
//   - the caller's WorkerRingPool, if one is installed: each spawned worker
//     claims a free SPSC event ring for the duration of the loop, so spans
//     and counters emitted inside the body reach the flight recorder
//     instead of being dropped.  Workers that find the pool empty (or no
//     pool installed) run ring-less.
//
// Work is claimed in contiguous index ranges of `grain` elements per
// fetch_add, so fine-grained loops (per-bitmap-word, per-row) do not pay
// one atomic RMW per element.  grain == 0 picks ~n/(8*threads): 8 chunks
// per worker balances skewed per-element cost against contention.

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace xmlac {

inline size_t DefaultParallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  return hw > 16 ? 16 : hw;
}

// Runs body(i) for every i in [0, n), on up to `threads` OS threads
// (0 = DefaultParallelism()), claiming `grain` consecutive indices per
// atomic increment (0 = auto).  body must be thread-safe; iteration order
// is unspecified.  Falls back to a plain loop when n or threads is <= 1.
inline void ParallelFor(size_t n, size_t threads, size_t grain,
                        const std::function<void(size_t)>& body) {
  if (threads == 0) threads = DefaultParallelism();
  if (threads > n) threads = n;
  if (n == 0) return;
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (grain == 0) grain = n / (8 * threads);
  if (grain == 0) grain = 1;
  std::atomic<size_t> next{0};
  obs::MetricsRegistry* metrics = obs::CurrentMetrics();
  obs::WorkerRingPool* rings = obs::CurrentWorkerRingPool();
  auto worker = [&](bool spawned) {
    obs::ScopedMetrics metrics_ctx(metrics);
    // Only spawned threads claim a pool ring; the caller keeps its own.
    obs::ScopedWorkerRing ring_ctx(spawned ? rings : nullptr);
    for (size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
         begin < n; begin = next.fetch_add(grain, std::memory_order_relaxed)) {
      size_t end = begin + grain < n ? begin + grain : n;
      for (size_t i = begin; i < end; ++i) body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (size_t t = 1; t < threads; ++t) {
    pool.emplace_back([&worker] { worker(true); });
  }
  worker(false);  // The caller participates.
  for (std::thread& t : pool) t.join();
}

// Auto-grain overload.
inline void ParallelFor(size_t n, size_t threads,
                        const std::function<void(size_t)>& body) {
  ParallelFor(n, threads, 0, body);
}

}  // namespace xmlac

#endif  // XMLAC_COMMON_PARALLEL_H_
