#ifndef XMLAC_COMMON_PARALLEL_H_
#define XMLAC_COMMON_PARALLEL_H_

// Fork-join parallel-for over one process-wide pool of persistent workers.
//
// The pool holds DefaultParallelism() - 1 threads, started on first use and
// never stopped.  A ParallelFor queues up to `threads - 1` tickets (each
// ticket lets one pool worker join the loop), then the calling thread runs
// the loop itself.  When the caller runs out of chunks it withdraws every
// ticket no worker has picked up, and waits only for the workers already
// running its chunks.  While it waits it runs queued tickets of jobs forked
// beneath its own job (help while waiting, as in Cilk/TBB work stealing),
// and never a ticket of an unrelated job: a small read must not pick up a
// commit's multi-millisecond subject-level ticket.
//
// That makes nesting (subject fan-out calling per-rule fan-out calling shard
// fan-out) deadlock-free: every loop finishes on its caller alone if no
// worker is free, and a waiter only ever waits on deeper work.  Live
// threads stay at the pool size plus the callers, however deep the nesting.
//
// Two pieces of obs context propagate to the pool workers, installed for
// each ticket a worker runs:
//   - the caller's metrics registry (MetricsRegistry is thread-safe), and
//   - the caller's WorkerRingPool, if one is installed: a pool worker claims
//     a free SPSC event ring for the duration of the ticket, so spans and
//     counters emitted inside the body reach the flight recorder.  A thread
//     helping while it waits keeps its own ring.  Each pool worker holds at
//     most one ring at a time, so a WorkerRingPool with at least
//     ParallelPoolWorkers() rings never runs dry.
//
// Work is claimed in contiguous index ranges of `grain` elements per
// fetch_add, so fine-grained loops (per-bitmap-word, per-row) do not pay
// one atomic RMW per element.  grain == 0 picks ~n/(8*threads): 8 chunks
// per participant balances skewed per-element cost against contention.

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace xmlac {

// Hardware threads, capped at 16; read once (hardware_concurrency() is a
// sysfs read, and shard planning asks on every query).
inline size_t DefaultParallelism() {
  static const size_t parallelism = [] {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 4;
    return static_cast<size_t>(hw > 16 ? 16 : hw);
  }();
  return parallelism;
}

// Number of persistent pool workers: DefaultParallelism() - 1 (the caller
// of a loop is always the remaining participant).
inline size_t ParallelPoolWorkers() { return DefaultParallelism() - 1; }

namespace parallel_internal {

// Runs ticket(false) on the calling thread and offers `helpers` tickets to
// the pool; a ticket picked up by an idle pool worker runs as ticket(true),
// one run by a thread helping while it waits as ticket(false).  Returns once
// the caller's run and every started ticket have returned; tickets still
// queued by then are withdrawn.  A ticket must return promptly once the
// shared work is exhausted, since any number of them (0..helpers) run.
void ForkJoin(size_t helpers, const std::function<void(bool pooled)>& ticket);

}  // namespace parallel_internal

// Runs body(i) for every i in [0, n) on the caller plus up to `threads - 1`
// pool workers (0 = DefaultParallelism(); values above the pool size are
// capped at ParallelPoolWorkers() + 1), claiming `grain` consecutive indices
// per atomic increment (0 = auto).  body must be thread-safe; iteration
// order is unspecified.  Falls back to a plain loop when n or threads is
// <= 1.
inline void ParallelFor(size_t n, size_t threads, size_t grain,
                        const std::function<void(size_t)>& body) {
  if (threads == 0) threads = DefaultParallelism();
  if (threads > n) threads = n;
  if (threads > ParallelPoolWorkers() + 1) threads = ParallelPoolWorkers() + 1;
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
  parallel_internal::ForkJoin(threads - 1, [&](bool pooled) {
    obs::ScopedMetrics metrics_ctx(metrics);
    // Only pool workers claim a ring; the caller and helpers keep their own.
    obs::ScopedWorkerRing ring_ctx(pooled ? rings : nullptr);
    for (size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
         begin < n; begin = next.fetch_add(grain, std::memory_order_relaxed)) {
      size_t end = begin + grain < n ? begin + grain : n;
      for (size_t i = begin; i < end; ++i) body(i);
    }
  });
}

// Auto-grain overload.
inline void ParallelFor(size_t n, size_t threads,
                        const std::function<void(size_t)>& body) {
  ParallelFor(n, threads, 0, body);
}

}  // namespace xmlac

#endif  // XMLAC_COMMON_PARALLEL_H_
