// The fork-join pool behind ParallelFor (common/parallel.h): every index
// runs once, nesting completes with the live thread count capped at the
// pool size, a caller finishes its own loop when every pool worker is busy
// elsewhere, a waiting caller helps only with jobs forked beneath its own,
// and pool workers report into the caller's metrics registry.
//
// The concurrency tests synchronize with gates and counters only (no
// sleeps), so a wrong pool either fails an assertion or hangs.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace xmlac {
namespace {

// A one-shot gate: Wait() blocks until Open().
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// A counter threads can block on until it reaches a value.
class Counter {
 public:
  // Returns the count before this arrival.
  size_t Arrive() {
    std::lock_guard<std::mutex> lock(mu_);
    size_t before = count_++;
    cv_.notify_all();
    return before;
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

size_t LiveThreads() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (size_t n : {0u, 1u, 7u, 100u, 1000u}) {
    for (size_t threads : {0u, 1u, 2u, 4u, 64u}) {
      for (size_t grain : {0u, 1u, 3u, 64u, 100000u}) {
        std::vector<std::atomic<int>> hits(n);
        ParallelFor(n, threads, grain, [&](size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads
                                       << " grain=" << grain << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelForTest, SerialPathPreservesOrder) {
  // threads=1 must run in index order on the caller thread.
  std::vector<size_t> order;
  ParallelFor(100, 1, 7, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelPoolTest, NestedLoopsCapLiveThreads) {
  // A sanitizer runtime may start a helper thread on the first thread
  // creation (TSan does); count it in the baseline, not against the pool.
  std::thread([] {}).join();
  const size_t baseline = LiveThreads();
  std::atomic<size_t> max_live{0};
  std::vector<std::atomic<int>> hits(4 * 4 * 4);
  for (int round = 0; round < 20; ++round) {
    ParallelFor(4, 4, 1, [&](size_t i) {
      ParallelFor(4, 4, 1, [&](size_t j) {
        ParallelFor(4, 4, 1, [&](size_t k) {
          hits[(i * 4 + j) * 4 + k].fetch_add(1, std::memory_order_relaxed);
          size_t live = LiveThreads();
          size_t seen = max_live.load(std::memory_order_relaxed);
          while (live > seen && !max_live.compare_exchange_weak(seen, live)) {
          }
        });
      });
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 20);
  EXPECT_LE(max_live.load(), baseline + ParallelPoolWorkers());
}

TEST(ParallelPoolTest, CallerFinishesWhileEveryWorkerIsBlocked) {
  const size_t workers = ParallelPoolWorkers();
  if (workers == 0) GTEST_SKIP() << "single-CPU host: no pool workers";
  Gate release;
  Counter arrived;
  // Another caller's job occupies every pool worker (and its own caller).
  std::thread other([&] {
    ParallelFor(workers + 1, workers + 1, 1, [&](size_t) {
      arrived.Arrive();
      release.Wait();
    });
  });
  arrived.WaitFor(workers + 1);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(hits.size(), 0, 1, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  release.Open();
  other.join();
}

TEST(ParallelPoolTest, WaiterHelpsOnlyWithJobsBeneathItsOwn) {
  // Thread A's job JA holds every pool worker.  One of them (the forker)
  // forks JC beneath JA; the others block.  Meanwhile this thread's
  // unrelated job JB has a ticket queued ahead of JC's.  A, waiting on JA,
  // must skip JB's ticket and run JC's — the only thread free to run it.
  const size_t workers = ParallelPoolWorkers();
  if (workers == 0) GTEST_SKIP() << "single-CPU host: no pool workers";
  Gate jb_queued, jc_done, release;
  Counter ja_workers, jc_indices;
  std::atomic<std::thread::id> a_id{};
  std::vector<std::atomic<std::thread::id>> jb_runners(2), jc_runners(2);

  std::thread a([&] {
    a_id = std::this_thread::get_id();
    ParallelFor(workers + 1, workers + 1, 1, [&](size_t) {
      if (std::this_thread::get_id() == a_id.load()) {
        // Hold A's one index until every worker holds one of the others.
        ja_workers.WaitFor(workers);
        return;
      }
      if (ja_workers.Arrive() != 0) {
        release.Wait();
        return;
      }
      jb_queued.Wait();
      ParallelFor(2, 2, 1, [&](size_t j) {
        jc_runners[j] = std::this_thread::get_id();
        jc_indices.Arrive();
        jc_indices.WaitFor(2);  // the other index runs on another thread
      });
      jc_done.Open();
    });
  });

  ja_workers.WaitFor(workers);
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<bool> blocked_once{false};
  ParallelFor(2, 2, 1, [&](size_t j) {
    jb_runners[j] = std::this_thread::get_id();
    if (std::this_thread::get_id() == me && !blocked_once.exchange(true)) {
      // JB's other ticket is queued, and no pool worker is free.
      jb_queued.Open();
      jc_done.Wait();
      release.Open();
    }
  });
  a.join();

  for (const auto& runner : jb_runners) EXPECT_NE(runner.load(), a_id.load());
  EXPECT_TRUE(jc_runners[0].load() == a_id.load() ||
              jc_runners[1].load() == a_id.load());
}

TEST(ParallelPoolTest, PoolWorkersReportIntoCallersRegistry) {
  const size_t workers = ParallelPoolWorkers();
  if (workers == 0) GTEST_SKIP() << "single-CPU host: no pool workers";
  obs::MetricsRegistry registry;
  std::mutex mu;
  std::set<std::thread::id> threads;
  Counter arrived;
  {
    obs::ScopedMetrics metrics(&registry);
    ParallelFor(workers + 1, workers + 1, 1, [&](size_t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      }
      // Every participant holds one index, so every pool worker reports.
      arrived.Arrive();
      arrived.WaitFor(workers + 1);
      obs::IncrementCounter("parallel_test.bodies");
    });
  }
  EXPECT_EQ(threads.size(), workers + 1);
  EXPECT_EQ(registry.Snapshot().counters["parallel_test.bodies"], workers + 1);
  // The pool workers do not keep the registry installed between tickets.
  ParallelFor(workers + 1, workers + 1, 1,
              [&](size_t) { obs::IncrementCounter("parallel_test.bodies"); });
  EXPECT_EQ(registry.Snapshot().counters["parallel_test.bodies"], workers + 1);
}

}  // namespace
}  // namespace xmlac
