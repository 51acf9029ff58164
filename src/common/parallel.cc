#include "common/parallel.h"

#include <condition_variable>
#include <deque>
#include <mutex>

namespace xmlac::parallel_internal {
namespace {

// One ForkJoin call, on its caller's stack.  `pending` and `running` are
// guarded by Pool::mu_.
struct Job {
  const std::function<void(bool)>* ticket = nullptr;
  // The job whose loop the forking thread was running, or null: the chain
  // a waiting caller follows to decide which tickets it may help with.
  const Job* parent = nullptr;
  size_t pending = 0;  // tickets queued, not yet picked up
  size_t running = 0;  // tickets being run by threads other than the caller
};

// The job whose loop this thread is running (its own, or a ticket's).
thread_local const Job* tls_job = nullptr;

class JobScope {
 public:
  explicit JobScope(const Job* job) : previous_(tls_job) { tls_job = job; }
  ~JobScope() { tls_job = previous_; }
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  const Job* previous_;
};

bool IsBeneath(const Job* job, const Job* ancestor) {
  for (const Job* p = job->parent; p != nullptr; p = p->parent) {
    if (p == ancestor) return true;
  }
  return false;
}

class Pool {
 public:
  explicit Pool(size_t workers) {
    // Detached: the pool lives until the process exits.
    for (size_t i = 0; i < workers; ++i) {
      std::thread([this] { WorkerLoop(); }).detach();
    }
  }

  void ForkJoin(size_t helpers, const std::function<void(bool)>& ticket) {
    Job job;
    job.ticket = &ticket;
    job.parent = tls_job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.pending = helpers;
      queue_.push_back(&job);
      if (idle_ > 0) {
        if (helpers == 1) {
          work_cv_.notify_one();
        } else {
          work_cv_.notify_all();
        }
      }
      // A caller waiting on an ancestor job may help with this one.
      if (waiting_ > 0) wait_cv_.notify_all();
    }
    {
      JobScope scope(&job);
      ticket(false);
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (job.pending > 0) {
      job.pending = 0;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == &job) {
          queue_.erase(it);
          break;
        }
      }
    }
    while (job.running > 0) {
      if (Job* beneath = TakeTicket(&job)) {
        RunTicket(lock, beneath, /*pooled=*/false);
        continue;
      }
      ++waiting_;
      wait_cv_.wait(lock);
      --waiting_;
    }
  }

 private:
  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (Job* job = TakeTicket(nullptr)) {
        RunTicket(lock, job, /*pooled=*/true);
        continue;
      }
      ++idle_;
      work_cv_.wait(lock);
      --idle_;
    }
  }

  // Takes one ticket of the oldest queued job beneath `ancestor` (any job
  // when `ancestor` is null).  mu_ held.
  Job* TakeTicket(const Job* ancestor) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      Job* job = *it;
      if (ancestor != nullptr && !IsBeneath(job, ancestor)) continue;
      if (--job->pending == 0) queue_.erase(it);
      ++job->running;
      return job;
    }
    return nullptr;
  }

  // Runs a taken ticket with mu_ released; mu_ held on entry and exit.
  void RunTicket(std::unique_lock<std::mutex>& lock, Job* job, bool pooled) {
    lock.unlock();
    {
      JobScope scope(job);
      (*job->ticket)(pooled);
    }
    lock.lock();
    if (--job->running == 0 && waiting_ > 0) wait_cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // idle pool workers
  std::condition_variable wait_cv_;  // callers waiting on running tickets
  std::deque<Job*> queue_;           // jobs with pending tickets, oldest first
  size_t idle_ = 0;
  size_t waiting_ = 0;
};

Pool& GlobalPool() {
  // Never destroyed, so a ParallelFor from a static destructor stays safe.
  static Pool* pool = new Pool(ParallelPoolWorkers());
  return *pool;
}

}  // namespace

void ForkJoin(size_t helpers, const std::function<void(bool pooled)>& ticket) {
  GlobalPool().ForkJoin(helpers, ticket);
}

}  // namespace xmlac::parallel_internal
