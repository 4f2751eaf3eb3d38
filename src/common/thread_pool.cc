#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/config.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace featlib {

namespace {

/// The CPU the calling thread runs on, or -1 where that is unknown.
int CurrentCpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Moves the calling thread to the CPU `offset` places after `home` among
/// the CPUs it may run on (wrapping around), then lifts the restriction
/// again: the thread starts out there but stays free to migrate. Best
/// effort; does nothing where CPU affinity is unavailable.
void StartAfterCpu(int home, int offset) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (home < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  const size_t home_rank = static_cast<size_t>(
      std::find(cpus.begin(), cpus.end(), home) - cpus.begin()) % cpus.size();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(home_rank + static_cast<size_t>(offset)) % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)home;
  (void)offset;
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(static_cast<size_t>(workers));
  // Worker i starts on the i-th CPU after the constructing thread's. Left to
  // the kernel, new threads start next to their creator; on a busy
  // virtualized 4-CPU host the whole pool and the fit thread were seen
  // sharing one CPU for a second or more of a fit (zero migrations, ~5x the
  // usual involuntary switches), which made a pooled fit's time bimodal.
  const int home = CurrentCpu();
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, home, i](std::stop_token stop) {
      StartAfterCpu(home, i + 1);
      WorkerLoop(stop);
    });
  }
}

ThreadPool::~ThreadPool() {
  // jthread destructors request stop and join; work_cv_ is a
  // condition_variable_any waiting on the stop token, so workers wake.
}

namespace {

/// Converts an in-flight exception into the Status a task failure surfaces
/// as. Exceptions are reserved for programmer errors (FEAT_CHECK aborts), so
/// anything caught here is reported as kInternal.
Status StatusFromCurrentException() {
  try {
    throw;
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-std::exception value");
  }
}

}  // namespace

void ThreadPool::RecordError(Job* job, Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (job->error.ok()) job->error = std::move(status);
}

void ThreadPool::RunClaimLoop(Job* job) {
  const size_t chunk = job->chunk;
  for (;;) {
    if (job->stopped.load(std::memory_order_relaxed)) return;
    if (job->ctx != nullptr) {
      Status limit = job->ctx->Check();
      if (!limit.ok()) {
        // Tripped limit: everyone abandons the unclaimed remainder. Unlike a
        // task failure (siblings keep running), a deadline/cancellation is a
        // request to stop doing work at all.
        RecordError(job, std::move(limit));
        job->stopped.store(true, std::memory_order_relaxed);
        return;
      }
    }
    const size_t begin = job->next.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= job->n) return;
    const size_t end = std::min(begin + chunk, job->n);
    for (size_t i = begin; i < end; ++i) {
      try {
        (*job->fn)(i);
      } catch (...) {
        // Record the first failure and keep going: sibling tasks write
        // disjoint slots, so one bad index must not void the others' work.
        RecordError(job, StatusFromCurrentException());
      }
    }
  }
}

void ThreadPool::WorkerLoop(std::stop_token stop) {
  uint64_t last_job_id = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, stop, [&] {
        return job_ != nullptr && job_->id != last_job_id;
      });
      if (stop.stop_requested()) return;
      job = job_;
      last_job_id = job->id;
    }
    RunClaimLoop(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++job->acked;
    }
    done_cv_.notify_one();
  }
}

Status ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                               size_t chunk, const ExecContext* ctx) {
  if (n == 0) return ExecContext::CheckFor(ctx);
  if (workers_.empty() || n == 1) {
    // The exact single-threaded code path: plain loop, ascending order.
    // Failure semantics mirror the parallel path — first error recorded,
    // siblings still run; a tripped context abandons the remainder.
    Status first_error;
    for (size_t i = 0; i < n; ++i) {
      if (ctx != nullptr) {
        Status limit = ctx->Check();
        if (!limit.ok()) return first_error.ok() ? limit : first_error;
      }
      try {
        fn(i);
      } catch (...) {
        if (first_error.ok()) first_error = StatusFromCurrentException();
      }
    }
    return first_error;
  }
  if (chunk == 0) {
    // Several chunks per thread: large pools stop hammering the shared
    // counter, while slow indices can still be balanced across threads.
    constexpr size_t kChunksPerThread = 4;
    chunk = std::max<size_t>(
        1, n / (static_cast<size_t>(num_threads()) * kChunksPerThread));
  }
  // One batch owns the workers at a time: a second caller publishing its
  // job before every worker observed the first would strand the first
  // caller waiting for acks that can never arrive.
  std::lock_guard<std::mutex> run_lock(run_mu_);
  Job job;
  job.fn = &fn;
  job.n = n;
  job.chunk = chunk;
  job.ctx = ctx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.id = ++next_job_id_;
    job_ = &job;
  }
  work_cv_.notify_all();
  // The caller claims chunks alongside the workers; its failures are
  // recorded like a worker's so the job outlives every reference to it.
  RunClaimLoop(&job);
  // Wait until every worker acknowledged (stopped touching `job`) before the
  // stack frame holding it unwinds. Acks imply all indices completed or
  // were abandoned: a worker acks only after its claim loop returned.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job.acked == static_cast<int>(workers_.size());
    });
    job_ = nullptr;
  }
  return job.error;
}

Status ThreadPool::ParallelForStages(const std::vector<Stage>& stages,
                                     const ExecContext* ctx) {
  for (const Stage& stage : stages) {
    if (stage.n > 0) {
      FEAT_RETURN_NOT_OK(ParallelFor(stage.n, stage.run, 0, ctx));
    }
    // A publish-only stage still honors a tripped context: nothing of a
    // cancelled batch may be committed.
    FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
    // ParallelFor's completion handshake ordered every task write before
    // this point; publish runs alone on the caller thread.
    if (stage.publish) stage.publish();
  }
  return Status::OK();
}

ThreadPool* GlobalThreadPool() {
  static ThreadPool pool(FeatAugConfig::Global().ResolvedNumThreads());
  return &pool;
}

}  // namespace featlib
