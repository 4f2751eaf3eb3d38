#pragma once

/// \file thread_pool.h
/// \brief Fixed-size thread pool for the parallel candidate-evaluation
/// fan-out, the staged artifact-prepare phase and the search's per-member
/// model training. No external dependencies:
/// std::jthread workers + one shared work-index counter per ParallelFor.
///
/// Design constraints (see docs/ARCHITECTURE.md, "Parallel execution" and
/// "Failure semantics"):
///  - ParallelFor(n, fn) runs fn(0..n-1) exactly once each and blocks until
///    every call returned. Tasks write disjoint pre-sized output slots, so
///    results are deterministic regardless of scheduling.
///  - Workers claim *chunks* of consecutive indices, not single indices: one
///    atomic RMW buys chunk_size tasks, so candidate pools much larger than
///    the thread count do not serialize on the counter. The chunk size only
///    changes which thread runs an index, never what the index computes, so
///    output bytes are identical at every chunk size.
///  - A pool constructed with num_threads <= 1 spawns no workers at all;
///    ParallelFor then degenerates to a plain inline loop on the caller
///    thread — the exact single-threaded code path, byte for byte.
///  - The caller thread participates in the fan-out (a pool of T threads
///    spawns T-1 workers), so ThreadPool(2) really uses 2 cores, not 3.
///  - **Failure = Status, not poison.** A task body that throws is caught
///    where it ran; the first failure is recorded and returned as a
///    kInternal Status from ParallelFor, and — unlike the retired
///    exception-poisoning contract — sibling tasks still run to completion,
///    so a batch with one failing index still produces every other slot.
///  - **Cooperative limits.** An optional ExecContext is checked at every
///    chunk-claim boundary; a tripped deadline/cancellation *does* stop the
///    batch (remaining chunks are abandoned, in-flight chunks finish), and
///    ParallelFor returns the kCancelled/kDeadlineExceeded Status. Limits
///    are therefore honored within one chunk of work.
///  - **Who may call it.** The query planner, the morsel executor,
///    FittedAugmenter and FeatureEvaluator::ScoreEach fan out on the pool.
///    Nothing under src/ml or src/stats may call it: model training and
///    the proxy statistics run *inside* ScoreEach's tasks, and ParallelFor
///    is not reentrant.
///  - **Placement.** Each worker starts on its own CPU (the i-th allowed
///    CPU after the constructing thread's) and then gets its full affinity
///    mask back, so the kernel may still migrate it. This keeps the pool
///    from starting out stacked on its creator's CPU.
///  - ParallelForStages runs dependency layers: within a stage tasks are
///    independent and fan out in parallel; between stages the caller thread
///    runs a sequential `publish` callback (a barrier), which is where the
///    ArtifactStore commits built artifacts before dependents read them. A
///    stage that fails (task error or tripped context) returns *before* its
///    publish runs — a failed stage can never commit partial state.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"

namespace featlib {

class ThreadPool {
 public:
  /// `num_threads` <= 1 means serial (no workers). The pool is fixed-size
  /// for its lifetime.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute work, caller included.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n); returns after all calls completed.
  /// Chunks of consecutive indices are claimed dynamically (atomic counter);
  /// `chunk` 0 picks an automatic size from n and the thread count (several
  /// chunks per thread, so per-index cost may vary freely without stragglers
  /// idling the pool). Concurrent ParallelFor calls from different threads
  /// are serialized (one batch owns the workers at a time — relevant because
  /// GlobalThreadPool() is shared by every library entry point). Not
  /// reentrant: do not call ParallelFor from inside fn.
  ///
  /// Returns OK when every index ran and none threw. A throwing fn yields
  /// the first failure as a kInternal Status *after all other indices still
  /// completed*. A tripped `ctx` (cancelled / past deadline) abandons the
  /// unclaimed remainder and returns its Status; `ctx` may be null.
  Status ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                     size_t chunk = 0, const ExecContext* ctx = nullptr);

  /// One dependency layer of a staged computation.
  struct Stage {
    /// Number of independent tasks in this stage.
    size_t n = 0;
    /// Task body; invoked exactly once per index in [0, n), possibly in
    /// parallel. Must only read state published by earlier stages.
    std::function<void(size_t)> run;
    /// Sequential barrier step, executed on the caller thread after every
    /// `run` of this stage returned and before the next stage starts. May be
    /// null. This is where single-writer caches commit built artifacts.
    std::function<void()> publish;
  };

  /// Runs the stages in order: all tasks of stage k complete (parallel,
  /// chunk-claimed) before its publish runs, and publish completes before
  /// stage k+1 starts. The completion handshake of each ParallelFor provides
  /// the happens-before edge from every task write to the publish step and
  /// from the publish to the next stage's tasks.
  ///
  /// On a stage failure (task exception or tripped `ctx`) returns that
  /// Status immediately: the failed stage's publish and every later stage
  /// are skipped, so no partial state of the failed layer is ever committed.
  Status ParallelForStages(const std::vector<Stage>& stages,
                           const ExecContext* ctx = nullptr);

 private:
  /// One fan-out, published to the workers by pointer; lives on the
  /// ParallelFor caller's stack. Workers acknowledge completion so the
  /// caller knows when the job may be destroyed. A throwing fn records the
  /// first failure into `error` but does not stop siblings; a tripped
  /// ExecContext sets `stopped` so everyone abandons the unclaimed
  /// remainder within one chunk.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    size_t chunk = 1;               // indices claimed per atomic RMW
    uint64_t id = 0;
    const ExecContext* ctx = nullptr;
    std::atomic<size_t> next{0};    // next unclaimed index
    std::atomic<bool> stopped{false};  // ctx tripped: abandon the remainder
    Status error;                   // first failure (guarded by mu_)
    int acked = 0;                  // workers done claiming (guarded by mu_)
  };

  /// Claims and runs chunks of `job` until it is exhausted or its context
  /// trips; records failures into the job. Returns normally always.
  void RunClaimLoop(Job* job);

  /// Records `status` as the job's error if it is the first (mu_-guarded).
  void RecordError(Job* job, Status status);

  void WorkerLoop(std::stop_token stop);

  std::mutex run_mu_;  // serializes concurrent ParallelFor callers
  std::mutex mu_;
  std::condition_variable_any work_cv_;  // workers wait for a new job
  std::condition_variable done_cv_;      // caller waits for all acks
  Job* job_ = nullptr;                   // guarded by mu_
  uint64_t next_job_id_ = 0;
  std::vector<std::jthread> workers_;
};

/// The process-wide shared pool, sized once at first use from
/// FeatAugConfig::Global() (see common/config.h). Never returns nullptr; a
/// 1-thread configuration yields a workerless pool that runs inline.
ThreadPool* GlobalThreadPool();

}  // namespace featlib
