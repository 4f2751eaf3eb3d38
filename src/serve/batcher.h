#pragma once

/// \file batcher.h
/// \brief Admission/batching policy: coalesces small Transform requests for
/// the same plan that queue up while the workers are busy into one
/// TransformManyIsolated fan-out.
///
/// Serving traffic arrives as many small independent batches. The batcher
/// keeps one FIFO of per-plan groups. Submit appends a request to its
/// plan's open group (the plan's newest queued group), or opens a new
/// group when there is none, the open one holds `max_batch_size` requests,
/// or the open one is pinned to a different handle (the registry reloaded
/// the plan). A free worker pops the oldest group at once and executes it
/// as a single TransformManyIsolated call: one fan-out over the pool, with
/// per-slot failure isolation mapping each slot's Status back to its own
/// request. There is no timer: a lone request on an idle worker runs
/// immediately, and requests coalesce exactly when they arrive while every
/// worker is busy.
///
/// **Deadlines.** Each request may carry its own deadline. It is honored at
/// three points: a request whose deadline passed while queued is failed
/// with kDeadlineExceeded before any work starts (it never poisons its
/// group); the group's ExecContext deadline is the *latest* finite request
/// deadline (so the tightest request cannot kill its siblings' work — a
/// batch-wide ExecContext trip fails the whole call); and after execution,
/// a slot whose own deadline passed during the fan-out reports
/// kDeadlineExceeded instead of a result that arrived too late.
///
/// **Happens-before.** The callback for a request runs exactly once, on a
/// batcher worker thread, after the fan-out for its group completed; the
/// enqueue in Submit synchronizes-with the dequeue in the worker (one
/// mutex), and TransformManyIsolated's internal pool join orders every
/// kernel write before the callback reads the result. Callbacks must not
/// call Submit (they run on the worker that would execute it).
///
/// Shutdown() stops admission (Submit then fails kCancelled("draining")),
/// executes every queued group, and joins the workers — every request
/// admitted before Shutdown gets its callback before Shutdown returns,
/// which is exactly the drain step of the server's SIGTERM handling.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/augmenter.h"

namespace featlib {
namespace serve {

struct BatcherOptions {
  /// A queued group takes at most this many requests; the next request
  /// for its plan opens a new group.
  size_t max_batch_size = 16;
  /// Worker threads executing flushed groups. Distinct plans execute
  /// concurrently up to this limit; one plan's group is one fan-out.
  int num_workers = 2;
  /// Cooperative ExecContext memory budget applied to each fan-out
  /// (the group's combined output columns); 0 = unlimited. A tripped
  /// budget fails the whole group with kResourceExhausted.
  size_t memory_budget_bytes = 0;
};

class Batcher {
 public:
  using Clock = std::chrono::steady_clock;
  /// Exactly-once completion callback: per-slot Status + transformed table
  /// (meaningless unless the status is OK).
  using Callback = std::function<void(Status, Table)>;

  struct Request {
    /// Pinned handle the request executes against (see PlanRegistry —
    /// holding it here keeps an evicted plan's store alive mid-flight).
    std::shared_ptr<const FittedAugmenter> handle;
    Table batch;
    /// Absolute per-request deadline; Clock::time_point::max() = none.
    Clock::time_point deadline = Clock::time_point::max();
    Callback done;
  };

  explicit Batcher(BatcherOptions options = {});
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues a request for `plan_name`. Queued requests sharing a plan
  /// name and a handle coalesce. Fails immediately — without invoking
  /// the callback — when the batcher is draining.
  Status Submit(const std::string& plan_name, Request request);

  /// Stops admission, executes every queued group, waits for every
  /// in-flight callback, joins the workers. Idempotent.
  void Shutdown();

  /// \name Coalescing stats (tests and the bench assert merging happens).
  /// @{
  size_t num_requests() const;
  size_t num_flushes() const;
  /// Flushes that merged >= 2 requests into one fan-out.
  size_t num_coalesced_flushes() const;
  size_t max_flush_size() const;
  /// @}

 private:
  /// Queued requests for one plan, all pinned to the same handle.
  struct Group {
    std::string plan;
    std::vector<Request> requests;
  };

  void WorkerLoop();
  void ExecuteGroup(Group group);

  const BatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  /// Oldest group first; a plan's open group is its newest entry.
  std::deque<Group> queue_;
  bool draining_ = false;

  size_t num_requests_ = 0;
  size_t num_flushes_ = 0;
  size_t num_coalesced_flushes_ = 0;
  size_t max_flush_size_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace featlib
