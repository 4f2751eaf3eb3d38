#include "serve/batcher.h"

#include <algorithm>

namespace featlib {
namespace serve {

Batcher::Batcher(BatcherOptions options) : options_(options) {
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Batcher::~Batcher() { Shutdown(); }

Status Batcher::Submit(const std::string& plan_name, Request request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return Status::Cancelled("batcher is draining; request refused");
  }
  ++num_requests_;
  // The plan's open group is its newest queued group. A full group, or one
  // pinned to another handle (the registry reloaded the plan), takes no
  // more requests.
  auto open = std::find_if(queue_.rbegin(), queue_.rend(),
                           [&](const Group& g) { return g.plan == plan_name; });
  if (open == queue_.rend() ||
      open->requests.size() >= options_.max_batch_size ||
      open->requests.front().handle != request.handle) {
    queue_.push_back(Group{plan_name, {}});
    open = queue_.rbegin();
    work_cv_.notify_one();
  }
  open->requests.push_back(std::move(request));
  return Status::OK();
}

void Batcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
    if (queue_.empty()) return;  // draining and fully drained
    Group group = std::move(queue_.front());
    queue_.pop_front();
    ++num_flushes_;
    if (group.requests.size() >= 2) ++num_coalesced_flushes_;
    max_flush_size_ = std::max(max_flush_size_, group.requests.size());
    lock.unlock();
    ExecuteGroup(std::move(group));
    lock.lock();
  }
}

void Batcher::ExecuteGroup(Group group) {
  const Clock::time_point now = Clock::now();
  // Slot requests that expired while queued fail up front and are
  // excluded from the fan-out; live slots map to positions in `batches`.
  std::vector<size_t> live;
  std::vector<Table> batches;
  Clock::time_point latest_deadline = Clock::time_point::min();
  bool all_have_deadlines = true;
  for (size_t i = 0; i < group.requests.size(); ++i) {
    Request& req = group.requests[i];
    if (req.deadline != Clock::time_point::max()) {
      latest_deadline = std::max(latest_deadline, req.deadline);
      if (req.deadline <= now) {
        req.done(Status::DeadlineExceeded(
                     "request deadline expired while queued"),
                 Table());
        continue;
      }
    } else {
      all_have_deadlines = false;
    }
    live.push_back(i);
    batches.push_back(req.batch);
  }
  if (live.empty()) return;

  // The group context's deadline is the latest request deadline: a batch-
  // wide ExecContext trip fails every slot, so the tightest request must
  // not be the one to pull the trigger — it is late-checked below instead.
  ExecContext ctx;
  const FittedAugmenter& handle = *group.requests.front().handle;
  if (all_have_deadlines) ctx.set_deadline(latest_deadline);
  if (options_.memory_budget_bytes > 0) {
    ctx.set_memory_budget_bytes(options_.memory_budget_bytes);
  }

  auto results = handle.TransformManyIsolated(batches, &ctx);
  const Clock::time_point done_at = Clock::now();
  if (!results.ok()) {
    // Batch-wide failure (tripped group context): every live slot reports
    // it, with per-request deadline attribution where that is the cause.
    for (size_t i : live) {
      Request& req = group.requests[i];
      if (req.deadline <= done_at) {
        req.done(Status::DeadlineExceeded("request deadline exceeded"),
                 Table());
      } else {
        req.done(results.status(), Table());
      }
    }
    return;
  }
  std::vector<FittedAugmenter::BatchResult>& slots = results.value();
  FEAT_CHECK(slots.size() == live.size(),
             "TransformManyIsolated returned wrong slot count");
  for (size_t s = 0; s < live.size(); ++s) {
    Request& req = group.requests[live[s]];
    if (req.deadline <= done_at) {
      req.done(
          Status::DeadlineExceeded("request deadline exceeded during fan-out"),
          Table());
    } else if (slots[s].status.ok()) {
      req.done(Status::OK(), std::move(slots[s].table));
    } else {
      req.done(slots[s].status, Table());
    }
  }
}

void Batcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ && workers_.empty()) return;
    draining_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

size_t Batcher::num_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_requests_;
}

size_t Batcher::num_flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_flushes_;
}

size_t Batcher::num_coalesced_flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_coalesced_flushes_;
}

size_t Batcher::max_flush_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_flush_size_;
}

}  // namespace serve
}  // namespace featlib
