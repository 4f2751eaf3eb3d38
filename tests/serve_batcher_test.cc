/// \file serve_batcher_test.cc
/// \brief Pins the coalescing batcher: same-plan requests that queue while
/// the worker is busy merge into one fan-out whose per-slot results are
/// byte-identical to direct Transform calls, groups split at
/// max_batch_size and never mix handles, per-slot failures stay isolated,
/// queue-expired deadlines fail typed without poisoning siblings, and
/// Shutdown delivers every admitted callback before returning.
///
/// No test sleeps: each holds the batcher's one worker in a blocking
/// callback (WorkerHold), submits while it is held, then releases it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve_test_util.h"

namespace featlib {
namespace serve {
namespace {

using serve_test::MakeBatch;
using serve_test::MakeHandle;
using serve_test::MakeQueries;

/// Collects callback results and lets the test block until N arrived.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Status> statuses;
  std::vector<Table> tables;

  Batcher::Callback Slot(size_t i) {
    return [this, i](Status status, Table table) {
      std::lock_guard<std::mutex> lock(mu);
      statuses[i] = std::move(status);
      tables[i] = std::move(table);
      cv.notify_all();
    };
  }

  void Resize(size_t n) {
    statuses.assign(n, Status::Internal("callback never ran"));
    tables.assign(n, Table());
  }

  void AwaitAll() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      for (const Status& s : statuses) {
        if (s.message() == "callback never ran") return false;
      }
      return true;
    });
  }
};

Batcher::Request MakeRequest(std::shared_ptr<const FittedAugmenter> handle,
                             Table batch, Batcher::Callback done) {
  Batcher::Request request;
  request.handle = std::move(handle);
  request.batch = std::move(batch);
  request.done = std::move(done);
  return request;
}

/// Occupies the only worker of a one-worker batcher: the hold request's
/// callback blocks until Release(), so every request submitted meanwhile
/// queues behind it. Declare it after the Batcher, so a test that exits
/// early releases the worker before the batcher joins it.
class WorkerHold {
 public:
  WorkerHold(Batcher* batcher, std::shared_ptr<const FittedAugmenter> handle) {
    Status held = batcher->Submit(
        "hold", MakeRequest(std::move(handle), MakeBatch(4, 77),
                            [this](Status, Table) {
                              entered_.set_value();
                              released_.wait();
                            }));
    EXPECT_TRUE(held.ok()) << held.ToString();
    if (held.ok()) entered_.get_future().wait();
  }
  ~WorkerHold() { Release(); }

  void Release() {
    if (!released_once_) {
      released_once_ = true;
      release_.set_value();
    }
  }

 private:
  std::promise<void> entered_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  bool released_once_ = false;
};

BatcherOptions OneWorker() {
  BatcherOptions options;
  options.num_workers = 1;
  return options;
}

TEST(ServeBatcherTest, CoalescesIntoOneByteIdenticalFanOut) {
  auto handle = MakeHandle();
  ASSERT_NE(handle, nullptr);

  const std::vector<Table> batches = {MakeBatch(20, 1), MakeBatch(15, 2),
                                      MakeBatch(25, 3), MakeBatch(10, 4)};
  std::vector<std::string> reference;
  for (const Table& batch : batches) {
    auto direct = handle->Transform(batch);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    reference.push_back(EncodeTable(direct.value()));
  }

  Batcher batcher(OneWorker());
  WorkerHold hold(&batcher, handle);
  Collector collector;
  collector.Resize(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(
        batcher.Submit("plan", MakeRequest(handle, batches[i],
                                           collector.Slot(i)))
            .ok());
  }
  hold.Release();
  collector.AwaitAll();

  // The hold's own flush, then all four queued requests in one.
  EXPECT_EQ(batcher.num_requests(), batches.size() + 1);
  EXPECT_EQ(batcher.num_flushes(), 2u);
  EXPECT_EQ(batcher.num_coalesced_flushes(), 1u);
  EXPECT_EQ(batcher.max_flush_size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(collector.statuses[i].ok())
        << i << ": " << collector.statuses[i].ToString();
    EXPECT_EQ(EncodeTable(collector.tables[i]), reference[i])
        << "slot " << i << " not byte-identical";
  }
  batcher.Shutdown();
}

TEST(ServeBatcherTest, FullGroupSplitsAtMaxBatchSize) {
  auto handle = MakeHandle();
  BatcherOptions options = OneWorker();
  options.max_batch_size = 2;
  Batcher batcher(options);
  WorkerHold hold(&batcher, handle);

  Collector collector;
  collector.Resize(3);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher
                    .Submit("plan", MakeRequest(handle, MakeBatch(5, i + 1),
                                                collector.Slot(i)))
                    .ok());
  }
  hold.Release();
  collector.AwaitAll();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(collector.statuses[i].ok())
        << i << ": " << collector.statuses[i].ToString();
  }
  // Hold, then a full group of two, then the one that overflowed it.
  EXPECT_EQ(batcher.num_flushes(), 3u);
  EXPECT_EQ(batcher.num_coalesced_flushes(), 1u);
  EXPECT_EQ(batcher.max_flush_size(), 2u);
  batcher.Shutdown();
}

TEST(ServeBatcherTest, CoalescesOnlyRequestsPinnedToTheSameHandle) {
  // A registry that evicts and reloads a plan hands out a new handle under
  // the same name; requests pinned to the old one may still be queued.
  // Two handles compiled from different plans make a mix-up visible.
  auto first = MakeHandle();
  std::vector<AggQuery> other = MakeQueries();
  other.resize(2);
  auto second = MakeHandle(other);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);

  const std::vector<Table> batches = {MakeBatch(10, 1), MakeBatch(12, 2),
                                      MakeBatch(14, 3)};
  const std::vector<std::shared_ptr<const FittedAugmenter>> pinned = {
      first, second, first};
  auto first_many = first->TransformMany({batches[0], batches[2]});
  auto second_many = second->TransformMany({batches[1]});
  ASSERT_TRUE(first_many.ok()) << first_many.status().ToString();
  ASSERT_TRUE(second_many.ok()) << second_many.status().ToString();
  const std::vector<std::string> reference = {
      EncodeTable(first_many.value()[0]), EncodeTable(second_many.value()[0]),
      EncodeTable(first_many.value()[1])};

  Batcher batcher(OneWorker());
  WorkerHold hold(&batcher, first);
  Collector collector;
  collector.Resize(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(batcher
                    .Submit("plan", MakeRequest(pinned[i], batches[i],
                                                collector.Slot(i)))
                    .ok());
  }
  hold.Release();
  collector.AwaitAll();

  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(collector.statuses[i].ok())
        << i << ": " << collector.statuses[i].ToString();
    EXPECT_EQ(EncodeTable(collector.tables[i]), reference[i])
        << "slot " << i << " not answered by its own handle";
  }
  // A request pinned to another handle closes the plan's open group.
  EXPECT_EQ(batcher.num_flushes(), 4u);
  EXPECT_EQ(batcher.num_coalesced_flushes(), 0u);
  batcher.Shutdown();
}

TEST(ServeBatcherTest, PerSlotFailureIsIsolated) {
  auto handle = MakeHandle();
  Table bad;  // missing the join-key columns -> that slot fails
  Column c(DataType::kInt64);
  c.AppendInt(1);
  ASSERT_TRUE(bad.AddColumn("unrelated", std::move(c)).ok());

  const Table good = MakeBatch(12, 9);
  auto direct = handle->Transform(good);
  ASSERT_TRUE(direct.ok());

  Batcher batcher(OneWorker());
  WorkerHold hold(&batcher, handle);
  Collector collector;
  collector.Resize(3);
  ASSERT_TRUE(batcher
                  .Submit("plan",
                          MakeRequest(handle, good, collector.Slot(0)))
                  .ok());
  ASSERT_TRUE(
      batcher.Submit("plan", MakeRequest(handle, bad, collector.Slot(1)))
          .ok());
  ASSERT_TRUE(batcher
                  .Submit("plan",
                          MakeRequest(handle, good, collector.Slot(2)))
                  .ok());
  hold.Release();
  collector.AwaitAll();

  EXPECT_EQ(batcher.max_flush_size(), 3u);  // one fan-out for all three
  EXPECT_TRUE(collector.statuses[0].ok());
  EXPECT_FALSE(collector.statuses[1].ok());
  EXPECT_TRUE(collector.statuses[2].ok());
  EXPECT_EQ(EncodeTable(collector.tables[0]), EncodeTable(direct.value()));
  EXPECT_EQ(EncodeTable(collector.tables[2]), EncodeTable(direct.value()));
  batcher.Shutdown();
}

TEST(ServeBatcherTest, QueueExpiredDeadlineFailsTypedWithoutPoisoningSiblings) {
  auto handle = MakeHandle();
  Batcher batcher(OneWorker());
  WorkerHold hold(&batcher, handle);

  Collector collector;
  collector.Resize(2);
  // Already expired while queued: must fail kDeadlineExceeded before any
  // work, and must not take its group sibling (no deadline) with it.
  Batcher::Request expired =
      MakeRequest(handle, MakeBatch(8, 5), collector.Slot(0));
  expired.deadline = Batcher::Clock::now() - std::chrono::milliseconds(5);
  ASSERT_TRUE(batcher.Submit("plan", std::move(expired)).ok());
  ASSERT_TRUE(batcher
                  .Submit("plan", MakeRequest(handle, MakeBatch(8, 6),
                                              collector.Slot(1)))
                  .ok());
  hold.Release();
  collector.AwaitAll();

  EXPECT_EQ(batcher.max_flush_size(), 2u);  // same group
  EXPECT_EQ(collector.statuses[0].code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(collector.statuses[1].ok())
      << collector.statuses[1].ToString();
  batcher.Shutdown();
}

TEST(ServeBatcherTest, ShutdownDrainsQueuedRequestsThenRefuses) {
  auto handle = MakeHandle();
  Batcher batcher(OneWorker());
  WorkerHold hold(&batcher, handle);

  Collector collector;
  collector.Resize(3);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher
                    .Submit("plan", MakeRequest(handle, MakeBatch(6, i + 1),
                                                collector.Slot(i)))
                    .ok());
  }

  // Shutdown starts while all three wait behind the held worker. Probes
  // (already expired, so they cost no work) are submitted until one is
  // refused: that shows admission stopped with the queue still full.
  std::thread shutdown([&batcher] { batcher.Shutdown(); });
  std::atomic<size_t> probes_done{0};
  size_t probes_admitted = 0;
  Status refused;
  for (;;) {
    Batcher::Request probe =
        MakeRequest(handle, MakeBatch(1, 9), [&probes_done](Status st, Table) {
          EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
          probes_done.fetch_add(1);
        });
    probe.deadline = Batcher::Clock::now() - std::chrono::milliseconds(1);
    refused = batcher.Submit("plan", std::move(probe));
    if (!refused.ok()) break;
    ++probes_admitted;
    std::this_thread::yield();
  }
  EXPECT_EQ(refused.code(), StatusCode::kCancelled);
  hold.Release();
  shutdown.join();

  // Every request admitted before the drain got its callback before
  // Shutdown returned.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(collector.statuses[i].ok())
        << i << ": " << collector.statuses[i].ToString();
  }
  EXPECT_EQ(probes_done.load(), probes_admitted);

  Status late = batcher.Submit(
      "plan", MakeRequest(handle, MakeBatch(2, 9), collector.Slot(0)));
  EXPECT_EQ(late.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace serve
}  // namespace featlib
