/// \file plan_registry_test.cc
/// \brief Pins the multi-tenant plan registry: lazy single-load per
/// residency, LRU eviction under the warm byte cap, shared_ptr pinning
/// (an evicted plan's store survives for in-flight holders), non-sticky
/// load failures, and byte-identical serving under concurrent
/// load/evict/transform churn (a scripts/ci.sh TSan target).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_io.h"
#include "serve/plan_registry.h"
#include "serve_test_util.h"
#include "table/csv.h"

namespace featlib {
namespace serve {
namespace {

using serve_test::ExpectTablesBitIdentical;
using serve_test::MakeBatch;
using serve_test::TempDir;
using serve_test::WritePlanPair;

// One plan's warm byte estimate for the shared fixture (all plans in these
// tests use the same relevant/queries, so the estimate is uniform).
size_t FixtureWarmBytes(const std::string& dir) {
  PlanRegistry probe(PlanRegistryOptions{/*warm_cap_bytes=*/0});
  size_t found = 0;
  EXPECT_TRUE(probe.DiscoverPlans(dir, &found).ok());
  EXPECT_GE(found, 1u);
  auto handle = probe.Acquire(probe.List().front().name);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return probe.warm_bytes();
}

TEST(PlanRegistryTest, LazyLoadListAndHit) {
  const TempDir tmp("feataug_reg_");
  const std::string& dir = tmp.path();
  WritePlanPair(dir, "alpha");
  WritePlanPair(dir, "beta");

  PlanRegistry registry;
  size_t found = 0;
  ASSERT_TRUE(registry.DiscoverPlans(dir, &found).ok());
  ASSERT_EQ(found, 2u);

  // Registered but cold: nothing loaded yet.
  EXPECT_EQ(registry.num_loads(), 0u);
  EXPECT_EQ(registry.warm_bytes(), 0u);
  auto listed = registry.List();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].name, "alpha");
  EXPECT_EQ(listed[1].name, "beta");
  EXPECT_FALSE(listed[0].loaded);

  auto first = registry.Acquire("alpha");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(registry.num_loads(), 1u);
  EXPECT_TRUE(registry.IsResident("alpha"));
  EXPECT_FALSE(registry.IsResident("beta"));
  EXPECT_GT(registry.warm_bytes(), 0u);

  // Second acquire is a hit: same handle, no new load.
  auto second = registry.Acquire("alpha");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(registry.num_loads(), 1u);

  EXPECT_FALSE(registry.Acquire("missing").ok());
  EXPECT_FALSE(registry.AddPlan("alpha", "x.sql", "x.csv").ok());
}

TEST(PlanRegistryTest, EvictsLeastRecentlyAcquiredUnderByteCap) {
  const TempDir tmp("feataug_reg_");
  const std::string& dir = tmp.path();
  WritePlanPair(dir, "a");
  WritePlanPair(dir, "b");
  WritePlanPair(dir, "c");
  const size_t w = FixtureWarmBytes(dir);
  ASSERT_GT(w, 0u);

  // Room for two residents; the third load evicts the least recently used.
  PlanRegistry registry(PlanRegistryOptions{/*warm_cap_bytes=*/2 * w + w / 2});
  ASSERT_TRUE(registry.DiscoverPlans(dir).ok());

  ASSERT_TRUE(registry.Acquire("a").ok());
  ASSERT_TRUE(registry.Acquire("b").ok());
  EXPECT_EQ(registry.num_evictions(), 0u);

  // Touch "a" so "b" becomes LRU, then load "c": "b" must be the victim.
  ASSERT_TRUE(registry.Acquire("a").ok());
  ASSERT_TRUE(registry.Acquire("c").ok());
  EXPECT_EQ(registry.num_evictions(), 1u);
  EXPECT_TRUE(registry.IsResident("a"));
  EXPECT_FALSE(registry.IsResident("b"));
  EXPECT_TRUE(registry.IsResident("c"));
  EXPECT_LE(registry.warm_bytes(), 2 * w + w / 2);

  // Reloading an evicted plan works and counts a fresh load.
  const size_t loads_before = registry.num_loads();
  ASSERT_TRUE(registry.Acquire("b").ok());
  EXPECT_EQ(registry.num_loads(), loads_before + 1);
}

TEST(PlanRegistryTest, PinnedHandleSurvivesEviction) {
  const TempDir tmp("feataug_reg_");
  const std::string& dir = tmp.path();
  const Table relevant = WritePlanPair(dir, "a");
  WritePlanPair(dir, "b");
  const size_t w = FixtureWarmBytes(dir);

  // Cap fits one resident: loading "b" evicts "a".
  PlanRegistry registry(PlanRegistryOptions{/*warm_cap_bytes=*/w + w / 2});
  ASSERT_TRUE(registry.DiscoverPlans(dir).ok());

  auto pinned = registry.Acquire("a");
  ASSERT_TRUE(pinned.ok());
  const Table batch = MakeBatch(30, 13);
  auto before = pinned.value()->Transform(batch);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  ASSERT_TRUE(registry.Acquire("b").ok());
  EXPECT_FALSE(registry.IsResident("a"));
  EXPECT_GE(registry.num_evictions(), 1u);

  // The pin keeps the evicted store alive and byte-identical.
  auto after = pinned.value()->Transform(batch);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectTablesBitIdentical(after.value(), before.value(),
                           "evicted-but-pinned transform");
}

TEST(PlanRegistryTest, FailedLoadIsNotSticky) {
  const TempDir tmp("feataug_reg_");
  const std::string& dir = tmp.path();
  const Table relevant = WritePlanPair(dir, "real");

  PlanRegistry registry;
  ASSERT_TRUE(registry
                  .AddPlan("late", dir + "/late.sql",
                           dir + "/real.relevant.csv")
                  .ok());
  // The plan file does not exist yet: the load fails, but is not sticky.
  auto missing = registry.Acquire("late");
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(registry.IsResident("late"));

  // Ship the artifact, retry: the same entry now loads.
  ASSERT_TRUE(WriteAugmentationPlan(serve_test::MakePlan(), "relevant",
                                    relevant, dir + "/late.sql")
                  .ok());
  auto retried = registry.Acquire("late");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(registry.IsResident("late"));
}

TEST(PlanRegistryTest, UnreadableRelevantTableIsIOErrorAndRetried) {
  const TempDir tmp("feataug_reg_");
  const std::string& dir = tmp.path();
  const Table relevant = WritePlanPair(dir, "real");
  const std::string relevant_path = dir + "/late.relevant.csv";
  ASSERT_EQ(::mkdir(relevant_path.c_str(), 0700), 0);

  PlanRegistry registry;
  ASSERT_TRUE(registry.AddPlan("late", dir + "/real.sql", relevant_path).ok());
  // A directory where the relevant table should be is an IO failure, not
  // an empty table, and it is not sticky.
  auto failed = registry.Acquire("late");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();
  EXPECT_FALSE(registry.IsResident("late"));

  ASSERT_EQ(::rmdir(relevant_path.c_str()), 0);
  ASSERT_TRUE(WriteCsv(relevant, relevant_path).ok());
  auto retried = registry.Acquire("late");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(registry.IsResident("late"));
}

TEST(PlanRegistryTest, ConcurrentFirstAcquiresLoadOnce) {
  const TempDir tmp("feataug_reg_");
  const std::string& dir = tmp.path();
  WritePlanPair(dir, "shared");

  PlanRegistry registry;
  ASSERT_TRUE(registry.DiscoverPlans(dir).ok());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const FittedAugmenter>> handles(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto handle = registry.Acquire("shared");
      if (handle.ok()) handles[t] = std::move(handle).ValueOrDie();
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one compile; every thread got the same warm handle.
  EXPECT_EQ(registry.num_loads(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(handles[t], nullptr) << "thread " << t;
    EXPECT_EQ(handles[t].get(), handles[0].get());
  }
}

// The TSan target: concurrent acquire/transform across plans with a cap
// small enough to force continuous eviction/reload churn. Every result
// must stay byte-identical to the per-plan reference.
TEST(PlanRegistryTest, ConcurrentLoadEvictTransformStaysByteIdentical) {
  const TempDir tmp("feataug_reg_");
  const std::string& dir = tmp.path();
  const std::vector<std::string> names = {"p0", "p1", "p2"};
  Table relevant;
  for (const std::string& name : names) relevant = WritePlanPair(dir, name);
  const size_t w = FixtureWarmBytes(dir);

  // Fits one resident: almost every cross-plan acquire evicts.
  PlanRegistry registry(PlanRegistryOptions{/*warm_cap_bytes=*/w + w / 2});
  ASSERT_TRUE(registry.DiscoverPlans(dir).ok());

  const Table batch = MakeBatch(25, 7);
  // All plans share the same fixture, so one reference serves them all.
  auto reference_handle =
      LoadFittedAugmenter(dir + "/p0.sql", relevant);
  ASSERT_TRUE(reference_handle.ok());
  auto reference = reference_handle.value()->Transform(batch);
  ASSERT_TRUE(reference.ok());
  const std::string reference_bytes = EncodeTable(reference.value());

  constexpr int kThreads = 4;
  constexpr int kIterations = 6;
  std::vector<int> successes(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        const std::string& name = names[(t + it) % names.size()];
        auto handle = registry.Acquire(name);
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        auto out = handle.value()->Transform(batch);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        ASSERT_EQ(EncodeTable(out.value()), reference_bytes)
            << "thread " << t << " iteration " << it << " plan " << name;
        ++successes[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(successes[t], kIterations);
  EXPECT_GE(registry.num_evictions(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace featlib
