/// \file executor_parallel_test.cc
/// \brief Pins the parallel EvaluateMany contract: byte-identical columns at
/// every thread count (against the recorded goldens), the COUNT(*)
/// no-value-view path, the eviction pinning of in-batch store entries, and
/// the ThreadPool contract (chunk-claimed fan-out + staged scheduling).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/rng.h"
#include "common/thread_pool.h"
#include "golden_util.h"
#include "query/query_planner.h"
#include "query/sql_parser.h"

namespace featlib {
namespace {

using golden::SameBits;

void ExpectColumnsBitIdentical(const std::vector<double>& actual,
                               const std::vector<double>& expected,
                               const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(SameBits(actual[i], expected[i]))
        << context << " row " << i << ": actual=" << actual[i]
        << " expected=" << expected[i];
  }
}

// Random (relevant, training) pair: compound keys, NULL-heavy values,
// predicate attributes — the same shape executor_golden_test uses. The Rng
// consumption order is part of the golden contract.
struct RandomPair {
  Table relevant;
  Table training;
};

RandomPair MakeRandomPair(Rng* rng) {
  const char* cities[] = {"ber", "nyc", "sfo", "tok"};
  const char* depts[] = {"a", "b", "c"};

  RandomPair out;
  const size_t n_rel = 80 + rng->UniformInt(120);
  Column uid(DataType::kInt64), city(DataType::kString);
  Column value(DataType::kDouble), level(DataType::kInt64), dept(DataType::kString);
  for (size_t i = 0; i < n_rel; ++i) {
    if (rng->Bernoulli(0.05)) {
      uid.AppendNull();
    } else {
      uid.AppendInt(static_cast<int64_t>(rng->UniformInt(10)));
    }
    city.AppendString(cities[rng->UniformInt(4)]);
    if (rng->Bernoulli(0.3)) {
      value.AppendNull();
    } else {
      value.AppendDouble(rng->Normal(0, 10));
    }
    level.AppendInt(static_cast<int64_t>(rng->UniformInt(5)));
    dept.AppendString(depts[rng->UniformInt(3)]);
  }
  EXPECT_TRUE(out.relevant.AddColumn("uid", std::move(uid)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("city", std::move(city)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("value", std::move(value)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());

  const size_t n_train = 40 + rng->UniformInt(30);
  Column d_uid(DataType::kInt64), d_city(DataType::kString);
  for (size_t i = 0; i < n_train; ++i) {
    if (rng->Bernoulli(0.05)) {
      d_uid.AppendNull();
    } else {
      d_uid.AppendInt(static_cast<int64_t>(rng->UniformInt(12)));
    }
    d_city.AppendString(cities[rng->UniformInt(4)]);
  }
  EXPECT_TRUE(out.training.AddColumn("uid", std::move(d_uid)).ok());
  EXPECT_TRUE(out.training.AddColumn("city", std::move(d_city)).ok());
  return out;
}

// A template-shaped pool: every agg function crossed with predicate combos
// (none / single / conjunction / empty selection), plus COUNT(*) variants.
std::vector<AggQuery> MakeCandidatePool() {
  std::vector<std::vector<Predicate>> pred_sets;
  pred_sets.push_back({});
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("a"))});
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("b")),
                       Predicate::Range("level", std::nullopt, 3.0)});
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("zz"))});  // empty

  std::vector<AggQuery> out;
  for (const auto& preds : pred_sets) {
    for (AggFunction fn : AllAggFunctions()) {
      AggQuery q;
      q.agg = fn;
      q.agg_attr = "value";
      q.group_keys = {"uid"};
      q.predicates = preds;
      out.push_back(std::move(q));
    }
    AggQuery count_star;
    count_star.agg = AggFunction::kCount;
    count_star.group_keys = {"uid", "city"};
    count_star.predicates = preds;
    out.push_back(std::move(count_star));
  }
  return out;
}

// --- Determinism across thread counts, pinned to the recorded goldens -------

TEST(ExecutorParallelTest, EvaluateManyMatchesGoldensAtEveryThreadCount) {
  golden::GoldenFile goldens("parallel_pool_columns.golden");
  Rng rng(501);
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();

  // The serial run records (or is checked against) the goldens; every
  // parallel-prepare run must reproduce its bytes exactly.
  QueryPlanner serial;
  auto reference = serial.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    goldens.Check("q" + std::to_string(i),
                  golden::EncodeColumn(reference.value()[i]));
  }

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.num_threads(), threads);
    QueryPlanner planner;
    planner.set_thread_pool(&pool);
    auto many = planner.EvaluateMany(queries, tables.training, tables.relevant);
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    ASSERT_EQ(many.value().size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectColumnsBitIdentical(many.value()[i], reference.value()[i],
                                std::to_string(threads) + " threads, " +
                                    queries[i].CacheKey());
      goldens.Check("q" + std::to_string(i),
                    golden::EncodeColumn(many.value()[i]));
    }
  }
}

TEST(ExecutorParallelTest, RepeatedParallelRunsAreDeterministic) {
  Rng rng(733);
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();

  ThreadPool pool(8);
  QueryPlanner first_planner;
  first_planner.set_thread_pool(&pool);
  auto first =
      first_planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(first.ok());
  for (int repeat = 0; repeat < 3; ++repeat) {
    QueryPlanner planner;
    planner.set_thread_pool(&pool);
    auto again = planner.EvaluateMany(queries, tables.training, tables.relevant);
    ASSERT_TRUE(again.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectColumnsBitIdentical(again.value()[i], first.value()[i],
                                "repeat " + std::to_string(repeat));
    }
  }
}

// --- COUNT(*) ----------------------------------------------------------------

TEST(ExecutorParallelTest, CountStarCountsAllSelectedRows) {
  Table relevant;
  ASSERT_TRUE(relevant
                  .AddColumn("k", Column::FromDoubles({1.0, 1.0, 1.0, 2.0, 2.0}))
                  .ok());
  Column v(DataType::kDouble);
  v.AppendDouble(10.0);
  v.AppendNull();  // COUNT(value) skips this row, COUNT(*) keeps it
  v.AppendDouble(30.0);
  v.AppendNull();
  v.AppendNull();
  ASSERT_TRUE(relevant.AddColumn("value", std::move(v)).ok());
  Table training;
  ASSERT_TRUE(training.AddColumn("k", Column::FromDoubles({1.0, 2.0, 3.0})).ok());

  AggQuery count_star;
  count_star.agg = AggFunction::kCount;
  count_star.group_keys = {"k"};
  auto counts =
      QueryPlanner().ComputeFeatureColumn(count_star, training, relevant);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_DOUBLE_EQ(counts.value()[0], 3.0);  // nulls counted
  EXPECT_DOUBLE_EQ(counts.value()[1], 2.0);
  EXPECT_TRUE(std::isnan(counts.value()[2]));  // entity absent from R

  // COUNT(value) counts non-null cells only: 2 and 0 — distinct from above.
  AggQuery count_value = count_star;
  count_value.agg_attr = "value";
  auto value_counts =
      QueryPlanner().ComputeFeatureColumn(count_value, training, relevant);
  ASSERT_TRUE(value_counts.ok());
  EXPECT_DOUBLE_EQ(value_counts.value()[0], 2.0);
  EXPECT_DOUBLE_EQ(value_counts.value()[1], 0.0);

  // COUNT(*) is the only attribute-less form.
  AggQuery sum_star;
  sum_star.agg = AggFunction::kSum;
  sum_star.group_keys = {"k"};
  EXPECT_FALSE(
      QueryPlanner().ComputeFeatureColumn(sum_star, training, relevant).ok());

  // The COUNT(*) rendering round-trips through the SQL parser.
  const std::string sql = count_star.ToSql("relevant", relevant);
  EXPECT_NE(sql.find("COUNT(*)"), std::string::npos) << sql;
  auto parsed = ParseAggQuerySql(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().query.CacheKey(), count_star.CacheKey());
  EXPECT_FALSE(ParseAggQuerySql("SELECT k, SUM(*) AS feature FROM r GROUP BY k")
                   .ok());
}

// --- Eviction pinning --------------------------------------------------------

TEST(ExecutorParallelTest, BatchPinnedStoreEntriesSurviveTinyCap) {
  Rng rng(42);
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();

  QueryPlanner planner;
  // A cap below a single mask's footprint: every publish would previously
  // mass-evict the whole shard, invalidating masks the in-flight batch still
  // references. Pinning keeps current-batch entries alive instead.
  planner.set_mask_cache_cap_bytes(1);
  planner.set_mat_cache_cap_bytes(1);
  auto many = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  // Nothing is evictable mid-batch — all entries belong to the current one.
  EXPECT_EQ(planner.num_evictions(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    // Cache-free per-candidate evaluation is the correctness reference.
    QueryPlanner fresh;
    auto expected =
        fresh.ComputeFeatureColumn(queries[i], tables.training, tables.relevant);
    ASSERT_TRUE(expected.ok());
    ExpectColumnsBitIdentical(many.value()[i], expected.value(),
                              queries[i].CacheKey());
  }

  // A second batch over *different* predicates unpins the first batch's
  // entries; the over-cap shards now evict them (and only them).
  std::vector<AggQuery> second;
  for (AggFunction fn : AllAggFunctions()) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = "value";
    q.group_keys = {"uid"};
    q.predicates = {Predicate::Range("level", 1.0, 4.0)};
    second.push_back(std::move(q));
  }
  auto second_result =
      planner.EvaluateMany(second, tables.training, tables.relevant);
  ASSERT_TRUE(second_result.ok()) << second_result.status().ToString();
  EXPECT_GT(planner.num_evictions(), 0u);
  for (size_t i = 0; i < second.size(); ++i) {
    QueryPlanner fresh;
    auto expected =
        fresh.ComputeFeatureColumn(second[i], tables.training, tables.relevant);
    ASSERT_TRUE(expected.ok());
    ExpectColumnsBitIdentical(second_result.value()[i], expected.value(),
                              second[i].CacheKey());
  }
}

// --- ThreadPool contract -----------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ChunkClaimingCoversEveryIndexAtEveryChunkSize) {
  ThreadPool pool(4);
  constexpr size_t kN = 1003;  // not a multiple of any chunk size below
  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{16}, size_t{64},
                             size_t{500}, size_t{5000}}) {
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(
        kN, [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
        chunk);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, HandlesEdgeSizesAndSerialPool) {
  ThreadPool serial(1);
  EXPECT_EQ(serial.num_threads(), 1);
  std::atomic<size_t> count{0};
  serial.ParallelFor(0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0u);
  serial.ParallelFor(5, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5u);

  ThreadPool pool(8);
  count.store(0);
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1u);
  // Many small jobs in sequence: exercises the job-id handshake.
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(3, [&](size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 1u + 150u);
}

#if defined(__linux__)
TEST(ThreadPoolTest, WorkersKeepTheCallersCpuMask) {
  // Each worker is moved to its own CPU when it starts and then released:
  // every thread that runs tasks may still run on every CPU the caller may.
  cpu_set_t caller;
  ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<cpu_set_t> masks;
  ASSERT_TRUE(pool.ParallelFor(
                      16,
                      [&](size_t) {
                        cpu_set_t mine;
                        ASSERT_EQ(sched_getaffinity(0, sizeof(mine), &mine), 0);
                        std::this_thread::sleep_for(std::chrono::milliseconds(2));
                        std::lock_guard<std::mutex> lock(mu);
                        masks.push_back(mine);
                      },
                      /*chunk=*/1)
                  .ok());
  ASSERT_EQ(masks.size(), 16u);
  for (const cpu_set_t& mask : masks) EXPECT_TRUE(CPU_EQUAL(&mask, &caller));
}
#endif

TEST(ThreadPoolTest, TaskFailureReturnsStatusAndSiblingsStillComplete) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  const Status status = pool.ParallelFor(100, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    if (i == 13) throw std::runtime_error("boom");
  });
  // Failure = Status, not poison: the first exception is surfaced as
  // kInternal with the what() text...
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("boom"), std::string::npos)
      << status.ToString();
  // ...and every sibling index still ran exactly once.
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
  // The failed job is fully drained: the pool accepts later batches.
  std::atomic<size_t> count{0};
  ASSERT_TRUE(pool.ParallelFor(50, [&](size_t) { count.fetch_add(1); }).ok());
  EXPECT_EQ(count.load(), 50u);

  // The serial path mirrors the contract byte for byte.
  ThreadPool serial(1);
  std::atomic<size_t> serial_hits{0};
  const Status serial_status = serial.ParallelFor(10, [&](size_t i) {
    serial_hits.fetch_add(1);
    if (i == 3) throw std::runtime_error("serial boom");
  });
  ASSERT_FALSE(serial_status.ok());
  EXPECT_EQ(serial_status.code(), StatusCode::kInternal);
  EXPECT_EQ(serial_hits.load(), 10u);
}

TEST(ThreadPoolTest, ParallelForStagesPublishesBetweenStages) {
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::vector<int> built_a(kN, 0);
  std::atomic<int> published_a{0};
  std::vector<int> observed_publish(kN, 0);
  std::vector<ThreadPool::Stage> stages;
  stages.push_back({kN, [&](size_t i) { built_a[i] = 1; },
                    [&] {
                      // Barrier: every stage-A task write is visible here.
                      int sum = 0;
                      for (int v : built_a) sum += v;
                      published_a.store(sum);
                    }});
  stages.push_back({kN,
                    [&](size_t i) {
                      // Stage B tasks observe stage A fully built+published.
                      observed_publish[i] = published_a.load();
                    },
                    nullptr});
  pool.ParallelForStages(stages);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(observed_publish[i], static_cast<int>(kN)) << i;
  }
}

}  // namespace
}  // namespace featlib
