/// \file query_planner_test.cc
/// \brief Pins the planner layer of the planner / store / kernel split:
/// artifact-DAG deduplication and topology (via PlanStats), publish-once
/// semantics under parallel prepare, determinism of parallel prepare across
/// thread counts, one candidate's work split into group ranges without
/// changing a byte, eviction pinning, error propagation from
/// staged builds, morsel stats that follow the last evaluation, and a
/// serving plan outliving the planner that compiled it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "golden_util.h"
#include "query/query_planner.h"

namespace featlib {
namespace {

using golden::SameBits;

void ExpectColumnsBitIdentical(const std::vector<double>& actual,
                               const std::vector<double>& expected,
                               const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(SameBits(actual[i], expected[i])) << context << " row " << i;
  }
}

struct Pair {
  Table relevant;
  Table training;
};

// Small deterministic tables: int key, double value, two predicate columns.
Pair MakePair() {
  Pair out;
  Rng rng(7);
  const char* depts[] = {"a", "b", "c"};
  Column k(DataType::kInt64), v(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
  for (int i = 0; i < 160; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(12)));
    if (rng.Bernoulli(0.2)) {
      v.AppendNull();
    } else {
      v.AppendDouble(rng.Normal(0, 5));
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(4)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  EXPECT_TRUE(out.relevant.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("v", std::move(v)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());
  Column dk(DataType::kInt64);
  for (int i = 0; i < 15; ++i) dk.AppendInt(i);
  EXPECT_TRUE(out.training.AddColumn("k", std::move(dk)).ok());
  return out;
}

AggQuery MakeQuery(AggFunction fn, std::vector<Predicate> preds) {
  AggQuery q;
  q.agg = fn;
  q.agg_attr = "v";
  q.group_keys = {"k"};
  q.predicates = std::move(preds);
  return q;
}

// --- DAG deduplication and topology -----------------------------------------

TEST(QueryPlannerTest, PlanDeduplicatesSharedArtifacts) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", 1.0, 3.0);

  // 6 streaming candidates: one group-key set, two distinct single
  // predicates, one conjunction (both), one value view.
  std::vector<AggQuery> queries = {
      MakeQuery(AggFunction::kSum, {pa}),    MakeQuery(AggFunction::kAvg, {pa}),
      MakeQuery(AggFunction::kSum, {pb}),    MakeQuery(AggFunction::kMin, {pb}),
      MakeQuery(AggFunction::kSum, {pa, pb}), MakeQuery(AggFunction::kMax, {pa, pb}),
  };

  QueryPlanner planner;
  auto result = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const QueryPlanner::PlanStats& stats = planner.last_plan_stats();
  EXPECT_EQ(stats.candidates, 6u);
  EXPECT_EQ(stats.group_requests, 1u);        // one group-key set
  EXPECT_EQ(stats.train_map_requests, 1u);    // one training-row map
  EXPECT_EQ(stats.mask_requests, 2u);         // pa, pb — not one per candidate
  EXPECT_EQ(stats.conjunction_requests, 1u);  // pa&pb
  EXPECT_EQ(stats.view_requests, 1u);         // "v"
  EXPECT_EQ(stats.order_requests, 0u);        // no order statistic
  // Conjunctions and training-row maps build after their constituent masks
  // and group index: stages A and B run; with no order statistic, stage C
  // has nothing to build.
  EXPECT_EQ(stats.stages_run, 2u);
  EXPECT_EQ(stats.builds_run, 1u + 1u + 2u + 1u + 1u);
  // Every candidate streams: one kernel item each.
  EXPECT_EQ(stats.kernel_tasks, 6u);

  // Store counters agree: exactly one build per unique artifact.
  EXPECT_EQ(planner.store().num_group_builds(), 1u);
  EXPECT_EQ(planner.store().num_mask_builds(), 2u);
  EXPECT_EQ(planner.store().num_conjunction_builds(), 1u);
  EXPECT_EQ(planner.store().num_view_builds(), 1u);
  EXPECT_EQ(planner.store().num_order_builds(), 0u);
}

TEST(QueryPlannerTest, SecondIdenticalBatchBuildsNothing) {
  const Pair tables = MakePair();
  std::vector<AggQuery> queries = {
      MakeQuery(AggFunction::kSum, {Predicate::Equals("dept", Value::Str("a"))}),
      MakeQuery(AggFunction::kMedian, {Predicate::Equals("dept", Value::Str("a"))}),
  };
  QueryPlanner planner;
  auto first = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(planner.last_plan_stats().builds_run, 0u);

  auto second = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(second.ok());
  // Everything is cached: the plan requests artifacts but builds none, and
  // no prepare stage runs at all.
  EXPECT_EQ(planner.last_plan_stats().builds_run, 0u);
  EXPECT_EQ(planner.last_plan_stats().stages_run, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(second.value()[i], first.value()[i], "cached");
  }
}

// A cached training-row map belongs to one training table: a planner reused
// over another training table with the same row count but different keys
// must map the new rows, not serve the first table's features.
TEST(QueryPlannerTest, ReusedPlannerRemapsSameSizedTrainingTable) {
  const Pair tables = MakePair();
  Table reversed;
  Column rk(DataType::kInt64);
  for (int i = 14; i >= 0; --i) rk.AppendInt(i);
  ASSERT_TRUE(reversed.AddColumn("k", std::move(rk)).ok());
  ASSERT_EQ(reversed.num_rows(), tables.training.num_rows());

  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const std::vector<AggQuery> queries = {
      MakeQuery(AggFunction::kSum, {}),
      MakeQuery(AggFunction::kMedian, {pa}),
  };
  const Table* trainings[] = {&tables.training, &reversed};
  QueryPlanner reused;
  for (const Table* training : trainings) {
    auto got = reused.EvaluateMany(queries, *training, tables.relevant);
    QueryPlanner fresh;
    auto want = fresh.EvaluateMany(queries, *training, tables.relevant);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectColumnsBitIdentical(got.value()[i], want.value()[i],
                                training == &reversed ? "reversed" : "first");
    }
  }
}

TEST(QueryPlannerTest, OnlyOrderStatisticsBuildAValueOrder) {
  const Pair tables = MakePair();
  QueryPlanner planner;
  // A streaming aggregate reads the value view alone: no value order.
  auto one = planner.ComputeFeatureColumn(MakeQuery(AggFunction::kSum, {}),
                                          tables.training, tables.relevant);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(planner.store().num_order_builds(), 0u);
  EXPECT_EQ(planner.last_plan_stats().kernel_tasks, 1u);
  // An order-statistic aggregate reads its pair's value order, alone or
  // not: one ValueOrder build.
  auto med = planner.ComputeFeatureColumn(MakeQuery(AggFunction::kMedian, {}),
                                          tables.training, tables.relevant);
  ASSERT_TRUE(med.ok());
  EXPECT_EQ(planner.store().num_order_builds(), 1u);
}

// --- Publish-once under concurrent builds ------------------------------------

TEST(QueryPlannerTest, ParallelPrepareBuildsEachArtifactExactlyOnce) {
  const Pair tables = MakePair();
  // A wide pool in which every candidate wants the *same* group index,
  // view, and mask: parallel prepare must still build each exactly once
  // (the planner dedups requests; the store publishes once).
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    queries.push_back(
        MakeQuery(fn, {Predicate::Equals("dept", Value::Str("b"))}));
  }
  ThreadPool pool(8);
  QueryPlanner planner;
  planner.set_thread_pool(&pool);
  auto result = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(planner.store().num_group_builds(), 1u);
  EXPECT_EQ(planner.store().num_mask_builds(), 1u);
  EXPECT_EQ(planner.store().num_view_builds(), 1u);
  EXPECT_EQ(planner.store().num_order_builds(), 1u);  // the 5 order stats
  EXPECT_EQ(planner.store().num_train_map_builds(), 1u);
  const QueryPlanner::PlanStats& stats = planner.last_plan_stats();
  EXPECT_EQ(stats.builds_run, 5u);  // group, mask, view; map; value order
  EXPECT_EQ(stats.stages_run, 3u);
  // 10 streaming candidates and 5 order statistics over 160 rows, each far
  // under 8k rows: one kernel item per candidate.
  EXPECT_EQ(stats.kernel_tasks, queries.size());
}

// --- Determinism of parallel prepare across thread counts --------------------

TEST(QueryPlannerTest, ParallelPrepareIsByteIdenticalAcrossThreadCounts) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", std::nullopt, 2.0);
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    queries.push_back(MakeQuery(fn, {}));
    queries.push_back(MakeQuery(fn, {pa}));
    queries.push_back(MakeQuery(fn, {pa, pb}));
  }

  QueryPlanner serial;
  auto reference = serial.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok());

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    QueryPlanner planner;
    planner.set_thread_pool(&pool);
    auto result = planner.EvaluateMany(queries, tables.training, tables.relevant);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectColumnsBitIdentical(result.value()[i], reference.value()[i],
                                std::to_string(threads) + " threads, q" +
                                    std::to_string(i));
    }
  }
}

// --- Eviction pinning across parallel prepare --------------------------------

TEST(QueryPlannerTest, EvictionPinningHoldsUnderParallelPrepare) {
  const Pair tables = MakePair();
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    queries.push_back(
        MakeQuery(fn, {Predicate::Equals("dept", Value::Str("a")),
                       Predicate::Range("level", 1.0, 3.0)}));
  }
  ThreadPool pool(8);
  QueryPlanner planner;
  planner.set_thread_pool(&pool);
  planner.set_mask_cache_cap_bytes(1);
  auto first = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Every over-cap entry belongs to the in-flight batch: pinned, 0 evicted.
  EXPECT_EQ(planner.num_evictions(), 0u);

  QueryPlanner fresh;
  auto expected = fresh.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(first.value()[i], expected.value()[i],
                              "tiny-cap parallel batch");
  }

  // The next batch unpins the previous epoch's entries and evicts them.
  std::vector<AggQuery> second;
  for (AggFunction fn : AllAggFunctions()) {
    second.push_back(MakeQuery(fn, {Predicate::Range("level", 0.0, 1.0)}));
  }
  auto second_result =
      planner.EvaluateMany(second, tables.training, tables.relevant);
  ASSERT_TRUE(second_result.ok());
  EXPECT_GT(planner.num_evictions(), 0u);
}

// --- Compile memoization across overlapping pools ----------------------------

TEST(QueryPlannerTest, CompileMemoServesOverlappingPools) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", 1.0, 3.0);
  const std::vector<AggQuery> first_pool = {
      MakeQuery(AggFunction::kSum, {pa}),
      MakeQuery(AggFunction::kAvg, {pa}),
      MakeQuery(AggFunction::kSum, {pa, pb}),
      MakeQuery(AggFunction::kMedian, {}),
  };
  // The HPO-round pattern: the next pool overlaps the previous one.
  std::vector<AggQuery> second_pool = first_pool;
  second_pool.push_back(MakeQuery(AggFunction::kMin, {pb}));
  second_pool.push_back(MakeQuery(AggFunction::kMax, {pa, pb}));

  QueryPlanner planner;
  auto first = planner.EvaluateMany(first_pool, tables.training, tables.relevant);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(planner.last_plan_stats().compile_hits, 0u);
  EXPECT_EQ(planner.last_plan_stats().compile_misses, first_pool.size());

  auto second =
      planner.EvaluateMany(second_pool, tables.training, tables.relevant);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // The overlap re-resolves from the memo; only the two new candidates
  // compile fresh.
  EXPECT_EQ(planner.last_plan_stats().compile_hits, first_pool.size());
  EXPECT_EQ(planner.last_plan_stats().compile_misses, 2u);
  EXPECT_EQ(planner.compile_cache_hits(), first_pool.size());
  EXPECT_EQ(planner.compile_cache_misses(), first_pool.size() + 2u);
  EXPECT_EQ(planner.compile_cache_size(), first_pool.size() + 2u);
}

TEST(QueryPlannerTest, DuplicateCandidatesWithinABatchHitTheMemo) {
  const Pair tables = MakePair();
  const AggQuery q =
      MakeQuery(AggFunction::kSum, {Predicate::Equals("dept", Value::Str("b"))});
  QueryPlanner planner;
  auto result =
      planner.EvaluateMany({q, q, q}, tables.training, tables.relevant);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(planner.last_plan_stats().compile_misses, 1u);
  EXPECT_EQ(planner.last_plan_stats().compile_hits, 2u);
}

TEST(QueryPlannerTest, WarmRecompileIsByteIdenticalToColdAcrossThreadCounts) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", std::nullopt, 2.0);
  std::vector<AggQuery> first_pool;
  std::vector<AggQuery> second_pool;
  for (AggFunction fn : AllAggFunctions()) {
    first_pool.push_back(MakeQuery(fn, {pa}));
    second_pool.push_back(MakeQuery(fn, {pa}));         // full overlap
    second_pool.push_back(MakeQuery(fn, {pa, pb}));     // new conjunctions
  }

  // Cold reference: a fresh serial planner sees the second pool only.
  QueryPlanner cold;
  auto reference =
      cold.EvaluateMany(second_pool, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(cold.compile_cache_hits(), 0u);

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    QueryPlanner warm;
    warm.set_thread_pool(&pool);
    auto warmup =
        warm.EvaluateMany(first_pool, tables.training, tables.relevant);
    ASSERT_TRUE(warmup.ok());
    auto result =
        warm.EvaluateMany(second_pool, tables.training, tables.relevant);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The warm re-compile is a memo hit for the overlap...
    EXPECT_EQ(warm.last_plan_stats().compile_hits, first_pool.size())
        << threads << " threads";
    // ...and byte-identical to the cold compile.
    for (size_t i = 0; i < second_pool.size(); ++i) {
      ExpectColumnsBitIdentical(result.value()[i], reference.value()[i],
                                std::to_string(threads) + " threads, q" +
                                    std::to_string(i));
    }
  }
}

TEST(QueryPlannerTest, CompileMemoIsEntryCapped) {
  const Pair tables = MakePair();
  std::vector<AggQuery> pool = {
      MakeQuery(AggFunction::kSum, {}),
      MakeQuery(AggFunction::kAvg, {}),
      MakeQuery(AggFunction::kMin, {}),
      MakeQuery(AggFunction::kMax, {}),
  };
  QueryPlanner planner;
  planner.set_compile_cache_cap_entries(2);
  // One batch may exceed the cap (flushes happen between batches only).
  ASSERT_TRUE(
      planner.EvaluateMany(pool, tables.training, tables.relevant).ok());
  EXPECT_EQ(planner.compile_cache_size(), pool.size());
  EXPECT_EQ(planner.compile_cache_flushes(), 0u);
  // The next batch starts above the cap: wholesale flush, then re-miss.
  ASSERT_TRUE(
      planner.EvaluateMany(pool, tables.training, tables.relevant).ok());
  EXPECT_EQ(planner.compile_cache_flushes(), 1u);
  EXPECT_EQ(planner.last_plan_stats().compile_hits, 0u);
  EXPECT_EQ(planner.last_plan_stats().compile_misses, pool.size());
}

TEST(QueryPlannerTest, InvalidCandidatesAreNeverMemoized) {
  const Pair tables = MakePair();
  AggQuery bad = MakeQuery(AggFunction::kSum, {});
  bad.agg_attr = "no_such_column";
  QueryPlanner planner;
  EXPECT_FALSE(
      planner.EvaluateMany({bad}, tables.training, tables.relevant).ok());
  // Validation must run (and fail) again: the memo only holds valid shapes.
  EXPECT_FALSE(
      planner.EvaluateMany({bad}, tables.training, tables.relevant).ok());
  EXPECT_EQ(planner.compile_cache_size(), 0u);
  EXPECT_EQ(planner.compile_cache_hits(), 0u);
}

// --- Serving plan lifetime ---------------------------------------------------

// A ServingPlan owns everything it reads but the relevant table: the
// compiling planner (and its store) and the query vector may die first.
TEST(QueryPlannerTest, ServingPlanOutlivesItsPlanner) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", std::nullopt, 2.0);
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    queries.push_back(MakeQuery(fn, {}));
    queries.push_back(MakeQuery(fn, {pa}));
    queries.push_back(MakeQuery(fn, {pa, pb}));
  }

  std::optional<ServingPlan> plan;
  {
    const std::vector<AggQuery> scoped_queries = queries;
    QueryPlanner planner;
    auto compiled = planner.CompileServingPlan(scoped_queries, tables.relevant);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    plan.emplace(std::move(compiled).ValueOrDie());
  }

  QueryPlanner fresh;
  auto reference =
      fresh.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ThreadPool pool(2);
  for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto served = ExecuteServingPlan(*plan, tables.training, use_pool);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served.value().size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectColumnsBitIdentical(
          served.value()[i], reference.value()[i],
          std::string(use_pool == nullptr ? "inline" : "2 threads") + ", q" +
              std::to_string(i));
    }
  }
}

// --- Morsel stats -------------------------------------------------------------

// last_morsel_stats() describes the last evaluation, whichever entry point ran
// it: an in-RAM ComputeFeatureColumn after a morsel-mode EvaluateMany must
// not report the earlier run's morsels.
TEST(QueryPlannerTest, InRamEvaluationZeroesMorselStats) {
  const Pair tables = MakePair();
  QueryPlanner planner;
  planner.set_morsel_rows(17);
  ASSERT_TRUE(planner
                  .EvaluateMany({MakeQuery(AggFunction::kVar, {})},
                                tables.training, tables.relevant)
                  .ok());
  EXPECT_EQ(planner.last_morsel_stats().morsels, 10u);  // ceil(160 / 17)
  EXPECT_EQ(planner.last_morsel_stats().sweeps, 2u);

  planner.set_morsel_rows(0);
  ASSERT_TRUE(planner
                  .ComputeFeatureColumn(MakeQuery(AggFunction::kSum, {}),
                                        tables.training, tables.relevant)
                  .ok());
  EXPECT_EQ(planner.last_morsel_stats().morsels, 0u);
  EXPECT_EQ(planner.last_morsel_stats().sweeps, 0u);
}

// --- Splitting one candidate's work across the pool -------------------------

// A relevant table of far more than 8k rows per (group keys, attribute)
// pair: 70001 rows (a partial tail word) over 40 keys, with nulls and
// signed zeros in the values.
Pair MakeLargePair() {
  Pair out;
  Rng rng(23);
  const char* depts[] = {"a", "b", "c"};
  Column k(DataType::kInt64), v(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
  for (int i = 0; i < 70001; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(40)));
    if (rng.Bernoulli(0.2)) {
      v.AppendNull();
    } else if (rng.Bernoulli(0.05)) {
      v.AppendDouble(rng.Bernoulli(0.5) ? 0.0 : -0.0);
    } else {
      v.AppendDouble(std::round(rng.Normal(0, 5) * 4) / 4);
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(4)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  EXPECT_TRUE(out.relevant.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("v", std::move(v)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());
  Column dk(DataType::kInt64);
  for (int i = 0; i < 50; ++i) dk.AppendInt(i % 45);
  EXPECT_TRUE(out.training.AddColumn("k", std::move(dk)).ok());
  return out;
}

// A lone MEDIAN (one order-statistic candidate) and a mixed pool of eight
// (four order statistics over one ValueOrder, four streaming candidates —
// MIN and KURTOSIS on one mask among them) over a large table: the value
// order sorts in several group-range tasks, every order-statistic candidate
// runs as several group-range items, and the columns are byte-identical at
// every thread count — equal to the 1-thread run and to the morsel
// pipeline, which splits nothing.
TEST(QueryPlannerTest, SplitCandidatesAreByteIdenticalAcrossThreadCounts) {
  const Pair tables = MakeLargePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", 1.0, 3.0);
  const std::vector<AggQuery> lone = {MakeQuery(AggFunction::kMedian, {})};
  const std::vector<AggQuery> mixed = {
      MakeQuery(AggFunction::kMedian, {pa}),
      MakeQuery(AggFunction::kCountDistinct, {pa}),
      MakeQuery(AggFunction::kMode, {pa}),
      MakeQuery(AggFunction::kEntropy, {pa}),
      MakeQuery(AggFunction::kMin, {pa}),
      MakeQuery(AggFunction::kKurtosis, {pa}),
      MakeQuery(AggFunction::kSum, {pb}),
      MakeQuery(AggFunction::kVarSample, {pa, pb}),
  };
  for (const std::vector<AggQuery>* queries : {&lone, &mixed}) {
    const size_t n_order = queries == &lone ? 1 : 4;
    QueryPlanner morsel;
    morsel.set_morsel_rows(size_t{1} << 20);
    auto oracle =
        morsel.EvaluateMany(*queries, tables.training, tables.relevant);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    std::optional<std::vector<std::vector<double>>> one_thread;
    for (const int threads : {1, 2, 4, 8}) {
      const std::string ctx = std::to_string(queries->size()) +
                              " candidates, " + std::to_string(threads) +
                              " threads";
      ThreadPool pool(threads);
      QueryPlanner planner;
      planner.set_thread_pool(&pool);
      auto result =
          planner.EvaluateMany(*queries, tables.training, tables.relevant);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const QueryPlanner::PlanStats& stats = planner.last_plan_stats();
      // Order statistics read the one ValueOrder; every other candidate
      // streams. Builds: group index, view, value order and training-row
      // map, plus masks pa and pb and their conjunction in the mixed pool.
      EXPECT_EQ(stats.order_requests, 1u) << ctx;
      EXPECT_EQ(stats.builds_run, queries == &lone ? 4u : 7u) << ctx;
      EXPECT_EQ(stats.stages_run, 3u) << ctx;
      // Every order statistic walks all 70001 rows, so each splits into
      // several group ranges; each streaming candidate is one item.
      EXPECT_GE(stats.kernel_tasks, 2 * n_order + queries->size() - n_order)
          << ctx;
      if (!one_thread) one_thread = result.value();
      for (size_t i = 0; i < queries->size(); ++i) {
        ExpectColumnsBitIdentical(result.value()[i], (*one_thread)[i],
                                  ctx + ", q" + std::to_string(i));
        ExpectColumnsBitIdentical(result.value()[i], oracle.value()[i],
                                  ctx + " vs morsel, q" + std::to_string(i));
      }
    }
  }
}

// --- Error propagation from staged builds ------------------------------------

TEST(QueryPlannerTest, StagedBuildErrorsAbortTheBatch) {
  const Pair tables = MakePair();
  // Training-row mapping fails in stage B: the group key exists in R but
  // not in D.
  AggQuery bad;
  bad.agg = AggFunction::kSum;
  bad.agg_attr = "v";
  bad.group_keys = {"level"};  // in R, not in training
  QueryPlanner planner;
  ThreadPool pool(4);
  planner.set_thread_pool(&pool);
  auto result = planner.EvaluateMany({bad}, tables.training, tables.relevant);
  EXPECT_FALSE(result.ok());

  // Mixed batch: one bad candidate fails the whole batch (all-or-nothing),
  // but the planner instance stays usable afterwards.
  auto mixed = planner.EvaluateMany({MakeQuery(AggFunction::kSum, {}), bad},
                                    tables.training, tables.relevant);
  EXPECT_FALSE(mixed.ok());
  auto good = planner.EvaluateMany({MakeQuery(AggFunction::kSum, {})},
                                   tables.training, tables.relevant);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

}  // namespace
}  // namespace featlib
