/// \file morsel_test.cc
/// \brief Pins the out-of-core morsel executor's contract (query/morsel.h):
/// the row-range partition itself, byte-identity of every aggregate against
/// the single-pass oracle across morsel sizes and thread counts, boundary-
/// spanning groups, all-null morsels, entry-point parity (EvaluateMany,
/// EvaluateManyIsolated, ComputeFeatureColumn), isolated per-candidate
/// failure, serving-plan identity against the in-RAM
/// EvaluateMany (empty relevant table included), the "morsel.build" /
/// "morsel.merge" fault sites, and the bounded-memory guarantee (a budget
/// the in-RAM path exhausts while the morsel path fits).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/morsel.h"
#include "query/query_planner.h"

namespace featlib {
namespace {

// NaN-tolerant bit equality: the determinism contract is "same bytes", and
// NaN payloads produced by the same code path are identical.
bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

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

// Random (relevant, training) pair in the executor_parallel_test shape:
// compound keys, NULL-heavy values, predicate attributes.
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
  Column value(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
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

// Every aggregate crossed with predicate combos (none / single / conjunction
// / empty selection), plus compound-key COUNT(*) variants — the pool shape
// the search produces, covering all 15 kernels.
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

// --- The partition itself ----------------------------------------------------

TEST(MorselTest, SplitCoversRowsExactly) {
  {
    const MorselSet set = MorselSet::Split(10, 4);
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set[0].begin, 0u);
    EXPECT_EQ(set[0].end, 4u);
    EXPECT_EQ(set[1].begin, 4u);
    EXPECT_EQ(set[1].end, 8u);
    EXPECT_EQ(set[2].begin, 8u);
    EXPECT_EQ(set[2].end, 10u);  // short trailing morsel, never empty
    EXPECT_EQ(set[2].rows(), 2u);
  }
  {
    // Exact division: no empty trailing morsel.
    const MorselSet set = MorselSet::Split(8, 4);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set[1].end, 8u);
  }
  {
    // morsel_rows > n_rows degenerates to one whole-table morsel.
    const MorselSet set = MorselSet::Split(3, 1024);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set[0].rows(), 3u);
  }
  {
    // morsel_rows == 0 is the explicit whole-table spelling.
    const MorselSet set = MorselSet::Split(5, 0);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set[0].rows(), 5u);
  }
  EXPECT_TRUE(MorselSet::Split(0, 16).empty());
}

// --- Byte-identity against the single-pass oracle ----------------------------

TEST(MorselTest, EveryAggregateBitIdenticalAcrossMorselSizesAndThreads) {
  Rng rng(611);
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();
  const size_t n = tables.relevant.num_rows();

  // Oracle: the in-RAM single-pass path (morsel_rows == 0).
  QueryPlanner oracle;
  auto reference =
      oracle.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(oracle.last_morsel_stats().morsels, 0u);

  const size_t morsel_sizes[] = {1, 7, 1024, n - 1, n};
  for (const size_t morsel_rows : morsel_sizes) {
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      QueryPlanner planner;
      planner.set_thread_pool(&pool);
      planner.set_morsel_rows(morsel_rows);
      auto streamed =
          planner.EvaluateMany(queries, tables.training, tables.relevant);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ASSERT_EQ(streamed.value().size(), queries.size());
      const std::string context = "morsel_rows=" + std::to_string(morsel_rows) +
                                  " threads=" + std::to_string(threads);
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectColumnsBitIdentical(streamed.value()[i], reference.value()[i],
                                  context + " " + queries[i].CacheKey());
      }
      // The pool contains VAR/STD/KURTOSIS candidates, so the pipeline must
      // have re-streamed a second sweep over all morsels.
      const MorselExecStats& stats = planner.last_morsel_stats();
      EXPECT_EQ(stats.morsels, (n + morsel_rows - 1) / morsel_rows) << context;
      EXPECT_EQ(stats.sweeps, 2u) << context;
    }
  }

  // Entry-point parity, in RAM and streamed: ComputeFeatureColumn and
  // EvaluateManyIsolated return EvaluateMany's bytes, and a batch with one
  // invalid candidate fails EvaluateMany with the code EvaluateManyIsolated
  // puts in that candidate's slot.
  AggQuery bad;
  bad.agg = AggFunction::kSum;
  bad.agg_attr = "no_such_column";
  bad.group_keys = {"uid"};
  const size_t bad_slot = 3;
  std::vector<AggQuery> with_bad = queries;
  with_bad.insert(with_bad.begin() + bad_slot, bad);
  for (const size_t morsel_rows : {size_t{0}, size_t{17}}) {
    const std::string context =
        "parity morsel_rows=" + std::to_string(morsel_rows);
    QueryPlanner planner;
    planner.set_morsel_rows(morsel_rows);
    auto many = planner.EvaluateMany(queries, tables.training, tables.relevant);
    ASSERT_TRUE(many.ok()) << context << ": " << many.status().ToString();
    auto isolated =
        planner.EvaluateManyIsolated(queries, tables.training, tables.relevant);
    ASSERT_TRUE(isolated.ok()) << context;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string slot = context + " " + queries[i].CacheKey();
      ASSERT_TRUE(isolated.value()[i].status.ok()) << slot;
      ExpectColumnsBitIdentical(isolated.value()[i].values, many.value()[i],
                                slot + " isolated");
      auto column = planner.ComputeFeatureColumn(queries[i], tables.training,
                                                 tables.relevant);
      ASSERT_TRUE(column.ok()) << slot;
      ExpectColumnsBitIdentical(column.value(), many.value()[i],
                                slot + " column");
    }

    auto failed =
        planner.EvaluateMany(with_bad, tables.training, tables.relevant);
    ASSERT_FALSE(failed.ok()) << context;
    auto slots = planner.EvaluateManyIsolated(with_bad, tables.training,
                                              tables.relevant);
    ASSERT_TRUE(slots.ok()) << context;
    EXPECT_FALSE(slots.value()[bad_slot].status.ok()) << context;
    EXPECT_EQ(failed.status().code(), slots.value()[bad_slot].status.code())
        << context;
  }
}

TEST(MorselTest, GroupsSpanningMorselBoundaries) {
  // Group 7 contributes rows to every morsel; group ids must come out
  // first-seen across the whole table, not per-morsel.
  Table relevant;
  Column uid(DataType::kInt64), value(DataType::kDouble);
  for (int i = 0; i < 30; ++i) {
    uid.AppendInt(i % 3 == 0 ? 7 : (i % 5));
    value.AppendDouble(0.1 * i - 1.5);
  }
  ASSERT_TRUE(relevant.AddColumn("uid", std::move(uid)).ok());
  ASSERT_TRUE(relevant.AddColumn("value", std::move(value)).ok());
  Table training;
  ASSERT_TRUE(training
                  .AddColumn("uid", Column::FromInts(DataType::kInt64,
                                                     {7, 0, 1, 2, 3, 4, 9}))
                  .ok());

  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = "value";
    q.group_keys = {"uid"};
    queries.push_back(std::move(q));
  }

  QueryPlanner oracle;
  auto reference = oracle.EvaluateMany(queries, training, relevant);
  ASSERT_TRUE(reference.ok());
  for (const size_t morsel_rows : {1u, 4u, 29u}) {
    QueryPlanner planner;
    planner.set_morsel_rows(morsel_rows);
    auto streamed = planner.EvaluateMany(queries, training, relevant);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectColumnsBitIdentical(
          streamed.value()[i], reference.value()[i],
          "boundary morsel_rows=" + std::to_string(morsel_rows));
    }
  }
}

TEST(MorselTest, AllNullMorselsAndNullGroupKeys) {
  // Rows 8..15 are entirely null in both the value and the group key: one
  // whole morsel (at morsel_rows=4) contributes nothing to any group, and
  // null-keyed rows join no group at all.
  Table relevant;
  Column uid(DataType::kInt64), value(DataType::kDouble);
  for (int i = 0; i < 24; ++i) {
    if (i >= 8 && i < 16) {
      uid.AppendNull();
      value.AppendNull();
    } else {
      uid.AppendInt(i % 2);
      // Null-heavy values elsewhere too (COUNT vs COUNT(*) divergence).
      if (i % 3 == 0) {
        value.AppendNull();
      } else {
        value.AppendDouble(static_cast<double>(i));
      }
    }
  }
  ASSERT_TRUE(relevant.AddColumn("uid", std::move(uid)).ok());
  ASSERT_TRUE(relevant.AddColumn("value", std::move(value)).ok());
  Table training;
  ASSERT_TRUE(
      training.AddColumn("uid", Column::FromInts(DataType::kInt64, {0, 1, 2}))
          .ok());

  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = "value";
    q.group_keys = {"uid"};
    queries.push_back(std::move(q));
  }
  AggQuery count_star;
  count_star.agg = AggFunction::kCount;
  count_star.group_keys = {"uid"};
  queries.push_back(std::move(count_star));

  QueryPlanner oracle;
  auto reference = oracle.EvaluateMany(queries, training, relevant);
  ASSERT_TRUE(reference.ok());
  QueryPlanner planner;
  planner.set_morsel_rows(4);
  auto streamed = planner.EvaluateMany(queries, training, relevant);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(streamed.value()[i], reference.value()[i],
                              "all-null morsel");
  }
}

TEST(MorselTest, ComputeFeatureColumnRoutesThroughMorsels) {
  Rng rng(613);
  const RandomPair tables = MakeRandomPair(&rng);
  AggQuery q;
  q.agg = AggFunction::kAvg;
  q.agg_attr = "value";
  q.group_keys = {"uid"};

  QueryPlanner oracle;
  auto reference =
      oracle.ComputeFeatureColumn(q, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok());
  QueryPlanner planner;
  planner.set_morsel_rows(9);
  auto streamed =
      planner.ComputeFeatureColumn(q, tables.training, tables.relevant);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectColumnsBitIdentical(streamed.value(), reference.value(),
                            "ComputeFeatureColumn");
  EXPECT_GT(planner.last_morsel_stats().morsels, 1u);
}

// --- Isolated per-candidate failure ------------------------------------------

TEST(MorselTest, IsolatedInvalidCandidateFailsAloneUnderMorsels) {
  Rng rng(614);
  const RandomPair tables = MakeRandomPair(&rng);
  std::vector<AggQuery> queries = MakeCandidatePool();
  AggQuery bad;
  bad.agg = AggFunction::kSum;
  bad.agg_attr = "no_such_column";
  bad.group_keys = {"uid"};
  const size_t bad_slot = 3;
  queries.insert(queries.begin() + bad_slot, bad);

  // Oracle: the isolated in-RAM path over the same batch.
  QueryPlanner oracle;
  auto reference =
      oracle.EvaluateManyIsolated(queries, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok());

  QueryPlanner planner;
  planner.set_morsel_rows(11);
  auto streamed =
      planner.EvaluateManyIsolated(queries, tables.training, tables.relevant);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == bad_slot) {
      EXPECT_FALSE(streamed.value()[i].status.ok());
      EXPECT_FALSE(reference.value()[i].status.ok());
      continue;
    }
    ASSERT_TRUE(streamed.value()[i].status.ok())
        << streamed.value()[i].status.ToString();
    ExpectColumnsBitIdentical(streamed.value()[i].values,
                              reference.value()[i].values, "isolated slot");
  }
}

// --- Serving plan ------------------------------------------------------------

// The frozen serving plan, at every morsel size, inline and on a pool, maps
// each batch to exactly what a fresh planner's in-RAM EvaluateMany computes
// for it — including a relevant table with no rows, where every feature is
// NaN on both sides.
TEST(MorselTest, ServingPlanMatchesInRamEvaluateMany) {
  Rng rng(615);
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();
  const Table empty_relevant = tables.relevant.Take({});
  ASSERT_EQ(empty_relevant.num_rows(), 0u);

  for (const Table* relevant : {&tables.relevant, &empty_relevant}) {
    const size_t n = relevant->num_rows();
    QueryPlanner oracle;
    auto reference = oracle.EvaluateMany(queries, tables.training, *relevant);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference.value().size(), queries.size());
    if (n == 0) {
      for (const std::vector<double>& column : reference.value()) {
        for (double v : column) ASSERT_TRUE(std::isnan(v));
      }
    }

    for (const size_t morsel_rows : {size_t{0}, size_t{17}, n}) {
      for (const int threads : {0, 2}) {
        ThreadPool pool(threads == 0 ? 1 : threads);
        ThreadPool* use_pool = threads == 0 ? nullptr : &pool;
        QueryPlanner planner;
        planner.set_thread_pool(use_pool);
        planner.set_morsel_rows(morsel_rows);
        auto plan = planner.CompileServingPlan(queries, *relevant);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        ASSERT_EQ(plan.value().per_group_features.size(), queries.size());
        auto served =
            ExecuteServingPlan(plan.value(), tables.training, use_pool);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ASSERT_EQ(served.value().size(), queries.size());
        const std::string context = "rows=" + std::to_string(n) +
                                    " morsel_rows=" +
                                    std::to_string(morsel_rows) +
                                    " threads=" + std::to_string(threads);
        for (size_t i = 0; i < queries.size(); ++i) {
          ExpectColumnsBitIdentical(served.value()[i], reference.value()[i],
                                    context + " " + queries[i].CacheKey());
        }
      }
    }
  }
}

// --- Fault sites -------------------------------------------------------------

#ifdef FEATLIB_FAULT_INJECTION

class MorselFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(MorselFaultTest, MergeFaultFailsFastWithoutIsolation) {
  Rng rng(616);
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();

  FaultInjector::Global().ArmSite("morsel.merge", 2);
  QueryPlanner planner;  // no pool: deterministic combine order
  planner.set_morsel_rows(16);
  auto streamed =
      planner.EvaluateMany(queries, tables.training, tables.relevant);
  EXPECT_FALSE(streamed.ok());
  EXPECT_GE(FaultInjector::Global().faults_injected(), 1u);
}

TEST_F(MorselFaultTest, MergeFaultIsolatesToItsOwnSlot) {
  Rng rng(616);  // same tables as the fail-fast case
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();

  QueryPlanner oracle;
  auto reference =
      oracle.EvaluateManyIsolated(queries, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok());

  // Serial combine order is candidate order within each morsel, so call #2
  // of the per-candidate merge site belongs to candidate 2's first morsel.
  FaultInjector::Global().ArmSite("morsel.merge", 2);
  QueryPlanner planner;
  planner.set_morsel_rows(16);
  auto streamed =
      planner.EvaluateManyIsolated(queries, tables.training, tables.relevant);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  size_t failed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!streamed.value()[i].status.ok()) {
      ++failed;
      EXPECT_EQ(i, 2u);
      continue;
    }
    ASSERT_TRUE(reference.value()[i].status.ok());
    ExpectColumnsBitIdentical(streamed.value()[i].values,
                              reference.value()[i].values,
                              "merge-fault survivor");
  }
  EXPECT_EQ(failed, 1u);

  // Disarmed, the identical call succeeds — the planner held no poisoned
  // state from the injected failure.
  FaultInjector::Global().Reset();
  auto retry =
      planner.EvaluateManyIsolated(queries, tables.training, tables.relevant);
  ASSERT_TRUE(retry.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(retry.value()[i].status.ok());
    ExpectColumnsBitIdentical(retry.value()[i].values,
                              reference.value()[i].values, "disarmed retry");
  }
}

TEST_F(MorselFaultTest, BuildFaultIsBatchWideEvenWhenIsolated) {
  Rng rng(617);
  const RandomPair tables = MakeRandomPair(&rng);
  const std::vector<AggQuery> queries = MakeCandidatePool();

  FaultInjector::Global().ArmSite("morsel.build", 1);
  QueryPlanner planner;
  planner.set_morsel_rows(16);
  auto streamed =
      planner.EvaluateManyIsolated(queries, tables.training, tables.relevant);
  EXPECT_FALSE(streamed.ok());  // a lost morsel poisons every candidate
}

#endif  // FEATLIB_FAULT_INJECTION

// --- The bounded-memory guarantee --------------------------------------------

TEST(MorselTest, PeakMemoryBoundedByMorselsNotTable) {
  // A table big enough that whole-table artifacts dominate: the morsel
  // path's peak (one in-flight morsel + per-group state) must undercut the
  // in-RAM path's, and a budget between the two peaks must pass the morsel
  // path while exhausting the in-RAM one.
  const size_t n = 20000;
  Table relevant;
  Column uid(DataType::kInt64), value(DataType::kDouble);
  Rng rng(618);
  for (size_t i = 0; i < n; ++i) {
    uid.AppendInt(static_cast<int64_t>(i % 500));
    value.AppendDouble(rng.Normal(0, 1));
  }
  ASSERT_TRUE(relevant.AddColumn("uid", std::move(uid)).ok());
  ASSERT_TRUE(relevant.AddColumn("value", std::move(value)).ok());
  Table training;
  Column d_uid(DataType::kInt64);
  for (int i = 0; i < 600; ++i) d_uid.AppendInt(i);
  ASSERT_TRUE(training.AddColumn("uid", std::move(d_uid)).ok());

  // Streaming + two-sweep candidates only (buffered aggregates like MEDIAN
  // legitimately hold all selected values, which is not the bound under
  // test).
  std::vector<AggQuery> queries;
  for (AggFunction fn : {AggFunction::kSum, AggFunction::kAvg,
                         AggFunction::kMin, AggFunction::kVar}) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = "value";
    q.group_keys = {"uid"};
    queries.push_back(std::move(q));
  }

  ExecContext legacy_ctx;
  QueryPlanner legacy;
  auto legacy_out =
      legacy.EvaluateMany(queries, training, relevant, &legacy_ctx);
  ASSERT_TRUE(legacy_out.ok()) << legacy_out.status().ToString();
  const size_t legacy_peak = legacy_ctx.peak_charged_bytes();

  ExecContext morsel_ctx;
  QueryPlanner morsel;
  morsel.set_morsel_rows(512);
  auto morsel_out =
      morsel.EvaluateMany(queries, training, relevant, &morsel_ctx);
  ASSERT_TRUE(morsel_out.ok()) << morsel_out.status().ToString();
  const size_t morsel_peak = morsel_ctx.peak_charged_bytes();

  ASSERT_GT(legacy_peak, 0u);
  ASSERT_GT(morsel_peak, 0u);
  EXPECT_LT(morsel_peak, legacy_peak)
      << "morsel=" << morsel_peak << " legacy=" << legacy_peak;
  EXPECT_EQ(morsel.last_morsel_stats().peak_artifact_bytes > 0, true);

  // Identical bytes while we are here.
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(morsel_out.value()[i], legacy_out.value()[i],
                              "bounded-memory run");
  }

  // The budget with teeth: midway between the two peaks, the morsel path
  // fits and the whole-table path must refuse rather than overshoot.
  const size_t budget = morsel_peak + (legacy_peak - morsel_peak) / 2;
  ExecContext bounded_ok;
  bounded_ok.set_memory_budget_bytes(budget);
  QueryPlanner bounded_morsel;
  bounded_morsel.set_morsel_rows(512);
  auto fits =
      bounded_morsel.EvaluateMany(queries, training, relevant, &bounded_ok);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();

  ExecContext bounded_fail;
  bounded_fail.set_memory_budget_bytes(budget);
  QueryPlanner bounded_legacy;
  auto refused =
      bounded_legacy.EvaluateMany(queries, training, relevant, &bounded_fail);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
}

}  // namespace
}  // namespace featlib
