/// \file fault_tolerance_test.cc
/// \brief Fault-tolerant execution, end to end: injected build/kernel faults
/// surface as clean typed Statuses, failed candidates are isolated while the
/// survivors stay byte-identical to an uninjected run, and cancellation
/// mid-prepare never publishes a half-built stage (a later run on the same
/// store is byte-identical to a fresh one).
///
/// Targeted armings count per-site calls, which are deterministic only when
/// builds run serially — the planners here stay on the default (serial)
/// execution path, except where a site fires on the coordinator thread
/// whatever the pool; the rest of the thread-pool interaction is covered by
/// exec_context_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <new>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/augmenter.h"
#include "core/feature_eval.h"
#include "core/search_session.h"
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

// The canonical batch: one group-key set, two distinct predicate masks, a
// shared bucket (Sum/Avg over pa) so all three prepare stages (group/mask/
// view, train-map, materialization) schedule builds.
std::vector<AggQuery> CanonicalQueries() {
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", 1.0, 3.0);
  return {
      MakeQuery(AggFunction::kSum, {pa}),
      MakeQuery(AggFunction::kAvg, {pa}),
      MakeQuery(AggFunction::kSum, {}),
      MakeQuery(AggFunction::kMax, {pb}),
  };
}

// Expected columns from a fresh, uninjected planner (the byte-identity
// reference every isolation test compares against).
std::vector<std::vector<double>> Reference(const Pair& tables,
                                           const std::vector<AggQuery>& qs) {
  QueryPlanner planner;
  auto r = planner.EvaluateMany(qs, tables.training, tables.relevant);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : std::vector<std::vector<double>>{};
}

#ifdef FEATLIB_FAULT_INJECTION

// Every test arms the process-wide injector; the fixture guarantees no
// arming leaks into neighbouring tests.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultToleranceTest, IsolatedBuildFaultSparesSurvivingCandidates) {
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = CanonicalQueries();
  const std::vector<std::vector<double>> expected = Reference(tables, queries);

  // Mask build #0 is pa (first-seen request order): candidates 0 and 1
  // depend on it (directly and through their shared bucket), 2 and 3 do not.
  FaultInjector::Global().ArmSite("prepare.mask", 0);
  QueryPlanner planner;
  auto r = planner.EvaluateManyIsolated(queries, tables.training,
                                        tables.relevant);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<QueryPlanner::CandidateResult>& slots = r.value();
  ASSERT_EQ(slots.size(), queries.size());
  for (size_t i : {size_t{0}, size_t{1}}) {
    EXPECT_EQ(slots[i].status.code(), StatusCode::kInternal) << i;
    EXPECT_NE(slots[i].status.message().find("injected fault"),
              std::string::npos)
        << slots[i].status.ToString();
  }
  for (size_t i : {size_t{2}, size_t{3}}) {
    ASSERT_TRUE(slots[i].status.ok()) << slots[i].status.ToString();
    ExpectColumnsBitIdentical(slots[i].values, expected[i],
                              "survivor " + std::to_string(i));
  }
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);

  // The failed artifact was never published: after disarming, the same
  // planner re-evaluates the full batch byte-identically to fresh.
  FaultInjector::Global().Reset();
  auto again = planner.EvaluateManyIsolated(queries, tables.training,
                                            tables.relevant);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(again.value()[i].status.ok())
        << again.value()[i].status.ToString();
    ExpectColumnsBitIdentical(again.value()[i].values, expected[i],
                              "recovered " + std::to_string(i));
  }
}

TEST_F(FaultToleranceTest, FailFastBatchSurfacesInjectedFaultAndRecovers) {
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = CanonicalQueries();
  const std::vector<std::vector<double>> expected = Reference(tables, queries);

  FaultInjector::Global().ArmSite("prepare.group", 0);
  QueryPlanner planner;
  auto r = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("injected fault"), std::string::npos);

  FaultInjector::Global().Reset();
  auto again = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(again.value()[i], expected[i],
                              "post-failure " + std::to_string(i));
  }
}

TEST_F(FaultToleranceTest, KernelFaultIsolatesOneCandidate) {
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = CanonicalQueries();
  const std::vector<std::vector<double>> expected = Reference(tables, queries);

  // Serial fan-out hits exec.kernel in candidate order: #1 is candidate 1.
  FaultInjector::Global().ArmSite("exec.kernel", 1);
  QueryPlanner planner;
  auto r = planner.EvaluateManyIsolated(queries, tables.training,
                                        tables.relevant);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 1) {
      EXPECT_EQ(r.value()[i].status.code(), StatusCode::kInternal);
      EXPECT_NE(r.value()[i].status.message().find("injected fault"),
                std::string::npos);
      continue;
    }
    ASSERT_TRUE(r.value()[i].status.ok()) << r.value()[i].status.ToString();
    ExpectColumnsBitIdentical(r.value()[i].values, expected[i],
                              "kernel survivor " + std::to_string(i));
  }
}

TEST_F(FaultToleranceTest, ThrowingBucketBuildIsolatesItsCandidates) {
  // The bucket's coordinator-side build step (fault site, chunk tallies,
  // flat array) throws; the throw becomes that bucket's Status, as a pool
  // task's would, with or without a pool. Candidates 0 and 1 share the
  // only materialized bucket.
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = CanonicalQueries();
  const std::vector<std::vector<double>> expected = Reference(tables, queries);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool");
    FaultInjector::Global().Reset();
    FaultInjector::Global().ArmHook("prepare.mat", 0,
                                    [] { throw std::bad_alloc(); });
    QueryPlanner planner;
    planner.set_thread_pool(p);
    auto r = planner.EvaluateManyIsolated(queries, tables.training,
                                          tables.relevant);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      if (i < 2) {
        EXPECT_EQ(r.value()[i].status.code(), StatusCode::kInternal);
        EXPECT_NE(r.value()[i].status.message().find("build threw"),
                  std::string::npos);
        continue;
      }
      ASSERT_TRUE(r.value()[i].status.ok()) << r.value()[i].status.ToString();
      ExpectColumnsBitIdentical(r.value()[i].values, expected[i],
                                "throw survivor " + std::to_string(i));
    }
  }
}

TEST_F(FaultToleranceTest, CancelMidPrepareNeverPublishesHalfBuiltStage) {
  // One sub-case per DAG stage: the hook cancels the context from inside the
  // stage's first build. The abandoned stage must publish nothing, and after
  // disarming, the same planner (same store) must produce byte-identical
  // results to a fresh run — i.e. the store holds only fully-published
  // artifacts, never a half-built layer.
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = CanonicalQueries();
  const std::vector<std::vector<double>> expected = Reference(tables, queries);
  const char* sites[] = {"prepare.group", "prepare.train_map", "prepare.mat"};

  for (const char* site : sites) {
    SCOPED_TRACE(site);
    ExecContext ctx;
    FaultInjector::Global().Reset();
    FaultInjector::Global().ArmHook(site, 0, [&ctx] { ctx.Cancel(); });

    QueryPlanner planner;
    auto r = planner.EvaluateManyIsolated(queries, tables.training,
                                          tables.relevant, &ctx);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    // The cancelled stage committed nothing. Materializations are the last
    // stage, so they must be absent in every sub-case; cancelling inside the
    // first stage additionally means no group index was published.
    EXPECT_EQ(planner.store().num_materializations(), 0u);
    if (std::string(site) == "prepare.group") {
      EXPECT_EQ(planner.store().num_group_builds(), 0u);
      EXPECT_EQ(planner.store().num_mask_builds(), 0u);
    }

    FaultInjector::Global().Reset();
    auto again = planner.EvaluateManyIsolated(queries, tables.training,
                                              tables.relevant);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(again.value()[i].status.ok())
          << again.value()[i].status.ToString();
      ExpectColumnsBitIdentical(again.value()[i].values, expected[i],
                                "post-cancel " + std::to_string(i));
    }
  }
}

TEST_F(FaultToleranceTest, RandomSweepIsDeterministicPerSeed) {
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = CanonicalQueries();

  auto run_once = [&](uint64_t seed) {
    FaultInjector::Global().EnableRandom(seed, 0.5);
    QueryPlanner planner;
    auto r = planner.EvaluateManyIsolated(queries, tables.training,
                                          tables.relevant);
    std::vector<std::string> pattern;
    if (r.ok()) {
      for (const auto& slot : r.value()) {
        pattern.push_back(slot.status.ToString());
      }
    } else {
      pattern.push_back("OUTER:" + r.status().ToString());
    }
    pattern.push_back(
        "faults=" + std::to_string(FaultInjector::Global().faults_injected()));
    return pattern;
  };

  const auto first = run_once(42);
  FaultInjector::Global().Reset();
  const auto second = run_once(42);
  EXPECT_EQ(first, second);

  // Probability zero injects nothing.
  FaultInjector::Global().Reset();
  FaultInjector::Global().EnableRandom(7, 0.0);
  QueryPlanner planner;
  auto clean = planner.EvaluateManyIsolated(queries, tables.training,
                                            tables.relevant);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 0u);
}

TEST_F(FaultToleranceTest, TransformManyIsolatedSparesSiblingBatches) {
  const Pair tables = MakePair();
  AugmentationPlan plan;
  plan.queries = CanonicalQueries();
  for (size_t i = 0; i < plan.queries.size(); ++i) {
    plan.feature_names.push_back("f" + std::to_string(i));
    plan.valid_metrics.push_back(std::nan(""));
  }
  Table relevant_copy = tables.relevant;
  auto fitted = MakeFittedAugmenter(std::move(plan), std::move(relevant_copy));
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  // Inline execution: kernel call order (and so the targeted arming) is
  // deterministic, batch 0 first.
  fitted.value()->set_thread_pool(nullptr);

  std::vector<Table> batches;
  for (int b = 0; b < 3; ++b) {
    Table t;
    Column k(DataType::kInt64);
    for (int i = 0; i < 5; ++i) k.AppendInt((b * 5 + i) % 12);
    ASSERT_TRUE(t.AddColumn("k", std::move(k)).ok());
    batches.push_back(std::move(t));
  }
  std::vector<Table> expected;
  for (const Table& b : batches) {
    auto t = fitted.value()->Transform(b);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    expected.push_back(std::move(t).ValueOrDie());
  }

  FaultInjector::Global().ArmSite("exec.kernel", 0);
  auto r = fitted.value()->TransformManyIsolated(batches);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), batches.size());
  EXPECT_EQ(r.value()[0].status.code(), StatusCode::kInternal);
  EXPECT_NE(r.value()[0].status.message().find("injected fault"),
            std::string::npos);
  for (size_t b = 1; b < batches.size(); ++b) {
    const FittedAugmenter::BatchResult& slot = r.value()[b];
    ASSERT_TRUE(slot.status.ok()) << slot.status.ToString();
    ASSERT_EQ(slot.table.num_columns(), expected[b].num_columns());
    for (size_t c = 0; c < slot.table.num_columns(); ++c) {
      const Column& actual_col = slot.table.ColumnAt(c);
      const Column& expected_col = expected[b].ColumnAt(c);
      ASSERT_EQ(actual_col.size(), expected_col.size());
      for (size_t row = 0; row < actual_col.size(); ++row) {
        ASSERT_TRUE(
            SameBits(actual_col.AsDouble(row), expected_col.AsDouble(row)))
            << "batch " << b << " col " << c << " row " << row;
      }
    }
  }
}

#endif  // FEATLIB_FAULT_INJECTION

// ---------------------------------------------------------------------------
// Context-limit behaviour that needs no injector.
// ---------------------------------------------------------------------------

TEST(ExecLimitsTest, PreExpiredDeadlineFailsBeforeAnyPublish) {
  const Pair tables = MakePair();
  ExecContext ctx;
  ctx.set_deadline_after(std::chrono::nanoseconds(0));
  QueryPlanner planner;
  auto r = planner.EvaluateMany(CanonicalQueries(), tables.training,
                                tables.relevant, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(planner.store().num_group_builds(), 0u);
  EXPECT_EQ(planner.store().num_mask_builds(), 0u);
  EXPECT_EQ(planner.store().num_materializations(), 0u);
}

TEST(ExecLimitsTest, TinyMemoryBudgetIsResourceExhaustedUpFront) {
  const Pair tables = MakePair();
  ExecContext ctx;
  ctx.set_memory_budget_bytes(16);
  QueryPlanner planner;
  auto fail_fast = planner.EvaluateMany(CanonicalQueries(), tables.training,
                                        tables.relevant, &ctx);
  ASSERT_FALSE(fail_fast.ok());
  EXPECT_EQ(fail_fast.status().code(), StatusCode::kResourceExhausted);

  // The isolated entry point reports budget exhaustion batch-wide, not as a
  // per-slot failure (nothing was attributable to one candidate).
  ExecContext ctx2;
  ctx2.set_memory_budget_bytes(16);
  auto isolated = planner.EvaluateManyIsolated(
      CanonicalQueries(), tables.training, tables.relevant, &ctx2);
  ASSERT_FALSE(isolated.ok());
  EXPECT_EQ(isolated.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(planner.store().num_group_builds(), 0u);
}

TEST(ExecLimitsTest, GenerousBudgetSucceedsAndChargesAreVisible) {
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = CanonicalQueries();
  const std::vector<std::vector<double>> expected = Reference(tables, queries);
  ExecContext ctx;
  ctx.set_memory_budget_bytes(size_t{64} << 20);
  QueryPlanner planner;
  auto r =
      planner.EvaluateMany(queries, tables.training, tables.relevant, &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(ctx.charged_bytes(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(r.value()[i], expected[i],
                              "budgeted " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// SearchSession skip-and-record: a genuinely bad candidate (missing column)
// is recorded and sentinel-scored while the rest of the pool proceeds.
// ---------------------------------------------------------------------------

Table SessionTraining(size_t n = 40) {
  Table t;
  Column id(DataType::kInt64), age(DataType::kDouble), label(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) {
    id.AppendInt(static_cast<int64_t>(i % 12));
    age.AppendDouble(20.0 + static_cast<double>(i));
    label.AppendInt(static_cast<int64_t>(i % 2));
  }
  EXPECT_TRUE(t.AddColumn("cname", std::move(id)).ok());
  EXPECT_TRUE(t.AddColumn("age", std::move(age)).ok());
  EXPECT_TRUE(t.AddColumn("label", std::move(label)).ok());
  return t;
}

Table SessionLogs() {
  Table t;
  Rng rng(11);
  Column cname(DataType::kInt64), price(DataType::kDouble);
  for (int i = 0; i < 120; ++i) {
    cname.AppendInt(static_cast<int64_t>(rng.UniformInt(12)));
    price.AppendDouble(rng.Normal(10, 3));
  }
  EXPECT_TRUE(t.AddColumn("cname", std::move(cname)).ok());
  EXPECT_TRUE(t.AddColumn("price", std::move(price)).ok());
  return t;
}

AggQuery SessionQuery(AggFunction fn, const std::string& attr) {
  AggQuery q;
  q.agg = fn;
  q.agg_attr = attr;
  q.group_keys = {"cname"};
  return q;
}

TEST(SearchSessionIsolationTest, BadCandidateIsSkippedAndRecorded) {
  Table training = SessionTraining();
  Table logs = SessionLogs();
  auto evaluator = FeatureEvaluator::Create(training, "label", {"age"}, logs,
                                            TaskKind::kBinaryClassification,
                                            EvaluatorOptions{});
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  SearchSession session(&evaluator.value());

  const std::vector<AggQuery> pool = {
      SessionQuery(AggFunction::kAvg, "price"),
      SessionQuery(AggFunction::kSum, "no_such_column"),
      SessionQuery(AggFunction::kMax, "price"),
  };

  auto proxies = session.ProxyScores(pool, ProxyKind::kMutualInformation);
  ASSERT_TRUE(proxies.ok()) << proxies.status().ToString();
  ASSERT_EQ(proxies.value().size(), pool.size());
  // The sentinel is -inf (not NaN): strictly worse than any real proxy and
  // safe under std::sort's strict-weak-ordering requirement.
  EXPECT_TRUE(std::isfinite(proxies.value()[0]));
  EXPECT_TRUE(std::isinf(proxies.value()[1]));
  EXPECT_LT(proxies.value()[1], 0.0);
  EXPECT_TRUE(std::isfinite(proxies.value()[2]));
  ASSERT_EQ(session.failed_candidates().size(), 1u);
  EXPECT_FALSE(session.failed_candidates()[0].status.ok());

  auto outcomes = session.ModelScores(pool);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_TRUE(std::isnan(outcomes.value()[1].metric));
  EXPECT_TRUE(std::isinf(outcomes.value()[1].loss));
  EXPECT_GT(outcomes.value()[1].loss, 0.0);
  EXPECT_TRUE(std::isfinite(outcomes.value()[0].loss));
  EXPECT_TRUE(std::isfinite(outcomes.value()[2].loss));
  // Still the same single distinct failure (recorded once by content key).
  EXPECT_EQ(session.failed_candidates().size(), 1u);
}

TEST(SearchSessionIsolationTest, CancelledContextIsBatchFatal) {
  Table training = SessionTraining();
  Table logs = SessionLogs();
  auto evaluator = FeatureEvaluator::Create(training, "label", {"age"}, logs,
                                            TaskKind::kBinaryClassification,
                                            EvaluatorOptions{});
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  ExecContext ctx;
  ctx.Cancel();
  evaluator.value().set_exec_context(&ctx);
  SearchSession session(&evaluator.value());
  auto proxies = session.ProxyScores({SessionQuery(AggFunction::kAvg, "price")},
                                     ProxyKind::kMutualInformation);
  ASSERT_FALSE(proxies.ok());
  EXPECT_EQ(proxies.status().code(), StatusCode::kCancelled);
  // A tripped context is never downgraded to a skip-and-record entry.
  EXPECT_TRUE(session.failed_candidates().empty());
}

}  // namespace
}  // namespace featlib
