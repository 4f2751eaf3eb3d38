/// \file failure_injection_test.cc
/// \brief Degenerate-input behaviour across the stack: empty tables,
/// all-NULL columns, unmatched foreign keys, constant labels, non-finite
/// losses. The invariant under test is uniform: graceful Status or a
/// well-defined value — never a crash, never silent garbage.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/feature_eval.h"
#include "core/generator.h"
#include "hpo/hyperband.h"
#include "hpo/smac.h"
#include "hpo/tpe.h"
#include "query/query_planner.h"
#include "stats/stats.h"

namespace featlib {
namespace {

Table EmptyLogs() {
  Table t;
  EXPECT_TRUE(t.AddColumn("cname", Column(DataType::kInt64)).ok());
  EXPECT_TRUE(t.AddColumn("price", Column(DataType::kDouble)).ok());
  EXPECT_TRUE(t.AddColumn("dept", Column(DataType::kString)).ok());
  return t;
}

Table SmallTraining(size_t n = 20) {
  Table t;
  Column id(DataType::kInt64), age(DataType::kDouble), label(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) {
    id.AppendInt(static_cast<int64_t>(i));
    age.AppendDouble(20.0 + static_cast<double>(i));
    label.AppendInt(static_cast<int64_t>(i % 2));
  }
  EXPECT_TRUE(t.AddColumn("cname", std::move(id)).ok());
  EXPECT_TRUE(t.AddColumn("age", std::move(age)).ok());
  EXPECT_TRUE(t.AddColumn("label", std::move(label)).ok());
  return t;
}

AggQuery AvgPriceQuery() {
  AggQuery q;
  q.agg = AggFunction::kAvg;
  q.agg_attr = "price";
  q.group_keys = {"cname"};
  return q;
}

// --- Empty relevant table ----------------------------------------------------

TEST(FailureInjectionTest, EmptyRelevantTableYieldsAllNanFeature) {
  Table training = SmallTraining();
  Table logs = EmptyLogs();
  auto feature =
      QueryPlanner().ComputeFeatureColumn(AvgPriceQuery(), training, logs);
  ASSERT_TRUE(feature.ok()) << feature.status().ToString();
  ASSERT_EQ(feature.value().size(), training.num_rows());
  for (double v : feature.value()) EXPECT_TRUE(std::isnan(v));
}

TEST(FailureInjectionTest, EmptyRelevantTableExecutesToEmptyResult) {
  auto result = QueryPlanner().ExecuteAggQuery(AvgPriceQuery(), EmptyLogs());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows(), 0u);
}

TEST(FailureInjectionTest, ProxyScoreOnEmptyRelevantIsZero) {
  Table training = SmallTraining(40);
  auto evaluator =
      FeatureEvaluator::Create(training, "label", {"age"}, EmptyLogs(),
                               TaskKind::kBinaryClassification, EvaluatorOptions{});
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  auto score =
      evaluator.value().ProxyScore(AvgPriceQuery(), ProxyKind::kMutualInformation);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_DOUBLE_EQ(score.value(), 0.0);
}

// --- All-NULL aggregation column ----------------------------------------------

TEST(FailureInjectionTest, AllNullAggColumnGivesNanAggregatesNotCrash) {
  Table logs;
  Column cname(DataType::kInt64), price(DataType::kDouble);
  for (int i = 0; i < 12; ++i) {
    cname.AppendInt(i % 4);
    price.AppendNull();
  }
  ASSERT_TRUE(logs.AddColumn("cname", std::move(cname)).ok());
  ASSERT_TRUE(logs.AddColumn("price", std::move(price)).ok());

  Table training = SmallTraining();
  auto feature =
      QueryPlanner().ComputeFeatureColumn(AvgPriceQuery(), training, logs);
  ASSERT_TRUE(feature.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isnan(feature.value()[i])) << i;
  }
}

TEST(FailureInjectionTest, CountOfAllNullColumnIsZero) {
  Table logs;
  Column cname(DataType::kInt64), price(DataType::kDouble);
  cname.AppendInt(0);
  price.AppendNull();
  ASSERT_TRUE(logs.AddColumn("cname", std::move(cname)).ok());
  ASSERT_TRUE(logs.AddColumn("price", std::move(price)).ok());
  AggQuery q = AvgPriceQuery();
  q.agg = AggFunction::kCount;
  auto result = QueryPlanner().ExecuteAggQuery(q, logs);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().num_rows(), 1u);
  auto col = result.value().GetColumn("feature");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(col.value()->DoubleAt(0), 0.0);
}

// --- Foreign keys without matches ---------------------------------------------

TEST(FailureInjectionTest, UnmatchedEntitiesGetNanAndRowCountIsPreserved) {
  Table training = SmallTraining(10);
  Table logs;
  // Logs exist only for entities 0 and 1 (plus an orphan FK 999).
  ASSERT_TRUE(logs.AddColumn("cname", Column::FromInts(DataType::kInt64,
                                                       {0, 0, 1, 999}))
                  .ok());
  ASSERT_TRUE(logs.AddColumn("price", Column::FromDoubles({1, 2, 3, 4})).ok());
  auto feature =
      QueryPlanner().ComputeFeatureColumn(AvgPriceQuery(), training, logs);
  ASSERT_TRUE(feature.ok());
  Table augmented = training;
  ASSERT_TRUE(
      augmented.AddColumn("f", Column::FromDoubles(feature.value())).ok());
  EXPECT_EQ(augmented.num_rows(), training.num_rows());
  auto f = augmented.GetColumn("f");
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f.value()->DoubleAt(0), 1.5);
  EXPECT_DOUBLE_EQ(f.value()->DoubleAt(1), 3.0);
  for (size_t r = 2; r < 10; ++r) EXPECT_TRUE(f.value()->IsNull(r)) << r;
}

// --- Constant / degenerate labels ----------------------------------------------

TEST(FailureInjectionTest, ConstantLabelGivesZeroMutualInformation) {
  std::vector<double> feature{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> label(8, 1.0);
  EXPECT_DOUBLE_EQ(MutualInformation(feature, label, true), 0.0);
  EXPECT_DOUBLE_EQ(SpearmanProxy(feature, label), 0.0);
}

TEST(FailureInjectionTest, ConstantFeatureGivesZeroScoresEverywhere) {
  std::vector<double> feature(32, 3.14);
  std::vector<double> label;
  for (int i = 0; i < 32; ++i) label.push_back(i % 2);
  EXPECT_DOUBLE_EQ(MutualInformation(feature, label, true), 0.0);
  EXPECT_DOUBLE_EQ(SpearmanProxy(feature, label), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquareScore(feature, label), 0.0);
}

// --- Training table too small ---------------------------------------------------

TEST(FailureInjectionTest, TinyTrainingTableRejectedAtCreate) {
  Table training = SmallTraining(5);
  auto evaluator =
      FeatureEvaluator::Create(training, "label", {"age"}, EmptyLogs(),
                               TaskKind::kBinaryClassification, EvaluatorOptions{});
  ASSERT_FALSE(evaluator.ok());
  EXPECT_NE(evaluator.status().ToString().find("rows"), std::string::npos);
}

// --- Fidelity argument validation ------------------------------------------------

TEST(FailureInjectionTest, OutOfRangeFidelityRejected) {
  Table training = SmallTraining(40);
  Table logs;
  ASSERT_TRUE(
      logs.AddColumn("cname", Column::FromInts(DataType::kInt64, {0, 1})).ok());
  ASSERT_TRUE(logs.AddColumn("price", Column::FromDoubles({1, 2})).ok());
  auto evaluator =
      FeatureEvaluator::Create(training, "label", {"age"}, logs,
                               TaskKind::kBinaryClassification, EvaluatorOptions{});
  ASSERT_TRUE(evaluator.ok());
  EXPECT_FALSE(evaluator.value().ModelScoreAtFidelity({AvgPriceQuery()}, 0.0).ok());
  EXPECT_FALSE(evaluator.value().ModelScoreAtFidelity({AvgPriceQuery()}, 1.5).ok());
  EXPECT_FALSE(evaluator.value().ModelScoreAtFidelity({AvgPriceQuery()}, -0.2).ok());
}

// --- Non-finite losses fed to the optimizers -------------------------------------

SearchSpace TinySpace() {
  SearchSpace space;
  space.Add(ParamDomain::Numeric("x", 0.0, 1.0));
  space.Add(ParamDomain::Categorical("c", 3));
  return space;
}

TEST(FailureInjectionTest, TpeSurvivesNanAndInfLosses) {
  Tpe tpe(TinySpace(), TpeOptions{.n_startup = 2, .seed = 3});
  for (int i = 0; i < 30; ++i) {
    ParamVector v = tpe.Suggest();
    double loss;
    if (i % 3 == 0) {
      loss = std::nan("");
    } else if (i % 3 == 1) {
      loss = std::numeric_limits<double>::infinity();
    } else {
      loss = v[0];
    }
    tpe.Observe(v, loss);
  }
  // All observations recorded with finite losses; best() is the finite one.
  ASSERT_EQ(tpe.history().size(), 30u);
  for (const Trial& t : tpe.history()) EXPECT_TRUE(std::isfinite(t.loss));
  ASSERT_NE(tpe.best(), nullptr);
  EXPECT_LT(tpe.best()->loss, 1.5);
}

TEST(FailureInjectionTest, SmacSurvivesNanLosses) {
  Smac smac(TinySpace(), SmacOptions{});
  for (int i = 0; i < 20; ++i) {
    ParamVector v = smac.Suggest();
    smac.Observe(v, i % 2 == 0 ? std::nan("") : v[0]);
  }
  for (const Trial& t : smac.history()) EXPECT_TRUE(std::isfinite(t.loss));
}

TEST(FailureInjectionTest, HyperbandDemotesNanLossConfigs) {
  HyperbandOptions options;
  options.max_total_cost = 12.0;
  options.seed = 9;
  Hyperband hb(TinySpace(), options);
  // Configs in the right half of the space "fail" (NaN); the winner must
  // come from the left half.
  auto result = hb.Run([](const ParamVector& v, double) -> Result<double> {
    if (v[0] > 0.5) return std::nan("");
    return v[0];
  });
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().has_best);
  EXPECT_LE(result.value().best_params[0], 0.5);
  for (const FidelityTrial& t : result.value().trials) {
    EXPECT_TRUE(std::isfinite(t.loss));
  }
}

// --- Queries against missing schema ----------------------------------------------

TEST(FailureInjectionTest, QueryAgainstMissingColumnsFailsCleanly) {
  Table training = SmallTraining();
  Table logs;
  ASSERT_TRUE(
      logs.AddColumn("cname", Column::FromInts(DataType::kInt64, {0})).ok());
  ASSERT_TRUE(logs.AddColumn("price", Column::FromDoubles({1.0})).ok());

  QueryPlanner planner;
  AggQuery missing_attr = AvgPriceQuery();
  missing_attr.agg_attr = "nope";
  EXPECT_FALSE(planner.ComputeFeatureColumn(missing_attr, training, logs).ok());

  AggQuery missing_key = AvgPriceQuery();
  missing_key.group_keys = {"nope"};
  EXPECT_FALSE(planner.ComputeFeatureColumn(missing_key, training, logs).ok());

  AggQuery missing_pred = AvgPriceQuery();
  missing_pred.predicates = {Predicate::Range("nope", 0.0, 1.0)};
  EXPECT_FALSE(planner.ComputeFeatureColumn(missing_pred, training, logs).ok());

  AggQuery no_keys = AvgPriceQuery();
  no_keys.group_keys = {};
  EXPECT_FALSE(planner.ComputeFeatureColumn(no_keys, training, logs).ok());
}

// --- Single-row groups ------------------------------------------------------------

TEST(FailureInjectionTest, SingleRowGroupsDefineOrderStatsButNotSampleVariance) {
  Table logs;
  ASSERT_TRUE(
      logs.AddColumn("cname", Column::FromInts(DataType::kInt64, {0, 1})).ok());
  ASSERT_TRUE(logs.AddColumn("price", Column::FromDoubles({5.0, 7.0})).ok());
  for (AggFunction fn : {AggFunction::kMedian, AggFunction::kMad,
                         AggFunction::kMode, AggFunction::kVar}) {
    AggQuery q = AvgPriceQuery();
    q.agg = fn;
    auto result = QueryPlanner().ExecuteAggQuery(q, logs);
    ASSERT_TRUE(result.ok()) << AggFunctionName(fn);
    auto col = result.value().GetColumn("feature");
    ASSERT_TRUE(col.ok());
    EXPECT_FALSE(col.value()->IsNull(0)) << AggFunctionName(fn);
  }
  AggQuery var_sample = AvgPriceQuery();
  var_sample.agg = AggFunction::kVarSample;
  auto result = QueryPlanner().ExecuteAggQuery(var_sample, logs);
  ASSERT_TRUE(result.ok());
  auto col = result.value().GetColumn("feature");
  ASSERT_TRUE(col.ok());
  // Sample variance of one observation is undefined -> NULL/NaN.
  EXPECT_TRUE(col.value()->IsNull(0) || std::isnan(col.value()->DoubleAt(0)));
}

}  // namespace
}  // namespace featlib
