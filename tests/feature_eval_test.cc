#include <gtest/gtest.h>

#include <cmath>

#include "core/feature_eval.h"
#include "data/synthetic.h"
#include "ml/linear.h"
#include "ml/metrics.h"

namespace featlib {
namespace {

SyntheticOptions SmallOptions() {
  SyntheticOptions options;
  options.n_train = 300;
  options.avg_logs_per_entity = 10;
  options.seed = 7;
  return options;
}

FeatureEvaluator MakeEvaluator(const DatasetBundle& bundle,
                               ModelKind model = ModelKind::kLogisticRegression) {
  EvaluatorOptions options;
  options.model = model;
  options.metric = bundle.task == TaskKind::kRegression ? MetricKind::kRmse
                                                        : MetricKind::kAuc;
  auto evaluator =
      FeatureEvaluator::Create(bundle.training, bundle.label_col,
                               bundle.base_features, bundle.relevant, bundle.task,
                               options);
  EXPECT_TRUE(evaluator.ok());
  return std::move(evaluator).ValueOrDie();
}

TEST(FeatureEvalTest, FeatureMaterializationAndCaching) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  auto f1 = evaluator.Feature(bundle.golden_query);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1.value()->size(), bundle.training.num_rows());
  EXPECT_EQ(evaluator.num_feature_materializations(), 1u);
  // Same query again: cache hit, same pointer.
  auto f2 = evaluator.Feature(bundle.golden_query);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1.value(), f2.value());
  EXPECT_EQ(evaluator.num_feature_materializations(), 1u);
}

TEST(FeatureEvalTest, ProxyRanksGoldenAboveNoise) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);

  AggQuery noise_query;
  noise_query.agg = AggFunction::kAvg;
  noise_query.agg_attr = "discount";  // uninformative by construction
  noise_query.group_keys = {"user_id"};

  for (ProxyKind proxy : {ProxyKind::kMutualInformation, ProxyKind::kSpearman}) {
    auto golden = evaluator.ProxyScore(bundle.golden_query, proxy);
    auto noise = evaluator.ProxyScore(noise_query, proxy);
    ASSERT_TRUE(golden.ok());
    ASSERT_TRUE(noise.ok());
    EXPECT_GT(golden.value(), noise.value())
        << ProxyKindToString(proxy);
  }
}

TEST(FeatureEvalTest, LrProxyRuns) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  auto score =
      evaluator.ProxyScore(bundle.golden_query, ProxyKind::kLogisticRegression);
  ASSERT_TRUE(score.ok());
  EXPECT_TRUE(std::isfinite(score.value()));

  // The LR proxy is the 60-epoch mini model on base + candidate feature,
  // not the full 200-epoch downstream model.
  auto column = evaluator.Feature(bundle.golden_query);
  ASSERT_TRUE(column.ok());
  Dataset full = evaluator.base_dataset();
  ASSERT_TRUE(full.AddFeature("q0", *column.value()).ok());
  const Dataset train = full.GatherRows(evaluator.split().train);
  const Dataset valid = full.GatherRows(evaluator.split().valid);
  auto proxy_at = [&](int epochs) {
    LinearModelOptions lr_options;
    lr_options.epochs = epochs;
    lr_options.seed = evaluator.options().model_seed;
    LogisticRegressionModel model(bundle.task, lr_options);
    Dataset imputed_train = train;
    Dataset imputed_valid = valid;
    ImputeNanInPlace(&imputed_valid, train);
    ImputeNanInPlace(&imputed_train, train);
    EXPECT_TRUE(model.Fit(imputed_train).ok());
    return -evaluator.ScoreToLoss(
        Auc(imputed_valid.y, model.PredictScore(imputed_valid)));
  };
  EXPECT_EQ(score.value(), proxy_at(60));
  EXPECT_NE(score.value(), proxy_at(200));
}

TEST(FeatureEvalTest, ScoreEachMatchesSingleQueryCalls) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator batched = MakeEvaluator(bundle);
  AggQuery bad;
  bad.agg = AggFunction::kAvg;
  bad.agg_attr = "no_such_column";
  bad.group_keys = {"user_id"};
  AggQuery second = bundle.golden_query;
  second.agg = AggFunction::kCount;
  const std::vector<AggQuery> pool = {bundle.golden_query, bad, second};
  using What = FeatureEvaluator::ScoreWhat;
  for (const What& what :
       {What::Metric(), What::Metric(0.5),
        What::Proxy(ProxyKind::kMutualInformation),
        What::Proxy(ProxyKind::kSpearman),
        What::Proxy(ProxyKind::kLogisticRegression)}) {
    const size_t model_before = batched.num_model_evals();
    const size_t proxy_before = batched.num_proxy_evals();
    auto scores = batched.ScoreEach(pool, what);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ASSERT_EQ(scores.value().size(), pool.size());
    EXPECT_FALSE(scores.value()[1].ok());  // only its own slot fails
    // Two trainings ran (the failed member never reached one).
    EXPECT_EQ(batched.num_model_evals() - model_before, what.proxy ? 0u : 2u);
    EXPECT_EQ(batched.num_proxy_evals() - proxy_before, what.proxy ? 2u : 0u);
    FeatureEvaluator single = MakeEvaluator(bundle);
    for (size_t i : {size_t{0}, size_t{2}}) {
      auto expected = what.proxy ? single.ProxyScore(pool[i], *what.proxy)
                                 : single.ModelScoreAtFidelity({pool[i]},
                                                               what.fidelity);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(scores.value()[i].ok());
      EXPECT_EQ(scores.value()[i].value(), expected.value()) << "member " << i;
    }
  }
  EXPECT_FALSE(batched.ScoreEach(pool, What::Metric(0.0)).ok());
}

TEST(FeatureEvalTest, GoldenFeatureImprovesModelScore) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  auto baseline = evaluator.BaselineModelScore();
  auto with_golden = evaluator.ModelScore({bundle.golden_query});
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(with_golden.ok());
  EXPECT_GT(with_golden.value(), baseline.value() + 0.03);
}

TEST(FeatureEvalTest, BaselineCached) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  ASSERT_TRUE(evaluator.BaselineModelScore().ok());
  const size_t evals = evaluator.num_model_evals();
  ASSERT_TRUE(evaluator.BaselineModelScore().ok());
  EXPECT_EQ(evaluator.num_model_evals(), evals);
}

TEST(FeatureEvalTest, MultiQueryModelScore) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  AggQuery second;
  second.agg = AggFunction::kCount;
  second.agg_attr = "pprice";
  second.group_keys = {"user_id"};
  auto score = evaluator.ModelScore({bundle.golden_query, second});
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score.value(), 0.5);
}

TEST(FeatureEvalTest, TestScoreUsesHeldOutSplit) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  auto test_score = evaluator.TestScore({bundle.golden_query});
  ASSERT_TRUE(test_score.ok());
  EXPECT_GT(test_score.value(), 0.5);  // golden feature generalizes
}

TEST(FeatureEvalTest, ScoreToLossOrientation) {
  DatasetBundle classification = MakeTmall(SmallOptions());
  FeatureEvaluator auc_eval = MakeEvaluator(classification);
  EXPECT_DOUBLE_EQ(auc_eval.ScoreToLoss(0.8), -0.8);  // AUC negated

  DatasetBundle regression = MakeMerchant(SmallOptions());
  FeatureEvaluator rmse_eval = MakeEvaluator(regression);
  EXPECT_DOUBLE_EQ(rmse_eval.ScoreToLoss(2.0), 2.0);  // RMSE already a loss
}

TEST(FeatureEvalTest, RegressionTaskEndToEnd) {
  DatasetBundle bundle = MakeMerchant(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  auto baseline = evaluator.BaselineModelScore();
  auto with_golden = evaluator.ModelScore({bundle.golden_query});
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(with_golden.ok());
  // RMSE is lower with the golden feature.
  EXPECT_LT(with_golden.value(), baseline.value());
}

TEST(FeatureEvalTest, FeatureCacheIsByteCappedWithInBatchPinning) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  EXPECT_EQ(evaluator.feature_cache_bytes(), 0u);

  std::vector<AggQuery> pool;
  for (AggFunction fn : AllAggFunctions()) {
    AggQuery q = bundle.golden_query;
    q.agg = fn;
    if (q.Validate(bundle.relevant).ok()) pool.push_back(std::move(q));
  }
  ASSERT_GT(pool.size(), 4u);

  // A cap far below the pool's footprint: the batch still completes — its
  // own entries are epoch-pinned, so the cache temporarily exceeds the cap
  // instead of thrashing the in-flight batch.
  evaluator.set_feature_cache_cap_bytes(1);
  auto features = evaluator.Features(pool);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(evaluator.num_feature_cache_evictions(), 0u);
  EXPECT_GT(evaluator.feature_cache_bytes(),
            pool.size() * bundle.training.num_rows() * sizeof(double));
  for (const std::vector<double>* f : features.value()) {
    ASSERT_EQ(f->size(), bundle.training.num_rows());
  }

  // The next materializing call unpins the previous epoch and evicts it.
  AggQuery fresh = bundle.golden_query;
  fresh.agg_attr = "discount";
  ASSERT_TRUE(fresh.Validate(bundle.relevant).ok());
  const size_t bytes_before = evaluator.feature_cache_bytes();
  ASSERT_TRUE(evaluator.Feature(fresh).ok());
  EXPECT_GE(evaluator.num_feature_cache_evictions(), pool.size());
  EXPECT_LT(evaluator.feature_cache_bytes(), bytes_before);

  // Evicted columns recompute to the same values (bit-for-bit).
  FeatureEvaluator reference = MakeEvaluator(bundle);
  auto recomputed = evaluator.Features(pool);
  auto expected = reference.Features(pool);
  ASSERT_TRUE(recomputed.ok());
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < pool.size(); ++i) {
    const std::vector<double>& a = *recomputed.value()[i];
    const std::vector<double>& e = *expected.value()[i];
    ASSERT_EQ(a.size(), e.size());
    for (size_t r = 0; r < a.size(); ++r) {
      if (std::isnan(a[r]) && std::isnan(e[r])) continue;
      EXPECT_EQ(a[r], e[r]) << "query " << i << " row " << r;
    }
  }

  // An uncapped evaluator never evicts.
  EXPECT_EQ(reference.num_feature_cache_evictions(), 0u);
  EXPECT_GT(reference.feature_cache_bytes(), 0u);
}

TEST(FeatureEvalTest, InvalidQueryPropagatesError) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  AggQuery bad;
  bad.agg = AggFunction::kAvg;
  bad.agg_attr = "no_such_column";
  bad.group_keys = {"user_id"};
  EXPECT_FALSE(evaluator.Feature(bad).ok());
  EXPECT_FALSE(evaluator.ModelScore({bad}).ok());
}

TEST(FeatureEvalTest, CreateRejectsBadInputs) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  EvaluatorOptions options;
  EXPECT_FALSE(FeatureEvaluator::Create(bundle.training, "missing_label",
                                        bundle.base_features, bundle.relevant,
                                        bundle.task, options)
                   .ok());
  EXPECT_FALSE(FeatureEvaluator::Create(bundle.training, bundle.label_col,
                                        {"missing_feature"}, bundle.relevant,
                                        bundle.task, options)
                   .ok());
}

}  // namespace
}  // namespace featlib
