/// \file augmenter_test.cc
/// \brief Pins the unified Augmenter / FittedAugmenter API: every method
/// (FeatAug, MultiTableFeatAug, Random, Featuretools, ARDA, AutoFeature) is
/// reachable through the same Fit() -> handle contract, feature-name
/// collisions dedupe deterministically, and serialized plans round-trip into a warm
/// serving handle (LoadFittedAugmenter).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "baselines/augmenters.h"
#include "core/augmenter.h"
#include "core/plan_io.h"
#include "data/synthetic.h"
#include "golden_util.h"

namespace featlib {
namespace {

using golden::SameBits;

SyntheticOptions SmallData() {
  SyntheticOptions options;
  options.n_train = 250;
  options.avg_logs_per_entity = 8;
  options.seed = 33;
  return options;
}

FeatAugOptions FastOptions() {
  FeatAugOptions options;
  options.n_templates = 2;
  options.queries_per_template = 2;
  options.generator.warmup_iterations = 15;
  options.generator.warmup_top_k = 4;
  options.generator.generation_iterations = 5;
  options.qti.beam_width = 2;
  options.qti.max_depth = 2;
  options.qti.node_iterations = 5;
  options.evaluator.model = ModelKind::kLogisticRegression;
  options.evaluator.metric = MetricKind::kAuc;
  options.seed = 9;
  return options;
}

EvaluatorOptions FastEval() {
  EvaluatorOptions eval;
  eval.model = ModelKind::kLogisticRegression;
  eval.metric = MetricKind::kAuc;
  return eval;
}

void ExpectHandleTransforms(Augmenter* augmenter, const Table& batch) {
  auto fitted = augmenter->Fit();
  ASSERT_TRUE(fitted.ok()) << augmenter->name() << ": "
                           << fitted.status().ToString();
  const FittedAugmenter& handle = *fitted.value();
  EXPECT_GT(handle.num_features(), 0u) << augmenter->name();
  EXPECT_EQ(handle.num_features(), handle.feature_names().size());
  EXPECT_EQ(handle.num_features(), handle.AllQueries().size());
  EXPECT_EQ(handle.num_features(), handle.valid_metrics().size());

  auto transformed = handle.Transform(batch);
  ASSERT_TRUE(transformed.ok()) << augmenter->name() << ": "
                                << transformed.status().ToString();
  EXPECT_EQ(transformed.value().num_rows(), batch.num_rows());
  EXPECT_EQ(transformed.value().num_columns(),
            batch.num_columns() + handle.num_features());
  for (const std::string& name : handle.feature_names()) {
    EXPECT_TRUE(transformed.value().HasColumn(name)) << name;
  }
}

TEST(AugmenterTest, FeatAugReachableThroughInterface) {
  DatasetBundle bundle = MakeTmall(SmallData());
  auto augmenter = MakeFeatAugAugmenter(bundle.ToProblem(), FastOptions());
  EXPECT_STREQ(augmenter->name(), "feataug");
  ExpectHandleTransforms(augmenter.get(), bundle.training);
  ASSERT_NE(augmenter->evaluator(), nullptr);
}

TEST(AugmenterTest, MultiTableReachableThroughInterface) {
  DatasetBundle bundle = MakeTmall(SmallData());
  MultiTableProblem problem;
  problem.training = bundle.training;
  problem.label_col = bundle.label_col;
  problem.base_feature_cols = bundle.base_features;
  problem.task = bundle.task;
  RelevantInput input;
  input.name = "logs";
  input.relevant = bundle.relevant;
  input.fk_attrs = bundle.fk_attrs;
  problem.relevants.push_back(std::move(input));
  MultiTableOptions options;
  options.total_features = 4;
  options.queries_per_template = 2;
  options.per_table = FastOptions();
  auto augmenter = MakeMultiTableAugmenter(std::move(problem), options);
  EXPECT_STREQ(augmenter->name(), "multi_table");

  auto fitted = augmenter->Fit();
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  EXPECT_GT(fitted.value()->num_features(), 0u);
  // Multi-table feature names come out table-qualified.
  for (const std::string& name : fitted.value()->feature_names()) {
    EXPECT_EQ(name.rfind("logs__", 0), 0u) << name;
  }
  auto transformed = fitted.value()->Transform(bundle.training);
  ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
  EXPECT_EQ(transformed.value().num_columns(),
            bundle.training.num_columns() + fitted.value()->num_features());
}

TEST(AugmenterTest, BaselinesReachableThroughInterface) {
  DatasetBundle bundle = MakeTmall(SmallData());

  RandomAugOptions random_options;
  random_options.n_templates = 2;
  random_options.queries_per_template = 2;
  auto random = MakeRandomAugmenter(bundle.ToProblem(), random_options,
                                    /*max_features=*/4, FastEval());
  EXPECT_STREQ(random->name(), "random");
  ExpectHandleTransforms(random.get(), bundle.training);

  auto featuretools = MakeFeaturetoolsAugmenter(
      bundle.ToProblem(), /*k=*/4, SelectorKind::kMi, {}, FastEval());
  EXPECT_STREQ(featuretools->name(), "featuretools");
  ExpectHandleTransforms(featuretools.get(), bundle.training);

  ArdaOptions arda_options;
  arda_options.rounds = 2;
  auto arda =
      MakeArdaAugmenter(bundle.ToProblem(), /*k=*/3, arda_options, {}, FastEval());
  EXPECT_STREQ(arda->name(), "arda");
  ExpectHandleTransforms(arda.get(), bundle.training);

  AutoFeatureOptions af_options;
  af_options.budget = 6;
  auto autofeature = MakeAutoFeatureAugmenter(bundle.ToProblem(), /*k=*/3,
                                              af_options, {}, FastEval());
  EXPECT_STREQ(autofeature->name(), "autofeature");
  ExpectHandleTransforms(autofeature.get(), bundle.training);
}

TEST(AugmenterTest, TransformDedupesCollidingFeatureNames) {
  DatasetBundle bundle = MakeTmall(SmallData());
  AugmentationPlan plan;
  plan.queries.push_back(bundle.golden_query);
  plan.queries.push_back(bundle.golden_query);
  plan.queries.back().agg = AggFunction::kSum;
  // Both plan names collide with each other AND with a batch column.
  plan.feature_names = {"age", "age"};
  auto fitted = MakeFittedAugmenter(plan, bundle.relevant);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  // Plan-level dedup first: "age", "age_2".
  EXPECT_EQ(fitted.value()->feature_names(),
            (std::vector<std::string>{"age", "age_2"}));

  ASSERT_TRUE(bundle.training.HasColumn("age"));
  auto transformed = fitted.value()->Transform(bundle.training);
  ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
  // Batch-level dedup: the plan's "age" collides with the batch column and
  // takes "age_2"; the plan's own "age_2" then suffixes off its base.
  EXPECT_EQ(transformed.value().num_columns(),
            bundle.training.num_columns() + 2);
  EXPECT_TRUE(transformed.value().HasColumn("age_2"));
  EXPECT_TRUE(transformed.value().HasColumn("age_2_2"));

  // Deterministic: a second call produces the same names.
  auto again = fitted.value()->Transform(bundle.training);
  ASSERT_TRUE(again.ok());
  for (size_t c = 0; c < transformed.value().num_columns(); ++c) {
    EXPECT_EQ(transformed.value().NameAt(c), again.value().NameAt(c));
  }
}

TEST(AugmenterTest, PlanRoundTripsIntoFittedAugmenter) {
  DatasetBundle bundle = MakeTmall(SmallData());
  AugmentationPlan plan;
  plan.queries.push_back(bundle.golden_query);
  AggQuery weak = bundle.golden_query;
  weak.predicates.clear();
  weak.agg = AggFunction::kAvg;
  plan.queries.push_back(weak);
  plan.feature_names = {"golden", "weak"};
  plan.valid_metrics = {0.9, 0.6};

  const std::string path = testing::TempDir() + "/augmenter_roundtrip.sql";
  ASSERT_TRUE(WriteAugmentationPlan(plan, "logs", bundle.relevant, path).ok());
  auto loaded = LoadFittedAugmenter(path, bundle.relevant);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->feature_names(),
            (std::vector<std::string>{"golden", "weak"}));

  auto direct = MakeFittedAugmenter(plan, bundle.relevant);
  ASSERT_TRUE(direct.ok());
  auto from_file = loaded.value()->ComputeFeatureColumns(bundle.training);
  auto from_plan = direct.value()->ComputeFeatureColumns(bundle.training);
  ASSERT_TRUE(from_file.ok());
  ASSERT_TRUE(from_plan.ok());
  ASSERT_EQ(from_file.value().size(), from_plan.value().size());
  for (size_t c = 0; c < from_file.value().size(); ++c) {
    ASSERT_EQ(from_file.value()[c].size(), from_plan.value()[c].size());
    for (size_t r = 0; r < from_file.value()[c].size(); ++r) {
      EXPECT_TRUE(SameBits(from_file.value()[c][r], from_plan.value()[c][r]))
          << "col " << c << " row " << r;
    }
  }
  std::remove(path.c_str());
}

TEST(AugmenterTest, TransformManyMatchesPerBatchTransforms) {
  DatasetBundle bundle = MakeTmall(SmallData());
  AugmentationPlan plan;
  plan.queries.push_back(bundle.golden_query);
  plan.feature_names = {"f"};
  auto fitted = MakeFittedAugmenter(plan, bundle.relevant);
  ASSERT_TRUE(fitted.ok());

  const Table head = bundle.training.Head(50);
  const std::vector<Table> batches = {bundle.training, head, bundle.training};
  auto many = fitted.value()->TransformMany(batches);
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  ASSERT_EQ(many.value().size(), 3u);
  for (size_t b = 0; b < batches.size(); ++b) {
    auto single = fitted.value()->Transform(batches[b]);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(many.value()[b].num_columns(), single.value().num_columns());
    ASSERT_EQ(many.value()[b].num_rows(), single.value().num_rows());
    for (size_t c = 0; c < single.value().num_columns(); ++c) {
      const Column& a = many.value()[b].ColumnAt(c);
      const Column& s = single.value().ColumnAt(c);
      for (size_t r = 0; r < a.size(); ++r) {
        EXPECT_TRUE(SameBits(a.AsDouble(r), s.AsDouble(r)))
            << "batch " << b << " col " << c << " row " << r;
      }
    }
  }
}

TEST(AugmenterTest, DiagnosticsCarriedOntoHandle) {
  DatasetBundle bundle = MakeTmall(SmallData());
  auto augmenter = MakeFeatAugAugmenter(bundle.ToProblem(), FastOptions());
  auto fitted = augmenter->Fit();
  ASSERT_TRUE(fitted.ok());
  const FitDiagnostics& diag = fitted.value()->diagnostics();
  EXPECT_GT(diag.model_evals, 0u);
  EXPECT_GT(diag.proxy_evals, 0u);
  EXPECT_GT(diag.templates_considered, 0u);
  EXPECT_GT(diag.qti_seconds, 0.0);
}

}  // namespace
}  // namespace featlib
