#include <gtest/gtest.h>

#include <cmath>

#include "core/feature_eval.h"
#include "data/synthetic.h"
#include "stats/stats.h"

namespace featlib {
namespace {

SyntheticOptions SmallOptions() {
  SyntheticOptions options;
  options.n_train = 400;
  options.avg_logs_per_entity = 12;
  options.seed = 42;
  return options;
}

// Reads the label column as doubles.
std::vector<double> LabelVector(const DatasetBundle& b) {
  const Column* col = b.training.GetColumn(b.label_col).value();
  std::vector<double> out(col->size());
  for (size_t i = 0; i < col->size(); ++i) out[i] = col->AsDouble(i);
  return out;
}

class BundleShapeTest : public testing::TestWithParam<const char*> {};

TEST_P(BundleShapeTest, WellFormedBundle) {
  auto bundle_result = MakeDatasetByName(GetParam(), SmallOptions());
  ASSERT_TRUE(bundle_result.ok());
  const DatasetBundle& b = bundle_result.value();
  EXPECT_EQ(b.training.num_rows(), 400u);
  EXPECT_TRUE(b.training.HasColumn(b.label_col));
  for (const auto& f : b.base_features) EXPECT_TRUE(b.training.HasColumn(f));
  for (const auto& k : b.fk_attrs) {
    EXPECT_TRUE(b.training.HasColumn(k));
    EXPECT_TRUE(b.relevant.HasColumn(k));
  }
  for (const auto& a : b.agg_attrs) EXPECT_TRUE(b.relevant.HasColumn(a));
  for (const auto& p : b.where_candidates) EXPECT_TRUE(b.relevant.HasColumn(p));
  EXPECT_EQ(b.agg_functions.size(), 15u);
  EXPECT_GT(b.relevant.num_rows(), 0u);
  // Golden query is valid and inside the golden template.
  EXPECT_TRUE(b.golden_query.Validate(b.relevant).ok());
  EXPECT_TRUE(b.golden_template.Validate(b.relevant).ok());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, BundleShapeTest,
                         testing::Values("tmall", "instacart", "student",
                                         "merchant", "covtype", "household"));

TEST(DataTest, UnknownNameRejected) {
  EXPECT_FALSE(MakeDatasetByName("nope", SmallOptions()).ok());
}

TEST(DataTest, DeterministicBySeed) {
  DatasetBundle a = MakeTmall(SmallOptions());
  DatasetBundle b = MakeTmall(SmallOptions());
  EXPECT_EQ(a.relevant.num_rows(), b.relevant.num_rows());
  EXPECT_EQ(LabelVector(a), LabelVector(b));
}

TEST(DataTest, DifferentSeedsDiffer) {
  SyntheticOptions options = SmallOptions();
  DatasetBundle a = MakeTmall(options);
  options.seed = 43;
  DatasetBundle b = MakeTmall(options);
  EXPECT_NE(a.relevant.num_rows(), b.relevant.num_rows());
}

TEST(DataTest, BinaryLabelsRoughlyBalanced) {
  for (const char* name : {"tmall", "instacart", "student"}) {
    auto bundle = MakeDatasetByName(name, SmallOptions());
    ASSERT_TRUE(bundle.ok());
    const auto labels = LabelVector(bundle.value());
    double positives = 0;
    for (double y : labels) positives += y;
    EXPECT_NEAR(positives / labels.size(), 0.5, 0.05) << name;
  }
}

TEST(DataTest, MulticlassLabelsCoverFourClasses) {
  DatasetBundle b = MakeCovtype(SmallOptions());
  const auto labels = LabelVector(b);
  std::vector<int> counts(4, 0);
  for (double y : labels) {
    ASSERT_GE(y, 0.0);
    ASSERT_LE(y, 3.0);
    ++counts[static_cast<int>(y)];
  }
  for (int c : counts) EXPECT_GT(c, 50);
}

// The central planted-signal property: the golden (predicate-aware) feature
// carries materially more mutual information about the label than the same
// aggregate without predicates. This is the premise of the whole paper.
class PlantedSignalTest : public testing::TestWithParam<const char*> {};

TEST_P(PlantedSignalTest, GoldenFeatureBeatsUnpredicatedVersion) {
  auto bundle_result = MakeDatasetByName(GetParam(), SmallOptions());
  ASSERT_TRUE(bundle_result.ok());
  const DatasetBundle& b = bundle_result.value();

  QueryPlanner planner;
  auto golden =
      planner.ComputeFeatureColumn(b.golden_query, b.training, b.relevant);
  ASSERT_TRUE(golden.ok());
  AggQuery unpredicated = b.golden_query;
  unpredicated.predicates.clear();
  auto plain =
      planner.ComputeFeatureColumn(unpredicated, b.training, b.relevant);
  ASSERT_TRUE(plain.ok());

  const auto labels = LabelVector(b);
  const bool discrete = b.task != TaskKind::kRegression;
  const double mi_golden = MutualInformation(golden.value(), labels, discrete);
  const double mi_plain = MutualInformation(plain.value(), labels, discrete);
  EXPECT_GT(mi_golden, mi_plain * 1.3 + 0.01)
      << GetParam() << ": golden=" << mi_golden << " plain=" << mi_plain;
}

INSTANTIATE_TEST_SUITE_P(OneToManyDatasets, PlantedSignalTest,
                         testing::Values("tmall", "instacart", "student",
                                         "merchant"));

TEST(DataTest, WideningAddsColumnsAndCandidates) {
  SyntheticOptions options = SmallOptions();
  const DatasetBundle narrow = MakeStudent(options);
  options.extra_numeric_cols = 10;
  const DatasetBundle wide = MakeStudent(options);
  EXPECT_EQ(wide.relevant.num_columns(), narrow.relevant.num_columns() + 10);
  EXPECT_EQ(wide.where_candidates.size(), narrow.where_candidates.size() + 10);
  EXPECT_TRUE(wide.relevant.HasColumn("extra_0"));
}

TEST(DataTest, AvgLogsScalesRelevantRows) {
  SyntheticOptions options = SmallOptions();
  const DatasetBundle small = MakeMerchant(options);
  options.avg_logs_per_entity = 40;
  const DatasetBundle large = MakeMerchant(options);
  EXPECT_GT(large.relevant.num_rows(), 2 * small.relevant.num_rows());
}

TEST(DataTest, ToProblemMapsAllFields) {
  DatasetBundle b = MakeInstacart(SmallOptions());
  const FeatAugProblem p = b.ToProblem();
  EXPECT_EQ(p.label_col, b.label_col);
  EXPECT_EQ(p.base_feature_cols, b.base_features);
  EXPECT_EQ(p.fk_attrs, b.fk_attrs);
  EXPECT_EQ(p.candidate_where_attrs, b.where_candidates);
  EXPECT_EQ(p.task, b.task);
  EXPECT_EQ(p.training.num_rows(), b.training.num_rows());
}

TEST(DataTest, OneToOneRelevantMatchesTraining) {
  DatasetBundle b = MakeHousehold(SmallOptions());
  EXPECT_EQ(b.relevant.num_rows(), b.training.num_rows());
  // Identity aggregation (AVG over the single row) recovers the attribute.
  auto f = QueryPlanner().ComputeFeatureColumn(b.golden_query, b.training,
                                               b.relevant);
  ASSERT_TRUE(f.ok());
  const Column* attr = b.relevant.GetColumn(b.golden_query.agg_attr).value();
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(f.value()[i], attr->AsDouble(i));
  }
}

}  // namespace
}  // namespace featlib
