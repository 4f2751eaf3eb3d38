#include "core/multi_table.h"

#include <gtest/gtest.h>

#include "core/augmenter.h"
#include "data/multi_table_data.h"
#include "query/executor.h"
#include "stats/stats.h"

namespace featlib {
namespace {

SyntheticOptions SmallOptions() {
  SyntheticOptions options;
  options.n_train = 250;
  options.avg_logs_per_entity = 8;
  options.seed = 17;
  return options;
}

// --- InferTemplateIngredients -----------------------------------------------

Table MakeMixedTable() {
  Table t;
  EXPECT_TRUE(t.AddColumn("fk", Column::FromInts(DataType::kInt64, {0, 1, 2})).ok());
  EXPECT_TRUE(t.AddColumn("price", Column::FromDoubles({1, 2, 3})).ok());
  EXPECT_TRUE(
      t.AddColumn("ts", Column::FromInts(DataType::kDatetime, {10, 20, 30})).ok());
  EXPECT_TRUE(
      t.AddColumn("flag", Column::FromInts(DataType::kBool, {0, 1, 0})).ok());
  EXPECT_TRUE(t.AddColumn("dept", Column::FromStrings({"a", "b", "a"})).ok());
  EXPECT_TRUE(
      t.AddColumn("free_text", Column::FromStrings({"x1", "x2", "x3"})).ok());
  return t;
}

TEST(InferTemplateIngredientsTest, RolesFollowColumnTypes) {
  Table t = MakeMixedTable();
  TemplateIngredients ingredients = InferTemplateIngredients(t, {"fk"});
  EXPECT_EQ(ingredients.agg_attrs,
            (std::vector<std::string>{"price", "ts", "flag"}));
  // dept (cardinality 2) qualifies; free_text (cardinality 3 <= 64) too.
  EXPECT_EQ(ingredients.where_candidates,
            (std::vector<std::string>{"price", "ts", "flag", "dept", "free_text"}));
}

TEST(InferTemplateIngredientsTest, HighCardinalityStringsSkipped) {
  Table t = MakeMixedTable();
  TemplateIngredients ingredients =
      InferTemplateIngredients(t, {"fk"}, /*max_categorical_cardinality=*/2);
  // free_text has 3 distinct values > 2 -> dropped; dept (2 values) stays.
  EXPECT_EQ(ingredients.where_candidates,
            (std::vector<std::string>{"price", "ts", "flag", "dept"}));
}

TEST(InferTemplateIngredientsTest, FkExcludedFromBothRoles) {
  Table t = MakeMixedTable();
  TemplateIngredients ingredients = InferTemplateIngredients(t, {"fk", "price"});
  for (const auto& name : ingredients.agg_attrs) {
    EXPECT_NE(name, "fk");
    EXPECT_NE(name, "price");
  }
}

TEST(InferTemplateIngredientsTest, AllColumnsExcludedYieldsEmptyRoles) {
  Table t = MakeMixedTable();
  TemplateIngredients ingredients = InferTemplateIngredients(
      t, {"fk", "price", "ts", "flag", "dept", "free_text"});
  EXPECT_TRUE(ingredients.agg_attrs.empty());
  EXPECT_TRUE(ingredients.where_candidates.empty());
}

TEST(MultiTableProblemTest, MissingLabelRejected) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  auto graph = bundle.BuildGraph();
  ASSERT_TRUE(graph.ok());
  auto problem = MultiTableProblem::FromGraph(graph.value(), "training", "nope",
                                              TaskKind::kBinaryClassification);
  ASSERT_FALSE(problem.ok());
  EXPECT_NE(problem.status().ToString().find("label"), std::string::npos);
}

TEST(MultiTableProblemTest, UnknownBaseRejected) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  auto graph = bundle.BuildGraph();
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(MultiTableProblem::FromGraph(graph.value(), "nope", "label",
                                            TaskKind::kBinaryClassification)
                   .ok());
}

// --- The raw multi-table bundle ---------------------------------------------

TEST(MultiTableDataTest, SchemaShapesAreConsistent) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  EXPECT_EQ(bundle.training.num_rows(), 250u);
  EXPECT_GT(bundle.order_items.num_rows(), 250u * 4);
  EXPECT_GT(bundle.browse_log.num_rows(), 250u);
  EXPECT_EQ(bundle.products.num_rows(), 150u);
  EXPECT_EQ(bundle.departments.num_rows(), 10u);
  // Raw fact lacks the department name; only the flatten exposes it.
  EXPECT_FALSE(bundle.order_items.HasColumn("department"));
}

TEST(MultiTableDataTest, GoldenQueryValidOnlyAfterFlatten) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  EXPECT_FALSE(bundle.golden_query.Validate(bundle.order_items).ok());
  auto graph = bundle.BuildGraph();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto flat = graph.value().FlattenRelevant("order_items");
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_TRUE(bundle.golden_query.Validate(flat.value()).ok());
  EXPECT_EQ(flat.value().num_rows(), bundle.order_items.num_rows());
}

TEST(MultiTableDataTest, PlantedSignalSurvivesTheFlatten) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  auto graph = bundle.BuildGraph();
  ASSERT_TRUE(graph.ok());
  auto flat = graph.value().FlattenRelevant("order_items");
  ASSERT_TRUE(flat.ok());

  auto labels_col = bundle.training.GetColumn("label");
  ASSERT_TRUE(labels_col.ok());
  std::vector<double> labels(bundle.training.num_rows());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = labels_col.value()->AsDouble(i);
  }

  auto golden = ComputeFeatureColumn(bundle.golden_query, bundle.training,
                                     flat.value());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  AggQuery unpredicated = bundle.golden_query;
  unpredicated.predicates.clear();
  auto weak = ComputeFeatureColumn(unpredicated, bundle.training, flat.value());
  ASSERT_TRUE(weak.ok());

  const double golden_mi = MutualInformation(golden.value(), labels, true);
  const double weak_mi = MutualInformation(weak.value(), labels, true);
  EXPECT_GT(golden_mi, weak_mi)
      << "golden " << golden_mi << " vs unpredicated " << weak_mi;
}

// --- MultiTableProblem / MultiTableFeatAug ----------------------------------

MultiTableProblem MakeProblem(const MultiTableBundle& bundle) {
  auto graph = bundle.BuildGraph();
  EXPECT_TRUE(graph.ok());
  auto problem = MultiTableProblem::FromGraph(graph.value(), "training", "label",
                                              TaskKind::kBinaryClassification);
  EXPECT_TRUE(problem.ok()) << problem.status().ToString();
  return std::move(problem).ValueOrDie();
}

TEST(MultiTableProblemTest, FromGraphBuildsBothScenarios) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  MultiTableProblem problem = MakeProblem(bundle);
  ASSERT_EQ(problem.relevants.size(), 2u);
  EXPECT_EQ(problem.relevants[0].name, "order_items");
  EXPECT_EQ(problem.relevants[1].name, "browse_log");
  // Flattened order_items got the chain attributes inferred.
  const auto& where0 = problem.relevants[0].candidate_where_attrs;
  EXPECT_NE(std::find(where0.begin(), where0.end(), "department"), where0.end());
  // Base features exclude label and FK.
  EXPECT_EQ(problem.base_feature_cols,
            (std::vector<std::string>{"household", "tenure"}));
}

MultiTableOptions FastMultiOptions() {
  MultiTableOptions options;
  options.total_features = 8;
  options.queries_per_template = 2;
  options.seed = 23;
  options.per_table.generator.warmup_iterations = 25;
  options.per_table.generator.warmup_top_k = 5;
  options.per_table.generator.generation_iterations = 6;
  options.per_table.qti.beam_width = 1;
  options.per_table.qti.max_depth = 2;
  options.per_table.qti.node_iterations = 8;
  options.per_table.evaluator.model = ModelKind::kLogisticRegression;
  options.per_table.evaluator.metric = MetricKind::kAuc;
  return options;
}

TEST(MultiTableFeatAugTest, EqualAllocationSplitsBudget) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  MultiTableProblem problem = MakeProblem(bundle);
  MultiTableOptions options = FastMultiOptions();
  options.allocation = BudgetAllocation::kEqual;
  MultiTableFeatAug feataug(std::move(problem), options);
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().tables.size(), 2u);
  EXPECT_EQ(plan.value().tables[0].budget_features, 4);
  EXPECT_EQ(plan.value().tables[1].budget_features, 4);
  for (const auto& tp : plan.value().tables) {
    EXPECT_LE(tp.plan.queries.size(), 4u);
    EXPECT_GT(tp.plan.queries.size(), 0u) << tp.name;
  }
  EXPECT_LE(plan.value().total_features, 8u);
}

TEST(MultiTableFeatAugTest, ProxyWeightedAllocationSumsToTotalAndProbes) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  MultiTableProblem problem = MakeProblem(bundle);
  MultiTableOptions options = FastMultiOptions();
  options.total_features = 10;
  options.allocation = BudgetAllocation::kProxyWeighted;
  options.min_features_per_table = 2;
  MultiTableFeatAug feataug(std::move(problem), options);
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int budget_sum = 0;
  for (const auto& tp : plan.value().tables) {
    budget_sum += tp.budget_features;
    EXPECT_GE(tp.budget_features, 2);
    EXPECT_GT(tp.probe_score, 0.0) << tp.name;
  }
  EXPECT_EQ(budget_sum, 10);
}

TEST(MultiTableFeatAugTest, TransformAppendsQualifiedFeatures) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  MultiTableProblem problem = MakeProblem(bundle);
  const Table training = problem.training;
  MultiTableFeatAug feataug(std::move(problem), FastMultiOptions());
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok());
  auto fitted = feataug.MakeFitted(plan.value());
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  auto augmented = fitted.value()->Transform(training);
  ASSERT_TRUE(augmented.ok()) << augmented.status().ToString();
  EXPECT_EQ(augmented.value().num_rows(), training.num_rows());
  EXPECT_EQ(augmented.value().num_columns(),
            training.num_columns() + plan.value().total_features);
  // Every appended column is table-qualified.
  size_t qualified = 0;
  for (size_t c = training.num_columns(); c < augmented.value().num_columns(); ++c) {
    const std::string& name = augmented.value().NameAt(c);
    EXPECT_TRUE(name.rfind("order_items__", 0) == 0 ||
                name.rfind("browse_log__", 0) == 0)
        << name;
    ++qualified;
  }
  EXPECT_EQ(qualified, plan.value().total_features);
}

TEST(MultiTableFeatAugTest, TransformToDatasetMatchesPlanWidth) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  MultiTableProblem problem = MakeProblem(bundle);
  const Table training = problem.training;
  const std::string label_col = problem.label_col;
  const std::vector<std::string> base_cols = problem.base_feature_cols;
  const TaskKind task = problem.task;
  MultiTableFeatAug feataug(std::move(problem), FastMultiOptions());
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok());
  auto fitted = feataug.MakeFitted(plan.value());
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  auto ds = fitted.value()->TransformToDataset(training, label_col, base_cols,
                                               task);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  // Base features (2) plus every generated feature, aligned to D's rows.
  EXPECT_EQ(ds.value().n, training.num_rows());
  EXPECT_EQ(ds.value().d, 2 + plan.value().total_features);
}

TEST(MultiTableFeatAugTest, EmptyProblemRejected) {
  MultiTableProblem problem;
  problem.task = TaskKind::kBinaryClassification;
  MultiTableFeatAug feataug(std::move(problem), MultiTableOptions{});
  EXPECT_FALSE(feataug.Fit().ok());
}

TEST(MultiTableFeatAugTest, TableWithoutAggregableAttrsRejected) {
  MultiTableBundle bundle = MakeInstacartMultiTable(SmallOptions());
  MultiTableProblem problem = MakeProblem(bundle);
  // Strip the second table down to FK + string column only.
  Table strings_only;
  ASSERT_TRUE(strings_only
                  .AddColumn("user_id", Column::FromInts(
                                            DataType::kInt64,
                                            {0, 1, 2}))
                  .ok());
  ASSERT_TRUE(
      strings_only.AddColumn("tag", Column::FromStrings({"a", "b", "c"})).ok());
  problem.relevants[1].relevant = std::move(strings_only);
  problem.relevants[1].agg_attrs.clear();
  problem.relevants[1].candidate_where_attrs.clear();
  MultiTableFeatAug feataug(std::move(problem), FastMultiOptions());
  auto plan = feataug.Fit();
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("no aggregable"), std::string::npos);
}

}  // namespace
}  // namespace featlib
