#include <gtest/gtest.h>

#include <cmath>

#include "query/query_planner.h"

namespace featlib {
namespace {

// Training table with string keys whose dictionary codes deliberately differ
// from the relevant table's (insertion order reversed).
struct Tables {
  Table d;
  Table r;
};

Tables MakeJoinTables() {
  Tables t;
  EXPECT_TRUE(t.d.AddColumn("cname",
                            Column::FromStrings({"cat", "bob", "ann", "dee"}))
                  .ok());
  EXPECT_TRUE(t.d.AddColumn("age", Column::FromDoubles({30, 40, 50, 60})).ok());

  EXPECT_TRUE(t.r.AddColumn("cname",
                            Column::FromStrings({"ann", "ann", "bob", "cat"}))
                  .ok());
  EXPECT_TRUE(t.r.AddColumn("pprice", Column::FromDoubles({10, 20, 7, 5})).ok());
  return t;
}

AggQuery SumQuery() {
  AggQuery q;
  q.agg = AggFunction::kSum;
  q.agg_attr = "pprice";
  q.group_keys = {"cname"};
  return q;
}

TEST(AugmentTest, FeatureAlignedToTrainingRows) {
  Tables t = MakeJoinTables();
  auto feature = QueryPlanner().ComputeFeatureColumn(SumQuery(), t.d, t.r);
  ASSERT_TRUE(feature.ok());
  const auto& f = feature.value();
  ASSERT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f[0], 5.0);   // cat
  EXPECT_DOUBLE_EQ(f[1], 7.0);   // bob
  EXPECT_DOUBLE_EQ(f[2], 30.0);  // ann
  EXPECT_TRUE(std::isnan(f[3])); // dee: no logs -> NULL (LEFT JOIN)
}

// D^q of Def. 3: the feature appended to D as a nullable column.
TEST(AugmentTest, AugmentTablePreservesRowCountAndAddsColumn) {
  Tables t = MakeJoinTables();
  auto feature = QueryPlanner().ComputeFeatureColumn(SumQuery(), t.d, t.r);
  ASSERT_TRUE(feature.ok());
  Table out = t.d;
  ASSERT_TRUE(
      out.AddColumn("total_spent", Column::FromDoubles(feature.value())).ok());
  EXPECT_EQ(out.num_rows(), t.d.num_rows());
  EXPECT_EQ(out.num_columns(), t.d.num_columns() + 1);
  ASSERT_TRUE(out.HasColumn("total_spent"));
  EXPECT_TRUE(out.GetColumn("total_spent").value()->IsNull(3));
  EXPECT_DOUBLE_EQ(out.GetColumn("total_spent").value()->DoubleAt(2), 30.0);
}

TEST(AugmentTest, DuplicateFeatureNameRejected) {
  Tables t = MakeJoinTables();
  auto feature = QueryPlanner().ComputeFeatureColumn(SumQuery(), t.d, t.r);
  ASSERT_TRUE(feature.ok());
  Table out = t.d;
  EXPECT_FALSE(out.AddColumn("age", Column::FromDoubles(feature.value())).ok());
}

TEST(AugmentTest, IntegerJoinKeys) {
  Table d;
  EXPECT_TRUE(d.AddColumn("uid", Column::FromInts(DataType::kInt64, {7, 9})).ok());
  Table r;
  EXPECT_TRUE(
      r.AddColumn("uid", Column::FromInts(DataType::kInt64, {9, 9, 7})).ok());
  EXPECT_TRUE(r.AddColumn("v", Column::FromDoubles({1, 2, 10})).ok());
  AggQuery q;
  q.agg = AggFunction::kSum;
  q.agg_attr = "v";
  q.group_keys = {"uid"};
  auto f = QueryPlanner().ComputeFeatureColumn(q, d, r);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f.value()[0], 10.0);
  EXPECT_DOUBLE_EQ(f.value()[1], 3.0);
}

TEST(AugmentTest, CompoundKeySubsetChangesGranularity) {
  Table d;
  EXPECT_TRUE(d.AddColumn("u", Column::FromInts(DataType::kInt64, {1, 2})).ok());
  EXPECT_TRUE(d.AddColumn("m", Column::FromInts(DataType::kInt64, {10, 10})).ok());
  Table r;
  EXPECT_TRUE(
      r.AddColumn("u", Column::FromInts(DataType::kInt64, {1, 1, 2})).ok());
  EXPECT_TRUE(
      r.AddColumn("m", Column::FromInts(DataType::kInt64, {10, 99, 10})).ok());
  EXPECT_TRUE(r.AddColumn("v", Column::FromDoubles({1, 100, 5})).ok());

  AggQuery q;
  q.agg = AggFunction::kSum;
  q.agg_attr = "v";
  q.group_keys = {"u", "m"};
  auto both = QueryPlanner().ComputeFeatureColumn(q, d, r);
  ASSERT_TRUE(both.ok());
  EXPECT_DOUBLE_EQ(both.value()[0], 1.0);  // only (1,10)
  EXPECT_DOUBLE_EQ(both.value()[1], 5.0);

  q.group_keys = {"u"};  // k subset of K: aggregates across merchants
  auto user_only = QueryPlanner().ComputeFeatureColumn(q, d, r);
  ASSERT_TRUE(user_only.ok());
  EXPECT_DOUBLE_EQ(user_only.value()[0], 101.0);
  EXPECT_DOUBLE_EQ(user_only.value()[1], 5.0);
}

TEST(AugmentTest, NullTrainingKeyGetsNaN) {
  Table d;
  Column key(DataType::kInt64);
  key.AppendInt(1);
  key.AppendNull();
  EXPECT_TRUE(d.AddColumn("uid", std::move(key)).ok());
  Table r;
  EXPECT_TRUE(r.AddColumn("uid", Column::FromInts(DataType::kInt64, {1})).ok());
  EXPECT_TRUE(r.AddColumn("v", Column::FromDoubles({2.0})).ok());
  AggQuery q;
  q.agg = AggFunction::kAvg;
  q.agg_attr = "v";
  q.group_keys = {"uid"};
  auto f = QueryPlanner().ComputeFeatureColumn(q, d, r);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f.value()[0], 2.0);
  EXPECT_TRUE(std::isnan(f.value()[1]));
}

TEST(AugmentTest, TrainingKeyAbsentFromRelevantDictionary) {
  // "eve" never appears in R's dictionary: the code map must yield NaN, not
  // a collision with another customer's group.
  Tables t = MakeJoinTables();
  Table d2;
  EXPECT_TRUE(d2.AddColumn("cname", Column::FromStrings({"eve"})).ok());
  auto f = QueryPlanner().ComputeFeatureColumn(SumQuery(), d2, t.r);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(std::isnan(f.value()[0]));
}

TEST(AugmentTest, MissingKeyColumnInTrainingIsError) {
  Tables t = MakeJoinTables();
  AggQuery q = SumQuery();
  q.group_keys = {"pprice"};  // exists in R, not in D
  EXPECT_FALSE(QueryPlanner().ComputeFeatureColumn(q, t.d, t.r).ok());
}

TEST(AugmentTest, KeyTypeMismatchIsError) {
  Table d;
  EXPECT_TRUE(d.AddColumn("k", Column::FromInts(DataType::kInt64, {1})).ok());
  Table r;
  EXPECT_TRUE(r.AddColumn("k", Column::FromStrings({"1"})).ok());
  EXPECT_TRUE(r.AddColumn("v", Column::FromDoubles({1.0})).ok());
  AggQuery q;
  q.agg = AggFunction::kAvg;
  q.agg_attr = "v";
  q.group_keys = {"k"};
  EXPECT_FALSE(QueryPlanner().ComputeFeatureColumn(q, d, r).ok());
}

TEST(AugmentTest, ExecuteAndComputeAgree) {
  // Property: ComputeFeatureColumn matches a manual join against
  // ExecuteAggQuery's result table.
  Tables t = MakeJoinTables();
  AggQuery q = SumQuery();
  q.predicates = {Predicate::Range("pprice", 6.0, std::nullopt)};
  auto feature = QueryPlanner().ComputeFeatureColumn(q, t.d, t.r);
  auto table = QueryPlanner().ExecuteAggQuery(q, t.r);
  ASSERT_TRUE(feature.ok());
  ASSERT_TRUE(table.ok());
  const Column* keys = table.value().GetColumn("cname").value();
  const Column* vals = table.value().GetColumn("feature").value();
  const Column* d_keys = t.d.GetColumn("cname").value();
  for (size_t row = 0; row < t.d.num_rows(); ++row) {
    double expected = std::nan("");
    for (size_t g = 0; g < table.value().num_rows(); ++g) {
      if (keys->StringAt(g) == d_keys->StringAt(row) && !vals->IsNull(g)) {
        expected = vals->DoubleAt(g);
      }
    }
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(feature.value()[row])) << "row " << row;
    } else {
      EXPECT_DOUBLE_EQ(feature.value()[row], expected) << "row " << row;
    }
  }
}

}  // namespace
}  // namespace featlib
