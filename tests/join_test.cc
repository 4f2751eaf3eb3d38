#include <gtest/gtest.h>

#include <cmath>

#include "query/query_planner.h"
#include "query/join.h"

namespace featlib {
namespace {

// Instacart-shaped mini schema: order items (one-to-many logs), products
// (unique dimension), departments (unique dimension).
struct Schema {
  Table items;     // order_id, product_id, qty
  Table products;  // product_id, department_id, price
};

Schema MakeSchema() {
  Schema s;
  EXPECT_TRUE(s.items.AddColumn("order_id", Column::FromInts(DataType::kInt64, {1, 1, 2, 3})).ok());
  EXPECT_TRUE(s.items.AddColumn("product_id", Column::FromInts(DataType::kInt64, {10, 11, 10, 99})).ok());
  EXPECT_TRUE(s.items.AddColumn("qty", Column::FromInts(DataType::kInt64, {2, 1, 5, 1})).ok());

  EXPECT_TRUE(s.products.AddColumn("product_id", Column::FromInts(DataType::kInt64, {10, 11, 12})).ok());
  EXPECT_TRUE(s.products.AddColumn("department", Column::FromStrings({"dairy", "bakery", "frozen"})).ok());
  EXPECT_TRUE(s.products.AddColumn("price", Column::FromDoubles({3.5, 2.0, 7.0})).ok());
  return s;
}

TEST(JoinTest, LeftJoinUniqueBasics) {
  Schema s = MakeSchema();
  auto joined = LeftJoinUnique(s.items, s.products, {"product_id"});
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  const Table& t = joined.value();
  EXPECT_EQ(t.num_rows(), 4u);  // left rows preserved
  ASSERT_TRUE(t.HasColumn("department"));
  ASSERT_TRUE(t.HasColumn("price"));
  EXPECT_EQ(t.GetColumn("department").value()->StringAt(0), "dairy");
  EXPECT_EQ(t.GetColumn("department").value()->StringAt(1), "bakery");
  EXPECT_DOUBLE_EQ(t.GetColumn("price").value()->DoubleAt(2), 3.5);
  // product 99 has no dimension row -> NULLs.
  EXPECT_TRUE(t.GetColumn("department").value()->IsNull(3));
  EXPECT_TRUE(t.GetColumn("price").value()->IsNull(3));
}

TEST(JoinTest, LeftJoinRejectsDuplicateRightKeys) {
  Schema s = MakeSchema();
  // items has duplicate product_id values; joining the other way must fail.
  auto joined = LeftJoinUnique(s.products, s.items, {"product_id"});
  EXPECT_FALSE(joined.ok());
}

TEST(JoinTest, NameCollisionGetsPrefix) {
  Table left;
  ASSERT_TRUE(left.AddColumn("k", Column::FromInts(DataType::kInt64, {1})).ok());
  ASSERT_TRUE(left.AddColumn("v", Column::FromDoubles({1.0})).ok());
  Table right;
  ASSERT_TRUE(right.AddColumn("k", Column::FromInts(DataType::kInt64, {1})).ok());
  ASSERT_TRUE(right.AddColumn("v", Column::FromDoubles({2.0})).ok());
  auto joined = LeftJoinUnique(left, right, {"k"});
  ASSERT_TRUE(joined.ok());
  ASSERT_TRUE(joined.value().HasColumn("r_v"));
  EXPECT_DOUBLE_EQ(joined.value().GetColumn("r_v").value()->DoubleAt(0), 2.0);
}

TEST(JoinTest, NullKeysNeverMatch) {
  Table left;
  Column k(DataType::kInt64);
  k.AppendInt(1);
  k.AppendNull();
  ASSERT_TRUE(left.AddColumn("k", std::move(k)).ok());
  Table right;
  ASSERT_TRUE(right.AddColumn("k", Column::FromInts(DataType::kInt64, {1})).ok());
  ASSERT_TRUE(right.AddColumn("x", Column::FromDoubles({9.0})).ok());
  auto joined = LeftJoinUnique(left, right, {"k"});
  ASSERT_TRUE(joined.ok());
  EXPECT_DOUBLE_EQ(joined.value().GetColumn("x").value()->DoubleAt(0), 9.0);
  EXPECT_TRUE(joined.value().GetColumn("x").value()->IsNull(1));
}

TEST(JoinTest, StringKeysJoinAcrossDictionaries) {
  // Dictionaries built in different orders must still match by value.
  Table left;
  ASSERT_TRUE(left.AddColumn("name", Column::FromStrings({"bob", "ann"})).ok());
  Table right;
  ASSERT_TRUE(right.AddColumn("name", Column::FromStrings({"ann", "bob"})).ok());
  ASSERT_TRUE(right.AddColumn("score", Column::FromDoubles({1.0, 2.0})).ok());
  auto joined = LeftJoinUnique(left, right, {"name"});
  ASSERT_TRUE(joined.ok());
  EXPECT_DOUBLE_EQ(joined.value().GetColumn("score").value()->DoubleAt(0), 2.0);
  EXPECT_DOUBLE_EQ(joined.value().GetColumn("score").value()->DoubleAt(1), 1.0);
}

TEST(JoinTest, InnerJoinExpandOneToMany) {
  Schema s = MakeSchema();
  // Expand products against items: one output row per matching item.
  auto joined = InnerJoinExpand(s.products, s.items, {"product_id"});
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  const Table& t = joined.value();
  // product 10 matches 2 items, product 11 matches 1, product 12 matches 0.
  EXPECT_EQ(t.num_rows(), 3u);
  ASSERT_TRUE(t.HasColumn("qty"));
  ASSERT_TRUE(t.HasColumn("order_id"));
  EXPECT_EQ(t.GetColumn("department").value()->StringAt(0), "dairy");
}

TEST(JoinTest, CompositeKeys) {
  Table left;
  ASSERT_TRUE(left.AddColumn("a", Column::FromInts(DataType::kInt64, {1, 1})).ok());
  ASSERT_TRUE(left.AddColumn("b", Column::FromStrings({"x", "y"})).ok());
  Table right;
  ASSERT_TRUE(right.AddColumn("a", Column::FromInts(DataType::kInt64, {1, 1})).ok());
  ASSERT_TRUE(right.AddColumn("b", Column::FromStrings({"y", "x"})).ok());
  ASSERT_TRUE(right.AddColumn("v", Column::FromDoubles({10.0, 20.0})).ok());
  auto joined = LeftJoinUnique(left, right, {"a", "b"});
  ASSERT_TRUE(joined.ok());
  EXPECT_DOUBLE_EQ(joined.value().GetColumn("v").value()->DoubleAt(0), 20.0);
  EXPECT_DOUBLE_EQ(joined.value().GetColumn("v").value()->DoubleAt(1), 10.0);
}

TEST(JoinTest, Errors) {
  Schema s = MakeSchema();
  EXPECT_FALSE(LeftJoinUnique(s.items, s.products, {}).ok());
  EXPECT_FALSE(LeftJoinUnique(s.items, s.products, {"missing"}).ok());
  // Type mismatch: join int key against string key.
  Table right;
  ASSERT_TRUE(right.AddColumn("product_id", Column::FromStrings({"10"})).ok());
  EXPECT_FALSE(LeftJoinUnique(s.items, right, {"product_id"}).ok());
}

// End-to-end §III flow: flatten logs against a dimension table, then run a
// predicate-aware query against the joined relevant table.
TEST(JoinTest, JoinedRelevantTableFeedsExecutor) {
  Schema s = MakeSchema();
  auto relevant = InnerJoinExpand(s.items, s.products, {"product_id"});
  ASSERT_TRUE(relevant.ok());

  Table training;
  ASSERT_TRUE(training.AddColumn("order_id", Column::FromInts(DataType::kInt64, {1, 2, 3})).ok());

  AggQuery q;
  q.agg = AggFunction::kSum;
  q.agg_attr = "qty";
  q.group_keys = {"order_id"};
  q.predicates = {Predicate::Equals("department", Value::Str("dairy"))};
  auto feature =
      QueryPlanner().ComputeFeatureColumn(q, training, relevant.value());
  ASSERT_TRUE(feature.ok()) << feature.status().ToString();
  EXPECT_DOUBLE_EQ(feature.value()[0], 2.0);  // order 1: dairy qty 2
  EXPECT_DOUBLE_EQ(feature.value()[1], 5.0);  // order 2: dairy qty 5
  EXPECT_TRUE(std::isnan(feature.value()[2]));  // order 3: product 99 dropped
}

}  // namespace
}  // namespace featlib
