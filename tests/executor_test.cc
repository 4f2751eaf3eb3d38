#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "common/rng.h"

#include "query/query_planner.h"

namespace featlib {
namespace {

// The running example of the paper: User_Logs with purchases per customer.
Table MakeUserLogs() {
  Table t;
  EXPECT_TRUE(t.AddColumn("cname",
                          Column::FromStrings({"ann", "ann", "bob", "bob", "bob",
                                               "cat"}))
                  .ok());
  EXPECT_TRUE(
      t.AddColumn("pprice", Column::FromDoubles({10, 30, 5, 15, 100, 7})).ok());
  EXPECT_TRUE(t.AddColumn("department",
                          Column::FromStrings({"Electronics", "Books",
                                               "Electronics", "Electronics",
                                               "Books", "Toys"}))
                  .ok());
  EXPECT_TRUE(t.AddColumn("ts", Column::FromInts(DataType::kDatetime,
                                                 {100, 200, 100, 300, 300, 100}))
                  .ok());
  return t;
}

AggQuery AvgPriceQuery() {
  AggQuery q;
  q.agg = AggFunction::kAvg;
  q.agg_attr = "pprice";
  q.group_keys = {"cname"};
  return q;
}

TEST(ExecutorTest, GroupByWithoutPredicates) {
  Table logs = MakeUserLogs();
  auto result = QueryPlanner().ExecuteAggQuery(AvgPriceQuery(), logs);
  ASSERT_TRUE(result.ok());
  const Table& out = result.value();
  EXPECT_EQ(out.num_rows(), 3u);
  ASSERT_TRUE(out.HasColumn("feature"));
  // First-seen group order: ann, bob, cat.
  EXPECT_EQ(out.GetColumn("cname").value()->StringAt(0), "ann");
  EXPECT_DOUBLE_EQ(out.GetColumn("feature").value()->DoubleAt(0), 20.0);
  EXPECT_DOUBLE_EQ(out.GetColumn("feature").value()->DoubleAt(1), 40.0);
  EXPECT_DOUBLE_EQ(out.GetColumn("feature").value()->DoubleAt(2), 7.0);
}

TEST(ExecutorTest, PredicateAwareQueryFromThePaper) {
  // SELECT cname, AVG(pprice) WHERE department='Electronics' AND ts >= 150.
  Table logs = MakeUserLogs();
  AggQuery q = AvgPriceQuery();
  q.predicates = {Predicate::Equals("department", Value::Str("Electronics")),
                  Predicate::Range("ts", 150.0, std::nullopt)};
  auto result = QueryPlanner().ExecuteAggQuery(q, logs);
  ASSERT_TRUE(result.ok());
  // Only bob's row (15, ts=300, Electronics) qualifies.
  EXPECT_EQ(result.value().num_rows(), 1u);
  EXPECT_EQ(result.value().GetColumn("cname").value()->StringAt(0), "bob");
  EXPECT_DOUBLE_EQ(result.value().GetColumn("feature").value()->DoubleAt(0), 15.0);
}

TEST(ExecutorTest, EmptyFilterResultYieldsEmptyTable) {
  Table logs = MakeUserLogs();
  AggQuery q = AvgPriceQuery();
  q.predicates = {Predicate::Range("ts", 1e9, std::nullopt)};
  auto result = QueryPlanner().ExecuteAggQuery(q, logs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 0u);
}

TEST(ExecutorTest, NullGroupKeysDropped) {
  Table t;
  Column key(DataType::kInt64);
  key.AppendInt(1);
  key.AppendNull();
  key.AppendInt(1);
  EXPECT_TRUE(t.AddColumn("k", std::move(key)).ok());
  EXPECT_TRUE(t.AddColumn("v", Column::FromDoubles({1, 2, 3})).ok());
  AggQuery q;
  q.agg = AggFunction::kSum;
  q.agg_attr = "v";
  q.group_keys = {"k"};
  auto result = QueryPlanner().ExecuteAggQuery(q, t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result.value().GetColumn("feature").value()->DoubleAt(0), 4.0);
}

TEST(ExecutorTest, NullAggregateBecomesNullFeature) {
  Table t;
  EXPECT_TRUE(t.AddColumn("k", Column::FromInts(DataType::kInt64, {1})).ok());
  EXPECT_TRUE(t.AddColumn("v", Column::FromDoubles({1.0})).ok());
  AggQuery q;
  q.agg = AggFunction::kVarSample;  // undefined for single-row group
  q.agg_attr = "v";
  q.group_keys = {"k"};
  auto result = QueryPlanner().ExecuteAggQuery(q, t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().GetColumn("feature").value()->IsNull(0));
}

TEST(ExecutorTest, CompoundGroupKeys) {
  Table t;
  EXPECT_TRUE(t.AddColumn("a", Column::FromInts(DataType::kInt64, {1, 1, 2, 1})).ok());
  EXPECT_TRUE(t.AddColumn("b", Column::FromInts(DataType::kInt64, {7, 8, 7, 7})).ok());
  EXPECT_TRUE(t.AddColumn("v", Column::FromDoubles({1, 2, 3, 4})).ok());
  AggQuery q;
  q.agg = AggFunction::kSum;
  q.agg_attr = "v";
  q.group_keys = {"a", "b"};
  auto result = QueryPlanner().ExecuteAggQuery(q, t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 3u);  // (1,7), (1,8), (2,7)
  EXPECT_DOUBLE_EQ(result.value().GetColumn("feature").value()->DoubleAt(0), 5.0);
}

TEST(ExecutorTest, ValidationErrors) {
  Table logs = MakeUserLogs();
  AggQuery q = AvgPriceQuery();
  q.group_keys = {};
  EXPECT_FALSE(QueryPlanner().ExecuteAggQuery(q, logs).ok());

  q = AvgPriceQuery();
  q.agg_attr = "missing";
  EXPECT_FALSE(QueryPlanner().ExecuteAggQuery(q, logs).ok());

  q = AvgPriceQuery();
  q.agg = AggFunction::kSum;
  q.agg_attr = "department";  // SUM over categorical
  EXPECT_FALSE(QueryPlanner().ExecuteAggQuery(q, logs).ok());

  q = AvgPriceQuery();
  q.predicates = {Predicate::Range("department", 0.0, 1.0)};
  EXPECT_FALSE(QueryPlanner().ExecuteAggQuery(q, logs).ok());
}

TEST(ExecutorTest, CategoricalAggregations) {
  Table logs = MakeUserLogs();
  AggQuery q;
  q.agg = AggFunction::kCountDistinct;
  q.agg_attr = "department";
  q.group_keys = {"cname"};
  auto result = QueryPlanner().ExecuteAggQuery(q, logs);
  ASSERT_TRUE(result.ok());
  // ann: Electronics+Books=2, bob: 2, cat: 1.
  EXPECT_DOUBLE_EQ(result.value().GetColumn("feature").value()->DoubleAt(0), 2.0);
  EXPECT_DOUBLE_EQ(result.value().GetColumn("feature").value()->DoubleAt(2), 1.0);
}

TEST(ExecutorTest, SqlRendering) {
  Table logs = MakeUserLogs();
  AggQuery q = AvgPriceQuery();
  q.predicates = {Predicate::Equals("department", Value::Str("Electronics")),
                  Predicate::Range("ts", 150.0, std::nullopt)};
  const std::string sql = q.ToSql("User_Logs", logs);
  EXPECT_NE(sql.find("SELECT cname, AVG(pprice) AS feature"), std::string::npos);
  EXPECT_NE(sql.find("FROM User_Logs"), std::string::npos);
  EXPECT_NE(sql.find("department = 'Electronics'"), std::string::npos);
  EXPECT_NE(sql.find("ts >= 150"), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY cname"), std::string::npos);
}

// --- Randomized executor-vs-naive reference ---------------------------------

/// Brute-force evaluation of a query: manual predicate check per row, rows
/// grouped through a map, aggregates delegated to ComputeAggregate (whose
/// own correctness is covered against naive formulas in aggregate_test).
/// This pins down the executor's filter + group-by + alignment plumbing.
std::unordered_map<int64_t, double> NaiveEvaluate(const AggQuery& q,
                                                  const Table& r) {
  const Column* key = r.GetColumn(q.group_keys[0]).value();
  const Column* agg = r.GetColumn(q.agg_attr).value();
  std::unordered_map<int64_t, std::vector<uint32_t>> groups;
  for (size_t row = 0; row < r.num_rows(); ++row) {
    if (key->IsNull(row)) continue;
    bool pass = true;
    for (const Predicate& p : q.predicates) {
      const Column* col = r.GetColumn(p.attr).value();
      if (col->IsNull(row)) {
        pass = false;
        break;
      }
      if (p.kind == Predicate::Kind::kEquals) {
        if (col->type() == DataType::kString) {
          pass = col->StringAt(row) == p.equals_value.string_value();
        } else {
          pass = col->AsDouble(row) == p.equals_value.AsDouble();
        }
      } else {
        const double v = col->AsDouble(row);
        if (p.has_lo && v < p.lo) pass = false;
        if (p.has_hi && v > p.hi) pass = false;
      }
      if (!pass) break;
    }
    if (pass) groups[key->IntAt(row)].push_back(static_cast<uint32_t>(row));
  }
  std::unordered_map<int64_t, double> out;
  for (const auto& [k, rows] : groups) {
    out[k] = ComputeAggregate(q.agg, *agg, rows);
  }
  return out;
}

TEST(ExecutorTest, RandomizedAgainstNaiveReference) {
  Rng rng(314);
  for (int trial = 0; trial < 60; ++trial) {
    // Random relevant table: int64 key, double value with nulls, int level,
    // string dept.
    const size_t n = 30 + rng.UniformInt(120);
    Table r;
    Column key(DataType::kInt64), value(DataType::kDouble);
    Column level(DataType::kInt64), dept(DataType::kString);
    const char* depts[] = {"a", "b", "c"};
    for (size_t i = 0; i < n; ++i) {
      key.AppendInt(static_cast<int64_t>(rng.UniformInt(8)));
      if (rng.Bernoulli(0.15)) {
        value.AppendNull();
      } else {
        value.AppendDouble(rng.Normal(0, 10));
      }
      level.AppendInt(static_cast<int64_t>(rng.UniformInt(5)));
      dept.AppendString(depts[rng.UniformInt(3)]);
    }
    ASSERT_TRUE(r.AddColumn("key", std::move(key)).ok());
    ASSERT_TRUE(r.AddColumn("value", std::move(value)).ok());
    ASSERT_TRUE(r.AddColumn("level", std::move(level)).ok());
    ASSERT_TRUE(r.AddColumn("dept", std::move(dept)).ok());

    // Random query over it.
    AggQuery q;
    auto fns = AllAggFunctions();
    q.agg = fns[rng.UniformInt(fns.size())];
    q.agg_attr = "value";
    q.group_keys = {"key"};
    if (rng.Bernoulli(0.5)) {
      q.predicates.push_back(
          Predicate::Equals("dept", Value::Str(depts[rng.UniformInt(3)])));
    }
    if (rng.Bernoulli(0.5)) {
      const double lo = rng.Normal(0, 5);
      q.predicates.push_back(Predicate::Range(
          "level", 0.0, static_cast<double>(rng.UniformInt(5))));
      (void)lo;
    }

    const auto expected = NaiveEvaluate(q, r);
    auto result = QueryPlanner().ExecuteAggQuery(q, r);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Table& out = result.value();
    ASSERT_EQ(out.num_rows(), expected.size()) << "trial " << trial;
    const Column* out_key = out.GetColumn("key").value();
    const Column* out_feature = out.GetColumn("feature").value();
    for (size_t row = 0; row < out.num_rows(); ++row) {
      auto it = expected.find(out_key->IntAt(row));
      ASSERT_NE(it, expected.end()) << "trial " << trial;
      const bool out_nan =
          out_feature->IsNull(row) || std::isnan(out_feature->AsDouble(row));
      if (std::isnan(it->second)) {
        EXPECT_TRUE(out_nan) << "trial " << trial;
      } else {
        ASSERT_FALSE(out_nan) << "trial " << trial;
        EXPECT_NEAR(out_feature->DoubleAt(row), it->second, 1e-9)
            << "trial " << trial << " agg " << AggFunctionName(q.agg);
      }
    }
  }
}

TEST(ExecutorTest, CacheKeyDistinguishesQueries) {
  AggQuery a = AvgPriceQuery();
  AggQuery b = AvgPriceQuery();
  EXPECT_EQ(a.CacheKey(), b.CacheKey());
  b.agg = AggFunction::kSum;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  b = AvgPriceQuery();
  b.predicates = {Predicate::Range("ts", 1.0, std::nullopt)};
  EXPECT_NE(a.CacheKey(), b.CacheKey());
}

}  // namespace
}  // namespace featlib
