/// \file executor_golden_test.cc
/// \brief Equivalence tests of the planner execution path against the
/// recorded-golden oracle.
///
/// Historically these tests compared the batched executor bit-for-bit
/// against the legacy per-candidate path (ComputeFeatureColumnLegacy /
/// ExecuteAggQueryLegacy). That path is retired; its validated outputs are
/// frozen in tests/golden/ (regenerated via scripts/regen_goldens.sh), so
/// the planner must still reproduce them byte for byte — including which
/// trials error out.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "common/rng.h"
#include "golden_util.h"
#include "query/query_planner.h"
#include "query/group_index.h"

namespace featlib {
namespace {

using golden::SameBits;

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

// Random relevant table with a compound (int, string) key, a double key
// column holding both signed zeros, NULL-heavy values and predicate
// attributes; random training table keyed over a partially-overlapping
// domain (some entities never occur in R). The Rng consumption order is
// part of the golden contract: changing it generates different tables, so
// the fixtures must be regenerated with it.
struct RandomPair {
  Table relevant;
  Table training;
};

RandomPair MakeRandomPair(Rng* rng, bool null_heavy) {
  const double null_p = null_heavy ? 0.45 : 0.1;
  const char* cities[] = {"ber", "nyc", "sfo", "tok"};
  const char* depts[] = {"a", "b", "c"};

  RandomPair out;
  const size_t n_rel = 60 + rng->UniformInt(140);
  Column uid(DataType::kInt64), city(DataType::kString), zkey(DataType::kDouble);
  Column value(DataType::kDouble), level(DataType::kInt64), dept(DataType::kString);
  for (size_t i = 0; i < n_rel; ++i) {
    if (rng->Bernoulli(0.05)) {
      uid.AppendNull();
    } else {
      uid.AppendInt(static_cast<int64_t>(rng->UniformInt(10)));
    }
    city.AppendString(cities[rng->UniformInt(4)]);
    // Mixes 0.0 and -0.0 into a double-typed join key.
    const int zi = static_cast<int>(rng->UniformInt(4));
    zkey.AppendDouble(zi == 0 ? 0.0 : (zi == 1 ? -0.0 : static_cast<double>(zi)));
    if (rng->Bernoulli(null_p)) {
      value.AppendNull();
    } else {
      value.AppendDouble(rng->Normal(0, 10));
    }
    level.AppendInt(static_cast<int64_t>(rng->UniformInt(5)));
    dept.AppendString(depts[rng->UniformInt(3)]);
  }
  EXPECT_TRUE(out.relevant.AddColumn("uid", std::move(uid)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("city", std::move(city)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("zkey", std::move(zkey)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("value", std::move(value)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());

  const char* d_cities[] = {"ber", "nyc", "sfo", "tok", "lis"};  // lis not in R
  const size_t n_train = 30 + rng->UniformInt(40);
  Column d_uid(DataType::kInt64), d_city(DataType::kString), d_zkey(DataType::kDouble);
  for (size_t i = 0; i < n_train; ++i) {
    if (rng->Bernoulli(0.05)) {
      d_uid.AppendNull();
    } else {
      d_uid.AppendInt(static_cast<int64_t>(rng->UniformInt(12)));  // 10,11 miss
    }
    d_city.AppendString(d_cities[rng->UniformInt(5)]);
    const int zi = static_cast<int>(rng->UniformInt(4));
    d_zkey.AppendDouble(zi == 0 ? 0.0 : (zi == 1 ? -0.0 : static_cast<double>(zi)));
  }
  EXPECT_TRUE(out.training.AddColumn("uid", std::move(d_uid)).ok());
  EXPECT_TRUE(out.training.AddColumn("city", std::move(d_city)).ok());
  EXPECT_TRUE(out.training.AddColumn("zkey", std::move(d_zkey)).ok());
  return out;
}

AggQuery MakeRandomQuery(Rng* rng) {
  AggQuery q;
  auto fns = AllAggFunctions();
  q.agg = fns[rng->UniformInt(fns.size())];
  // Categorical agg attribute for the functions defined on it, half the time.
  if (SupportsCategorical(q.agg) && rng->Bernoulli(0.3)) {
    q.agg_attr = "dept";
  } else {
    q.agg_attr = "value";
  }
  switch (rng->UniformInt(4)) {
    case 0:
      q.group_keys = {"uid"};
      break;
    case 1:
      q.group_keys = {"uid", "city"};
      break;
    case 2:
      q.group_keys = {"zkey"};
      break;
    default:
      q.group_keys = {"city", "zkey"};
      break;
  }
  if (rng->Bernoulli(0.5)) {
    const char* depts[] = {"a", "b", "c", "zz"};  // zz: empty selection
    q.predicates.push_back(
        Predicate::Equals("dept", Value::Str(depts[rng->UniformInt(4)])));
  }
  if (rng->Bernoulli(0.5)) {
    q.predicates.push_back(Predicate::Range(
        "level", rng->Bernoulli(0.5) ? std::optional<double>(1.0) : std::nullopt,
        static_cast<double>(rng->UniformInt(5))));
  }
  return q;
}

// --- Feature columns pinned byte-for-byte to the recorded goldens -----------

TEST(ExecutorGoldenTest, FeatureColumnsMatchRecordedGoldens) {
  golden::GoldenFile goldens("feature_columns.golden");
  Rng rng(2024);
  QueryPlanner planner;  // shared across trials: exercises artifact reuse
  RandomPair tables = MakeRandomPair(&rng, /*null_heavy=*/false);
  for (int trial = 0; trial < 200; ++trial) {
    if (trial == 100) {
      // Fresh NULL-heavy tables (and a fresh planner: new table contents).
      tables = MakeRandomPair(&rng, /*null_heavy=*/true);
      planner = QueryPlanner();
    }
    AggQuery q = MakeRandomQuery(&rng);
    auto column = planner.ComputeFeatureColumn(q, tables.training, tables.relevant);
    const std::string key = "trial" + std::to_string(trial);
    // Which trials fail is part of the recorded contract.
    goldens.Check(key, column.ok() ? golden::EncodeColumn(column.value())
                                   : std::string("ERR"));
  }
}

TEST(ExecutorGoldenTest, ExecuteAggQueryMatchesRecordedGoldens) {
  golden::GoldenFile goldens("agg_query_tables.golden");
  Rng rng(77);
  QueryPlanner planner;
  RandomPair tables = MakeRandomPair(&rng, /*null_heavy=*/true);
  for (int trial = 0; trial < 120; ++trial) {
    AggQuery q = MakeRandomQuery(&rng);
    auto grouped = planner.ExecuteAggQuery(q, tables.relevant);
    const std::string key = "trial" + std::to_string(trial);
    goldens.Check(key, grouped.ok() ? golden::EncodeTable(grouped.value())
                                    : std::string("ERR"));
  }
}

// --- Batched vs per-candidate self-consistency ------------------------------

TEST(ExecutorGoldenTest, EvaluateManyMatchesPerCandidateCalls) {
  Rng rng(5);
  RandomPair tables = MakeRandomPair(&rng, /*null_heavy=*/false);
  std::vector<AggQuery> queries;
  for (int i = 0; i < 24; ++i) queries.push_back(MakeRandomQuery(&rng));

  QueryPlanner batch;
  auto many = batch.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  ASSERT_EQ(many.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = QueryPlanner().ComputeFeatureColumn(
        queries[i], tables.training, tables.relevant);
    ASSERT_TRUE(single.ok());
    ExpectColumnsBitIdentical(many.value()[i], single.value(),
                              queries[i].CacheKey());
  }
  // Candidates draw from 4 group-key sets; the shared index must be built
  // once per set, not once per candidate.
  EXPECT_LE(batch.num_group_index_builds(), 4u);
}

TEST(ExecutorGoldenTest, PredicateMasksAreSharedAcrossCandidates) {
  Rng rng(8);
  RandomPair tables = MakeRandomPair(&rng, /*null_heavy=*/false);
  // Same predicate under every agg function: one mask build, 15 candidates.
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = "value";
    q.group_keys = {"uid"};
    q.predicates = {Predicate::Equals("dept", Value::Str("a"))};
    queries.push_back(std::move(q));
  }
  QueryPlanner batch;
  auto many = batch.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  EXPECT_EQ(batch.num_mask_builds(), 1u);
  EXPECT_EQ(batch.num_group_index_builds(), 1u);
}

// --- Signed-zero join keys (the -0.0 vs 0.0 encoding fix) -------------------

TEST(ExecutorGoldenTest, SignedZeroKeysJoinAcrossTables) {
  Table relevant;
  ASSERT_TRUE(relevant.AddColumn("k", Column::FromDoubles({-0.0, 1.0})).ok());
  ASSERT_TRUE(relevant.AddColumn("v", Column::FromDoubles({5.0, 9.0})).ok());
  Table training;
  ASSERT_TRUE(training.AddColumn("k", Column::FromDoubles({0.0, -0.0, 1.0})).ok());

  AggQuery q;
  q.agg = AggFunction::kSum;
  q.agg_attr = "v";
  q.group_keys = {"k"};

  auto feature = QueryPlanner().ComputeFeatureColumn(q, training, relevant);
  ASSERT_TRUE(feature.ok());
  // 0.0 == -0.0: both spellings of zero must join the same group.
  EXPECT_DOUBLE_EQ(feature.value()[0], 5.0);
  EXPECT_DOUBLE_EQ(feature.value()[1], 5.0);
  EXPECT_DOUBLE_EQ(feature.value()[2], 9.0);

  // Rows with either zero spelling collapse into one group.
  auto grouped = QueryPlanner().ExecuteAggQuery(q, relevant);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.value().num_rows(), 2u);
}

// --- Determinism ------------------------------------------------------------

TEST(ExecutorGoldenTest, GroupOrderingIsDeterministic) {
  Rng rng(99);
  RandomPair tables = MakeRandomPair(&rng, /*null_heavy=*/true);
  AggQuery q = MakeRandomQuery(&rng);
  q.group_keys = {"uid", "city"};

  auto first = QueryPlanner().ExecuteAggQuery(q, tables.relevant);
  ASSERT_TRUE(first.ok());
  const std::string expected = golden::EncodeTable(first.value());
  for (int repeat = 0; repeat < 3; ++repeat) {
    QueryPlanner fresh;
    auto again = fresh.ExecuteAggQuery(q, tables.relevant);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(golden::EncodeTable(again.value()), expected)
        << "repeat " << repeat;
  }
}

TEST(ExecutorGoldenTest, EvaluateManyIsOrderInsensitive) {
  Rng rng(31);
  RandomPair tables = MakeRandomPair(&rng, /*null_heavy=*/false);
  std::vector<AggQuery> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(MakeRandomQuery(&rng));
  std::vector<AggQuery> reversed(queries.rbegin(), queries.rend());

  QueryPlanner a, b;
  auto fwd = a.EvaluateMany(queries, tables.training, tables.relevant);
  auto rev = b.EvaluateMany(reversed, tables.training, tables.relevant);
  ASSERT_TRUE(fwd.ok() && rev.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(fwd.value()[i],
                              rev.value()[queries.size() - 1 - i],
                              queries[i].CacheKey());
  }
}

// --- Error handling ----------------------------------------------------------

TEST(ExecutorGoldenTest, InvalidQueriesAreRejected) {
  Rng rng(12);
  RandomPair tables = MakeRandomPair(&rng, /*null_heavy=*/false);

  AggQuery no_keys;
  no_keys.agg = AggFunction::kSum;
  no_keys.agg_attr = "value";
  QueryPlanner planner;
  EXPECT_FALSE(
      planner.ComputeFeatureColumn(no_keys, tables.training, tables.relevant)
          .ok());

  AggQuery missing_attr;
  missing_attr.agg = AggFunction::kSum;
  missing_attr.agg_attr = "nope";
  missing_attr.group_keys = {"uid"};
  EXPECT_FALSE(planner
                   .ComputeFeatureColumn(missing_attr, tables.training,
                                         tables.relevant)
                   .ok());

  AggQuery key_not_in_training;
  key_not_in_training.agg = AggFunction::kSum;
  key_not_in_training.agg_attr = "value";
  key_not_in_training.group_keys = {"level"};  // in R, not in D
  EXPECT_FALSE(planner
                   .ComputeFeatureColumn(key_not_in_training, tables.training,
                                         tables.relevant)
                   .ok());

  AggQuery sum_over_string;
  sum_over_string.agg = AggFunction::kSum;
  sum_over_string.agg_attr = "dept";
  sum_over_string.group_keys = {"uid"};
  EXPECT_FALSE(planner
                   .ComputeFeatureColumn(sum_over_string, tables.training,
                                         tables.relevant)
                   .ok());
}

}  // namespace
}  // namespace featlib
