#include "query/sql_parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "common/rng.h"
#include "core/plan_io.h"
#include "mutation.h"

namespace featlib {
namespace {

Table MakeLogs() {
  Table t;
  EXPECT_TRUE(t.AddColumn("cname", Column::FromStrings({"u1", "u2", "u1"})).ok());
  EXPECT_TRUE(t.AddColumn("pprice", Column::FromDoubles({10, 20, 30})).ok());
  EXPECT_TRUE(
      t.AddColumn("department", Column::FromStrings({"Electronics", "Toys", "Toys"}))
          .ok());
  EXPECT_TRUE(
      t.AddColumn("ts", Column::FromInts(DataType::kDatetime, {100, 200, 300})).ok());
  EXPECT_TRUE(t.AddColumn("level", Column::FromInts(DataType::kInt64, {1, 2, 3})).ok());
  return t;
}

TEST(SqlParserTest, ParsesThePaperExampleQuery) {
  // Example 4 of the paper, modulo the datetime spelling.
  auto parsed = ParseAggQuerySql(
      "SELECT cname, AVG(pprice) AS avgprice\n"
      "FROM User_Logs\n"
      "WHERE department = 'Electronics' AND ts >= 200\n"
      "GROUP BY cname");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ParsedAggQuery& q = parsed.value();
  EXPECT_EQ(q.relation, "User_Logs");
  EXPECT_EQ(q.feature_alias, "avgprice");
  EXPECT_EQ(q.query.agg, AggFunction::kAvg);
  EXPECT_EQ(q.query.agg_attr, "pprice");
  EXPECT_EQ(q.query.group_keys, (std::vector<std::string>{"cname"}));
  ASSERT_EQ(q.query.predicates.size(), 2u);
  EXPECT_EQ(q.query.predicates[0].kind, Predicate::Kind::kEquals);
  EXPECT_EQ(q.query.predicates[0].equals_value.string_value(), "Electronics");
  EXPECT_EQ(q.query.predicates[1].kind, Predicate::Kind::kRange);
  EXPECT_TRUE(q.query.predicates[1].has_lo);
  EXPECT_FALSE(q.query.predicates[1].has_hi);
  EXPECT_DOUBLE_EQ(q.query.predicates[1].lo, 200.0);
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  auto parsed = ParseAggQuerySql(
      "select cname, sum(pprice) as f from r where ts between 1 and 5 "
      "group by cname");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().query.agg, AggFunction::kSum);
  ASSERT_EQ(parsed.value().query.predicates.size(), 1u);
  EXPECT_TRUE(parsed.value().query.predicates[0].has_lo);
  EXPECT_TRUE(parsed.value().query.predicates[0].has_hi);
}

TEST(SqlParserTest, MultiKeyGroupBy) {
  auto parsed = ParseAggQuerySql(
      "SELECT user_id, merchant_id, COUNT(rid) AS feature FROM logs "
      "GROUP BY user_id, merchant_id");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().query.group_keys,
            (std::vector<std::string>{"user_id", "merchant_id"}));
}

TEST(SqlParserTest, AliasDefaultsToFeature) {
  auto parsed =
      ParseAggQuerySql("SELECT k, MAX(x) FROM r GROUP BY k");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().feature_alias, "feature");
}

TEST(SqlParserTest, EscapedQuoteInStringLiteral) {
  auto parsed = ParseAggQuerySql(
      "SELECT k, COUNT(x) FROM r WHERE dept = 'it''s' GROUP BY k");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().query.predicates[0].equals_value.string_value(), "it's");
}

TEST(SqlParserTest, IntegerAndFloatEqualityLiterals) {
  auto p1 = ParseAggQuerySql("SELECT k, COUNT(x) FROM r WHERE lvl = 3 GROUP BY k");
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1.value().query.predicates[0].equals_value.tag(), Value::Tag::kInt);
  auto p2 = ParseAggQuerySql("SELECT k, COUNT(x) FROM r WHERE lvl = 3.5 GROUP BY k");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2.value().query.predicates[0].equals_value.tag(), Value::Tag::kDouble);
}

TEST(SqlParserTest, NegativeAndScientificBounds) {
  auto parsed = ParseAggQuerySql(
      "SELECT k, AVG(x) FROM r WHERE a >= -2.5 AND b <= 1e+06 GROUP BY k");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed.value().query.predicates[0].lo, -2.5);
  EXPECT_DOUBLE_EQ(parsed.value().query.predicates[1].hi, 1e6);
}

TEST(SqlParserTest, TrueConjunctContributesNoPredicate) {
  auto parsed = ParseAggQuerySql(
      "SELECT k, COUNT(x) FROM r WHERE TRUE AND a >= 1 GROUP BY k");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().query.predicates.size(), 1u);
}

TEST(SqlParserTest, ScriptParsesMultipleStatements) {
  auto parsed = ParseAggQueryScript(
      ";SELECT k, COUNT(x) FROM r GROUP BY k;\n"
      "SELECT k, AVG(y) AS f2 FROM r WHERE y >= 0 GROUP BY k;");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[1].feature_alias, "f2");
}

TEST(SqlParserTest, EmptyScriptIsEmpty) {
  auto parsed = ParseAggQueryScript("  ;; ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
}

// --- Rejection paths -------------------------------------------------------

struct BadSqlCase {
  const char* name;
  const char* sql;
  const char* expect_substr;
};

class SqlParserRejects : public ::testing::TestWithParam<BadSqlCase> {};

TEST_P(SqlParserRejects, WithHelpfulMessage) {
  auto parsed = ParseAggQuerySql(GetParam().sql);
  ASSERT_FALSE(parsed.ok()) << "accepted: " << GetParam().sql;
  EXPECT_NE(parsed.status().ToString().find(GetParam().expect_substr),
            std::string::npos)
      << parsed.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Dialect, SqlParserRejects,
    ::testing::Values(
        BadSqlCase{"NoSelect", "FROM r GROUP BY k", "expected SELECT"},
        BadSqlCase{"NoAggregate", "SELECT k FROM r GROUP BY k",
                   "lacks an aggregate"},
        BadSqlCase{"TwoAggregates",
                   "SELECT k, SUM(x), AVG(y) FROM r GROUP BY k",
                   "exactly one aggregate"},
        BadSqlCase{"UnknownAgg", "SELECT k, FOO(x) FROM r GROUP BY k",
                   "unknown aggregation function"},
        BadSqlCase{"StrictGreater",
                   "SELECT k, SUM(x) FROM r WHERE a > 1 GROUP BY k",
                   "strict comparisons"},
        BadSqlCase{"StrictLess",
                   "SELECT k, SUM(x) FROM r WHERE a < 1 GROUP BY k",
                   "strict comparisons"},
        BadSqlCase{"NotEquals",
                   "SELECT k, SUM(x) FROM r WHERE a != 1 GROUP BY k",
                   "outside the Def. 2 query class"},
        BadSqlCase{"IntegerLiteralOutOfRange",
                   "SELECT k, SUM(x) FROM r WHERE a = 99999999999999999999 "
                   "GROUP BY k",
                   "out of int64 range"},
        BadSqlCase{"NullLiteral",
                   "SELECT k, SUM(x) FROM r WHERE a = NULL GROUP BY k",
                   "NULL comparisons"},
        BadSqlCase{"InvertedBetween",
                   "SELECT k, SUM(x) FROM r WHERE a BETWEEN 5 AND 1 GROUP BY k",
                   "inverted"},
        BadSqlCase{"MissingGroupBy", "SELECT k, SUM(x) FROM r", "expected GROUP"},
        BadSqlCase{"SelectKeyNotGrouped",
                   "SELECT k, j, SUM(x) FROM r GROUP BY k",
                   "missing from GROUP BY"},
        BadSqlCase{"GroupKeyNotSelected",
                   "SELECT k, SUM(x) FROM r GROUP BY k, j",
                   "missing from the SELECT list"},
        BadSqlCase{"UnterminatedString",
                   "SELECT k, SUM(x) FROM r WHERE d = 'oops GROUP BY k",
                   "unterminated string"},
        BadSqlCase{"TrailingGarbage",
                   "SELECT k, SUM(x) FROM r GROUP BY k extra", "trailing input"},
        BadSqlCase{"StrayCharacter",
                   "SELECT k, SUM(x) FROM r GROUP BY k @", "unexpected character"}),
    [](const ::testing::TestParamInfo<BadSqlCase>& info) {
      return info.param.name;
    });

// --- Schema-validated overload ---------------------------------------------

TEST(SqlParserSchemaTest, AcceptsWellTypedQuery) {
  Table logs = MakeLogs();
  auto parsed = ParseAggQuerySql(
      "SELECT cname, AVG(pprice) FROM logs WHERE department = 'Toys' "
      "AND ts >= 150 GROUP BY cname",
      logs);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(SqlParserSchemaTest, RejectsUnknownColumn) {
  Table logs = MakeLogs();
  auto parsed =
      ParseAggQuerySql("SELECT cname, AVG(nope) FROM logs GROUP BY cname", logs);
  ASSERT_FALSE(parsed.ok());
}

TEST(SqlParserSchemaTest, RejectsNumericLiteralOnStringColumn) {
  Table logs = MakeLogs();
  auto parsed = ParseAggQuerySql(
      "SELECT cname, COUNT(pprice) FROM logs WHERE department = 7 GROUP BY cname",
      logs);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("type mismatch"), std::string::npos);
}

TEST(SqlParserSchemaTest, RejectsStringLiteralOnIntColumn) {
  Table logs = MakeLogs();
  auto parsed = ParseAggQuerySql(
      "SELECT cname, COUNT(pprice) FROM logs WHERE level = 'three' GROUP BY cname",
      logs);
  ASSERT_FALSE(parsed.ok());
}

TEST(SqlParserSchemaTest, RejectsRangeOnStringColumn) {
  Table logs = MakeLogs();
  auto parsed = ParseAggQuerySql(
      "SELECT cname, COUNT(pprice) FROM logs WHERE department >= 1 GROUP BY cname",
      logs);
  ASSERT_FALSE(parsed.ok());
}

// --- Round-trip property ----------------------------------------------------

/// Draws a random query against MakeLogs()'s schema.
AggQuery RandomQuery(Rng* rng) {
  AggQuery q;
  auto fns = AllAggFunctions();
  q.agg = fns[rng->UniformInt(fns.size())];
  q.agg_attr = "pprice";
  q.group_keys = {"cname"};
  if (rng->Uniform() < 0.5) {
    const char* depts[] = {"Electronics", "Toys", "it's"};
    q.predicates.push_back(
        Predicate::Equals("department", Value::Str(depts[rng->UniformInt(3)])));
  }
  if (rng->Uniform() < 0.7) {
    const int pick = static_cast<int>(rng->UniformInt(3));
    std::optional<double> lo, hi;
    if (pick == 0 || pick == 2) lo = static_cast<double>(rng->UniformRange(0, 200));
    if (pick == 1 || pick == 2) hi = static_cast<double>(rng->UniformRange(200, 400));
    q.predicates.push_back(Predicate::Range("ts", lo, hi));
  }
  if (rng->Uniform() < 0.3) {
    q.predicates.push_back(
        Predicate::Equals("level", Value::Int(rng->UniformRange(1, 3))));
  }
  return q;
}

TEST(SqlParserRoundTripTest, SqlOfParseOfSqlIsAFixedPoint) {
  Table logs = MakeLogs();
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    const AggQuery q = RandomQuery(&rng);
    const std::string sql = q.ToSql("logs", logs);
    auto parsed = ParseAggQuerySql(sql, logs);
    ASSERT_TRUE(parsed.ok()) << sql << "\n" << parsed.status().ToString();
    EXPECT_EQ(parsed.value().query.ToSql("logs", logs), sql) << "iteration " << i;
    EXPECT_EQ(parsed.value().query.CacheKey(), q.CacheKey()) << sql;
    EXPECT_EQ(parsed.value().relation, "logs");
  }
}

// A bound beyond int64 on an integer column renders as a double: llround
// has no defined value there (-2^63 on x86), which would invert the
// BETWEEN.
TEST(SqlParserRoundTripTest, OutOfRangeIntegerBoundKeepsItsValue) {
  Table logs = MakeLogs();
  auto parsed = ParseAggQuerySql(
      "SELECT cname, MODE(pprice) FROM logs WHERE ts BETWEEN 163 AND 2e33 "
      "AND level >= -1e19 GROUP BY cname",
      logs);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string sql = parsed.value().query.ToSql("logs", logs);
  EXPECT_NE(sql.find("ts BETWEEN 163 AND 2e+33"), std::string::npos) << sql;
  EXPECT_NE(sql.find("level >= -1e+19"), std::string::npos) << sql;
  auto again = ParseAggQuerySql(sql, logs);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().query.ToSql("logs", logs), sql);
}

// --- Hostile-input sweep ----------------------------------------------------

// `parsed` renders to SQL that parses again (against `schema` when
// `with_schema`) and renders to the same text: the ToSql fixed point.
testing::AssertionResult ReachesToSqlFixedPoint(const ParsedAggQuery& parsed,
                                                const Table& schema,
                                                bool with_schema) {
  const std::string sql = parsed.query.ToSql(parsed.relation, schema);
  auto again = with_schema ? ParseAggQuerySql(sql, schema)
                           : ParseAggQuerySql(sql);
  if (!again.ok()) {
    return testing::AssertionFailure()
           << "rendered SQL does not parse: " << again.status().ToString()
           << "\n" << sql;
  }
  const std::string resql = again.value().query.ToSql(again.value().relation,
                                                      schema);
  if (resql != sql) {
    return testing::AssertionFailure() << "not a fixed point:\n"
                                       << sql << "\n--- vs ---\n"
                                       << resql;
  }
  return testing::AssertionSuccess();
}

// Random edits of a corpus of dialect text (the paper query, ToSql
// round-trip outputs and a serialized plan script), drawn from the
// dialect's punctuation, digits and keywords: every input must end in OK or
// a non-OK Status, never a crash, and every query that parses must reach
// the ToSql fixed point. scripts/ci.sh rotates FEATLIB_FUZZ_SEED daily.
TEST(SqlMutationSweep, ParsesOrFailsCleanlyAndRoundTrips) {
  const uint64_t seed = mutation::SweepSeed();
  const uint64_t iters = mutation::SweepIters();
  std::printf("sql mutation sweep: seed %llu, %llu inputs\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(iters));

  const Table logs = MakeLogs();
  const Table no_schema;
  std::vector<std::string> corpus = {
      "SELECT cname, AVG(pprice) AS avgprice\n"
      "FROM User_Logs\n"
      "WHERE department = 'Electronics' AND ts >= 200\n"
      "GROUP BY cname",
      "SELECT cname, COUNT(*) AS n FROM logs WHERE level BETWEEN 1 AND 3 "
      "AND pprice <= -2.5e+01 GROUP BY cname;",
  };
  Rng query_rng(7);
  AugmentationPlan plan;
  for (int i = 0; i < 6; ++i) {
    const AggQuery q = RandomQuery(&query_rng);
    corpus.push_back(q.ToSql("logs", logs));
    if (i < 3) {
      plan.queries.push_back(q);
      plan.feature_names.push_back("f" + std::to_string(i));
      plan.valid_metrics.push_back(0.5 + 0.125 * i);
    }
  }
  corpus.push_back(SerializeAugmentationPlan(plan, "logs", logs));

  std::vector<std::string> tokens =
      mutation::CharTokens("'(),;=<>.-+0123456789eE \n");
  for (const char* keyword :
       {"SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR", "AS",
        "BETWEEN", "TRUE", "NULL", "COUNT", "MEDIAN", "*", "--"}) {
    tokens.emplace_back(keyword);
  }

  std::mt19937_64 rng(seed);
  size_t ok = 0, failed = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    std::string text = corpus[rng() % corpus.size()];
    mutation::Mutate(&text, tokens, rng);
    const std::string where = "seed " + std::to_string(seed) + " input " +
                              std::to_string(i) + ":\n" + text;

    for (const bool with_schema : {false, true}) {
      auto parsed = with_schema ? ParseAggQuerySql(text, logs)
                                : ParseAggQuerySql(text);
      if (!parsed.ok()) {
        ++failed;
        ASSERT_FALSE(parsed.status().message().empty()) << where;
        continue;
      }
      ++ok;
      ASSERT_TRUE(ReachesToSqlFixedPoint(
          parsed.value(), with_schema ? logs : no_schema, with_schema))
          << where;
    }
    auto script = ParseAggQueryScript(text);
    if (!script.ok()) {
      ASSERT_FALSE(script.status().message().empty()) << where;
    }
  }
  std::printf("sql mutation sweep: %zu parses OK, %zu rejected\n", ok, failed);
  // The sweep must reach both outcomes to test anything.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace featlib
