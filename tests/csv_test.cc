/// \file csv_test.cc
/// \brief Pins the CSV reader: typed columns, quoting, IO errors, and byte
/// identity with the two-pass reference reader (tests/csv_oracle.h) on edge
/// cases, generated paper tables and a seeded mutation sweep.
///
/// scripts/ci.sh drives the sweep across seeds through FEATLIB_FUZZ_SEED and
/// FEATLIB_FUZZ_ITERS (tests/mutation.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "csv_oracle.h"
#include "data/synthetic.h"
#include "mutation.h"
#include "table/csv.h"

namespace featlib {
namespace {

// Exact equality: names, types, validity, raw storage (so double bits and
// null placeholders too), dictionary order and codes.
testing::AssertionResult SameTable(const Table& got, const Table& want) {
  if (got.num_columns() != want.num_columns()) {
    return testing::AssertionFailure()
           << got.num_columns() << " columns, want " << want.num_columns();
  }
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& g = got.ColumnAt(c);
    const Column& w = want.ColumnAt(c);
    const std::string at = "column " + std::to_string(c);
    if (got.NameAt(c) != want.NameAt(c)) {
      return testing::AssertionFailure() << at << " named '" << got.NameAt(c)
                                         << "', want '" << want.NameAt(c) << "'";
    }
    if (g.type() != w.type() || g.size() != w.size() ||
        g.null_count() != w.null_count()) {
      return testing::AssertionFailure()
             << at << " type/size/nulls " << static_cast<int>(g.type()) << "/"
             << g.size() << "/" << g.null_count() << ", want "
             << static_cast<int>(w.type()) << "/" << w.size() << "/"
             << w.null_count();
    }
    const size_t n = w.size();
    if (n == 0) continue;
    bool same = std::memcmp(g.raw_validity(), w.raw_validity(), n) == 0;
    switch (w.type()) {
      case DataType::kDouble:
        same = same && std::memcmp(g.raw_doubles(), w.raw_doubles(),
                                   n * sizeof(double)) == 0;
        break;
      case DataType::kString:
        same = same &&
               std::memcmp(g.raw_codes(), w.raw_codes(), n * sizeof(int32_t)) == 0 &&
               g.dictionary() == w.dictionary();
        break;
      default:
        same = same && std::memcmp(g.raw_ints(), w.raw_ints(),
                                   n * sizeof(int64_t)) == 0;
    }
    if (!same) return testing::AssertionFailure() << at << " values differ";
  }
  return testing::AssertionSuccess();
}

// The reader and the oracle give the same Table, or the same Status.
testing::AssertionResult SameAsOracle(const std::string& text,
                                      const CsvReadOptions& options = {}) {
  auto got = ReadCsvFromString(text, options);
  auto want = csv_oracle::ReadCsvFromString(text, options);
  if (got.ok() != want.ok() ||
      (!want.ok() && (got.status().code() != want.status().code() ||
                      got.status().message() != want.status().message()))) {
    return testing::AssertionFailure()
           << "status " << got.status().ToString() << ", want "
           << want.status().ToString();
  }
  return want.ok() ? SameTable(got.value(), want.value())
                   : testing::AssertionSuccess();
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (unsigned char ch : text) {
    if (ch >= 0x20 && ch < 0x7f && ch != '\\') {
      out += static_cast<char>(ch);
    } else {
      out += StrFormat("\\x%02x", ch);
    }
  }
  return out;
}

// Inputs where a naive single pass goes wrong, one per behaviour.
std::vector<std::string> EdgeCases() {
  return {
      // "-0" in an int column that widens: strtod reads it as -0.0.
      "x\n-0\n1.5\n",
      "x\n-000\n 7\n-0\n2.5\n",
      "x\n-0\n-0.0\n",
      "x\n-0\n",
      "x\n-0\n+0\n1\nabc\n",
      // A plain decimal that underflows is a range error, so a string.
      "x\n0." + std::string(320, '0') + "1\n",
      "x\n1\n0." + std::string(320, '0') + "1\n",
      "x\n1e-310\n", "x\n4.9e-324\n", "x\n2.2250738585072014e-308\n",
      // Leading whitespace, '+' and hex floats go through strtod/strtoll.
      "x\n 12\n\t3\n", "x\n+5\n", "x\n+5.5\n1\n", "x\n0x1p3\n2\n",
      "x\n1\n 2.5\n",
      // Non-finite and out-of-range values make a string column.
      "x\ninf\n", "x\nnan\n", "x\n1e400\n", "x\n1\ninf\n2\n",
      "x\n-1e999\n",
      // int64 bounds.
      "x\n9223372036854775808\n", "x\n9223372036854775807\n",
      "x\n-9223372036854775808\n", "x\n-9223372036854775809\n",
      "x\n123456789012345678\n1234567890123456789\n",
      "x\n9007199254740993\n0.5\n",
      // Decimal shapes.
      "x\n1e5\n1E-5\n2.5e+10\n.5\n5.\n-.5\n1.e3\n00012.50\n",
      "x\n1234567890123456789012345678901234567890.5\n",
      "x\n0.1000000000000000055511151231257827\n",
      "x\n1e\n", "x\n-\n", "x\n.\n", "x\n1e+\n", "x\n1e100\n1e99\n",
      "x\n00012\n-007\n",
      // A carriage return outside quotes is dropped, even mid-field.
      "a,b\n1\r2,3\n", "a,b\r\n1,2\r\n",
      // A quote mid-field toggles quoting.
      "s\nab\"c,d\"e\n", "s,t\n\"a\"\"b\",c\n",
      // An unterminated quote runs to the end of the input.
      "s\n\"unterminated\n1\n",
      // Quoted numbers are numbers; quoted newlines stay in the field.
      "x\n\"12\"\n", "s\n\"line1\nline2\"\n3\n",
      // Blank lines: empty, only \r, only "".
      "a\n\n1\n\r\n\"\"\n2\n", "\n\na,b\n1,2\n",
      // Ragged rows count the header and skip blank lines.
      "a,b\n\n1,2\n3\n", "a\n1,2\n", "a,b\n1,2,3,4\n",
      // Duplicate header names fail in AddColumn.
      "a,a\n1,2\n", "a,b\n1\na,a\n",
      // Empty and header-only inputs.
      "", "\n\n", "\"\"\n", "a,b\n", "a", "a\n1",
      // Trailing delimiters are empty (null) fields.
      "a,b,\n1,2,\n",
      // Widening to string re-reads earlier rows, quoted ones included.
      "s,t\n1,\"q,1\"\n\"2\"\r,x\n\n3.5,y\nabc,z\n",
      "a,b,c\n1,2,3\n4,5,6\n7,8,x\n9,y,10\n",
      // Bytes strtod stops at.
      std::string("x\n1\0" "2\n", 6), "x\n\xff\xfe\n",
  };
}

TEST(CsvOracleTest, EdgeCasesMatchOracle) {
  for (const std::string& text : EdgeCases()) {
    for (bool header : {true, false}) {
      CsvReadOptions options;
      options.has_header = header;
      EXPECT_TRUE(SameAsOracle(text, options))
          << "input \"" << Escaped(text) << "\" header " << header;
    }
  }
}

TEST(CsvOracleTest, PinnedEdgeValues) {
  auto neg_zero = ReadCsvFromString("x\n-0\n1.5\n");
  ASSERT_TRUE(neg_zero.ok());
  const Column& x = neg_zero.value().ColumnAt(0);
  ASSERT_EQ(x.type(), DataType::kDouble);
  EXPECT_TRUE(std::signbit(x.DoubleAt(0)));

  auto underflow = ReadCsvFromString("x\n0." + std::string(320, '0') + "1\n");
  ASSERT_TRUE(underflow.ok());
  EXPECT_EQ(underflow.value().ColumnAt(0).type(), DataType::kString);

  auto hex = ReadCsvFromString("x\n0x1p3\n");
  ASSERT_TRUE(hex.ok());
  EXPECT_EQ(hex.value().ColumnAt(0).DoubleAt(0), 8.0);

  auto big = ReadCsvFromString("x\n9223372036854775808\n");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().ColumnAt(0).type(), DataType::kDouble);

  auto cr = ReadCsvFromString("a\n1\r2\n");
  ASSERT_TRUE(cr.ok());
  EXPECT_EQ(cr.value().ColumnAt(0).IntAt(0), 12);

  auto toggled = ReadCsvFromString("s\nab\"c,d\"e\n");
  ASSERT_TRUE(toggled.ok());
  EXPECT_EQ(toggled.value().ColumnAt(0).StringAt(0), "abc,de");

  auto ragged = ReadCsvFromString("a,b\n\n1,2\n3\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().message(), "row 2 has 1 fields, expected 2");
}

TEST(CsvOracleTest, GeneratedPaperTablesMatchOracle) {
  SyntheticOptions options;
  options.n_train = 300;
  for (const DatasetBundle& bundle : {MakeTmall(options), MakeInstacart(options)}) {
    for (const Table* table : {&bundle.training, &bundle.relevant}) {
      const std::string text = WriteCsvToString(*table);
      EXPECT_TRUE(SameAsOracle(text)) << bundle.name;
      CsvReadOptions no_header;
      no_header.has_header = false;
      EXPECT_TRUE(SameAsOracle(text, no_header)) << bundle.name;
      std::string semicolons = text;
      for (char& ch : semicolons) {
        if (ch == ',') ch = ';';
      }
      CsvReadOptions semicolon;
      semicolon.delimiter = ';';
      EXPECT_TRUE(SameAsOracle(semicolons, semicolon)) << bundle.name;
      // The ',' reader on ';' text sees one wide string-or-number column.
      EXPECT_TRUE(SameAsOracle(semicolons)) << bundle.name;
    }
  }
}

TEST(CsvOracleTest, OtherDelimitersMatchOracle) {
  for (char delim : {';', '\t', '"', '\n', '\r', 'e'}) {
    CsvReadOptions options;
    options.delimiter = delim;
    for (const std::string& text : EdgeCases()) {
      EXPECT_TRUE(SameAsOracle(text, options))
          << "input \"" << Escaped(text) << "\" delimiter " << static_cast<int>(delim);
    }
  }
}

// Random byte edits of a small corpus: every input must read the same as the
// oracle (same Table or same Status) and never crash.
TEST(CsvMutationSweep, MutatedInputsMatchOracle) {
  const uint64_t seed = mutation::SweepSeed();
  const uint64_t iters = mutation::SweepIters();
  std::printf("csv mutation sweep: seed %llu, %llu inputs\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(iters));

  std::vector<std::string> corpus = EdgeCases();
  SyntheticOptions options;
  options.n_train = 20;
  const std::string tmall = WriteCsvToString(MakeTmall(options).relevant);
  corpus.push_back(tmall.substr(0, tmall.find('\n', 600) + 1));
  corpus.push_back("id,price,name\n1,2.5,\"a,b\"\n2,-0,\"c\"\"d\"\n3,1e5,e\r\n");

  const std::vector<std::string> alphabet =
      mutation::CharTokens(",;\"\r\n+-.0123456789eExp \t");
  std::mt19937_64 rng(seed);
  size_t parsed = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    std::string text = corpus[rng() % corpus.size()];
    mutation::Mutate(&text, alphabet, rng);
    CsvReadOptions read;
    read.delimiter = rng() % 2 == 0 ? ',' : ';';
    read.has_header = rng() % 4 != 0;
    ASSERT_TRUE(SameAsOracle(text, read))
        << "seed " << seed << " input " << i << " delimiter '" << read.delimiter
        << "' header " << read.has_header << ": \"" << Escaped(text) << "\"";
    parsed += ReadCsvFromString(text, read).ok() ? 1 : 0;
  }
  // The sweep must reach both outcomes to test anything.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, iters);
}

TEST(CsvTest, ParsesTypedColumns) {
  auto result = ReadCsvFromString("a,b,c\n1,2.5,x\n2,3.5,y\n");
  ASSERT_TRUE(result.ok());
  const Table& t = result.value();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetColumn("a").value()->type(), DataType::kInt64);
  EXPECT_EQ(t.GetColumn("b").value()->type(), DataType::kDouble);
  EXPECT_EQ(t.GetColumn("c").value()->type(), DataType::kString);
  EXPECT_EQ(t.GetColumn("c").value()->StringAt(1), "y");
}

TEST(CsvTest, IntPromotesToDouble) {
  auto result = ReadCsvFromString("x\n1\n2.5\n3\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().GetColumn("x").value()->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(result.value().GetColumn("x").value()->DoubleAt(0), 1.0);
}

TEST(CsvTest, EmptyFieldsAreNull) {
  auto result = ReadCsvFromString("a,b\n1,\n,2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().GetColumn("b").value()->IsNull(0));
  EXPECT_TRUE(result.value().GetColumn("a").value()->IsNull(1));
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  auto result = ReadCsvFromString("s\n\"a,b\"\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(result.ok());
  const Column* col = result.value().GetColumn("s").value();
  EXPECT_EQ(col->StringAt(0), "a,b");
  EXPECT_EQ(col->StringAt(1), "he said \"hi\"");
}

TEST(CsvTest, CrlfHandled) {
  auto result = ReadCsvFromString("a,b\r\n1,2\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 1u);
  EXPECT_EQ(result.value().GetColumn("b").value()->IntAt(0), 2);
}

TEST(CsvTest, NoHeaderNamesColumns) {
  CsvReadOptions options;
  options.has_header = false;
  auto result = ReadCsvFromString("1,2\n3,4\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().HasColumn("c0"));
  EXPECT_EQ(result.value().num_rows(), 2u);
}

TEST(CsvTest, RaggedRowRejected) {
  EXPECT_FALSE(ReadCsvFromString("a,b\n1\n").ok());
}

TEST(CsvTest, EmptyInputRejected) {
  EXPECT_FALSE(ReadCsvFromString("").ok());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto result = ReadCsv("/nonexistent/path.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// A directory or a device opens but has no file contents: reading it is an
// IO failure, not an empty CSV.
TEST(CsvTest, NonRegularPathIsIOError) {
  for (const std::string& path : {testing::TempDir(), std::string("/dev/null")}) {
    auto result = ReadCsv(path);
    ASSERT_FALSE(result.ok()) << path;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError) << path;
    EXPECT_NE(result.status().message().find("not a regular file"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(CsvTest, RoundTripPreservesData) {
  Table t;
  ASSERT_TRUE(t.AddColumn("i", Column::FromInts(DataType::kInt64, {1, -2})).ok());
  ASSERT_TRUE(t.AddColumn("d", Column::FromDoubles({0.25, 1e-3})).ok());
  ASSERT_TRUE(t.AddColumn("s", Column::FromStrings({"plain", "with,comma"})).ok());
  Column with_null(DataType::kDouble);
  with_null.AppendNull();
  with_null.AppendDouble(7.0);
  ASSERT_TRUE(t.AddColumn("n", std::move(with_null)).ok());

  const std::string text = WriteCsvToString(t);
  auto back = ReadCsvFromString(text);
  ASSERT_TRUE(back.ok());
  const Table& u = back.value();
  EXPECT_EQ(u.num_rows(), 2u);
  EXPECT_EQ(u.GetColumn("i").value()->IntAt(1), -2);
  EXPECT_DOUBLE_EQ(u.GetColumn("d").value()->DoubleAt(0), 0.25);
  EXPECT_EQ(u.GetColumn("s").value()->StringAt(1), "with,comma");
  EXPECT_TRUE(u.GetColumn("n").value()->IsNull(0));
  EXPECT_DOUBLE_EQ(u.GetColumn("n").value()->AsDouble(1), 7.0);
}

TEST(CsvTest, FileRoundTrip) {
  Table t;
  ASSERT_TRUE(t.AddColumn("x", Column::FromInts(DataType::kInt64, {5, 6})).ok());
  const std::string path = testing::TempDir() + "/featlib_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().GetColumn("x").value()->IntAt(1), 6);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace featlib
