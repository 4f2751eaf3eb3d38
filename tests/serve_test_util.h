#pragma once

/// \file serve_test_util.h
/// \brief Shared fixture for the serving-daemon tests: a deterministic
/// relevant/query pair, batch makers, the on-disk `<name>.sql` +
/// `<name>.relevant.csv` artifact pair feataug_serve discovers in a
/// self-removing temp directory, and a
/// byte-identity check routed through the wire codec itself (the codec
/// canonicalizes null placeholders, so equal tables encode to equal
/// bytes — and byte-equal encodings are exactly the serving contract).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/feataug.h"
#include "core/plan_io.h"
#include "serve/protocol.h"
#include "table/csv.h"
#include "table/table.h"

namespace featlib {
namespace serve_test {

/// Deterministic one-to-many relevant table: two join-key columns, nulls,
/// strings and a numeric predicate attribute (mirrors the serving
/// concurrency fixture so every kernel family is exercised).
inline Table MakeRelevant() {
  Table relevant;
  Rng rng(29);
  const char* depts[] = {"x", "y", "z"};
  Column k(DataType::kInt64), k2(DataType::kString), v(DataType::kDouble),
      level(DataType::kInt64), dept(DataType::kString);
  for (int i = 0; i < 400; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(20)));
    k2.AppendString(depts[rng.UniformInt(3)]);
    if (rng.Bernoulli(0.15)) {
      v.AppendNull();
    } else {
      v.AppendDouble(rng.Normal(0, 10));
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(5)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  EXPECT_TRUE(relevant.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(relevant.AddColumn("k2", std::move(k2)).ok());
  EXPECT_TRUE(relevant.AddColumn("v", std::move(v)).ok());
  EXPECT_TRUE(relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(relevant.AddColumn("dept", std::move(dept)).ok());
  return relevant;
}

inline Table MakeBatch(size_t n, uint64_t seed) {
  const char* depts[] = {"x", "y", "z"};
  Rng rng(seed);
  Table batch;
  Column k(DataType::kInt64), k2(DataType::kString), age(DataType::kDouble);
  for (size_t i = 0; i < n; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(24)));
    k2.AppendString(depts[rng.UniformInt(3)]);
    age.AppendDouble(20.0 + static_cast<double>(rng.UniformInt(40)));
  }
  EXPECT_TRUE(batch.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(batch.AddColumn("k2", std::move(k2)).ok());
  EXPECT_TRUE(batch.AddColumn("age", std::move(age)).ok());
  return batch;
}

/// Query set spanning streaming, conjunction-mask, COUNT(*), shared-bucket
/// and two-key-set kernels.
inline std::vector<AggQuery> MakeQueries() {
  auto query = [](AggFunction fn, std::vector<std::string> keys,
                  std::string attr, std::vector<Predicate> preds) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = std::move(attr);
    q.group_keys = std::move(keys);
    q.predicates = std::move(preds);
    return q;
  };
  const Predicate dept_x = Predicate::Equals("dept", Value::Str("x"));
  const Predicate lvl = Predicate::Range("level", 1.0, 3.0);
  std::vector<AggQuery> queries;
  queries.push_back(query(AggFunction::kAvg, {"k"}, "v", {}));
  queries.push_back(query(AggFunction::kSum, {"k"}, "v", {dept_x}));
  queries.push_back(query(AggFunction::kMax, {"k"}, "v", {dept_x, lvl}));
  queries.push_back(query(AggFunction::kCount, {"k"}, "", {lvl}));
  queries.push_back(query(AggFunction::kMedian, {"k"}, "v", {dept_x}));
  queries.push_back(
      query(AggFunction::kCountDistinct, {"k", "k2"}, "v", {}));
  return queries;
}

inline AugmentationPlan MakePlan() {
  AugmentationPlan plan;
  plan.queries = MakeQueries();
  for (size_t i = 0; i < plan.queries.size(); ++i) {
    plan.feature_names.push_back("f" + std::to_string(i));
    plan.valid_metrics.push_back(0.5 + 0.01 * static_cast<double>(i));
  }
  return plan;
}

/// In-process warm handle over the fixture (no files involved).
inline std::shared_ptr<const FittedAugmenter> MakeHandle(
    std::vector<AggQuery> queries = MakeQueries()) {
  FittedAugmenter::Source source;
  source.relevant = MakeRelevant();
  source.queries = std::move(queries);
  std::vector<FittedAugmenter::Source> sources;
  sources.push_back(std::move(source));
  auto created = FittedAugmenter::Create(std::move(sources));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return created.ok()
             ? std::shared_ptr<const FittedAugmenter>(
                   std::move(created).ValueOrDie())
             : nullptr;
}

/// A fresh directory under /tmp that is removed, with everything in it,
/// when the object goes out of scope. Tests may create and delete entries
/// inside it freely. Movable, so fixtures can own one.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix) {
    std::string templ = "/tmp/" + prefix + "XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    char* dir = ::mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    if (dir != nullptr) path_ = dir;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(TempDir&& other) noexcept : path_(std::move(other.path_)) {
    other.path_.clear();
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  TempDir& operator=(TempDir&&) = delete;

  /// Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes the `<name>.sql` + `<name>.relevant.csv` pair DiscoverPlans
/// expects. Returns the relevant table as re-read from its CSV — the exact
/// table the daemon will load, which reference handles must also use for
/// byte-identity comparisons (CSV round-trips are not bit-preserving).
inline Table WritePlanPair(const std::string& dir, const std::string& name) {
  const Table relevant = MakeRelevant();
  const std::string csv_path = dir + "/" + name + ".relevant.csv";
  EXPECT_TRUE(WriteCsv(relevant, csv_path).ok());
  EXPECT_TRUE(WriteAugmentationPlan(MakePlan(), "relevant", relevant,
                                    dir + "/" + name + ".sql")
                  .ok());
  auto reread = ReadCsv(csv_path);
  EXPECT_TRUE(reread.ok()) << reread.status().ToString();
  return reread.ok() ? std::move(reread).ValueOrDie() : Table();
}

inline void ExpectTablesBitIdentical(const Table& actual,
                                     const Table& expected,
                                     const std::string& context) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << context;
  ASSERT_EQ(actual.num_columns(), expected.num_columns()) << context;
  EXPECT_EQ(serve::EncodeTable(actual), serve::EncodeTable(expected))
      << context;
}

}  // namespace serve_test
}  // namespace featlib
