/// \file value_order_test.cc
/// \brief Pins the order-statistic path of the in-RAM planner: the ValueOrder
/// artifact (each group's rows in ascending IEEE total order, nulls last)
/// and its kernel give the bytes ComputeAggregate gives over the group's
/// selected values in row order — for COUNT_DISTINCT, ENTROPY, MODE, MAD
/// and MEDIAN, under null, empty, sparse and dense masks, with nulls,
/// signed zeros and all-null groups, at any build or kernel group-range
/// cut and thread count — and the planner stays byte-identical to the
/// morsel pipeline and to ExecuteAggQuery. Also pins one build per (group
/// keys, attribute) pair reused across batches, the `prepare.order` fault
/// site and the build's memory charge.
///
/// scripts/ci.sh runs this binary under every FEATLIB_KERNEL_BACKEND and
/// FEATLIB_NUM_THREADS value; the planner tests add the resolved thread
/// count to the pools they sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/exec_context.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "golden_util.h"
#include "query/aggregate.h"
#include "query/group_index.h"
#include "query/kernel_dispatch.h"
#include "query/kernels.h"
#include "query/query_planner.h"

namespace featlib {
namespace {

using golden::SameBits;

const AggFunction kOrderStatistics[] = {
    AggFunction::kCountDistinct, AggFunction::kEntropy, AggFunction::kMode,
    AggFunction::kMad, AggFunction::kMedian};

void ExpectBitIdentical(const std::vector<double>& actual,
                        const std::vector<double>& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(SameBits(actual[i], expected[i]))
        << context << " slot " << i << ": got " << actual[i] << ", want "
        << expected[i];
  }
}

struct Pair {
  Table relevant;
  Table training;
};

// `n_rows` relevant rows over `n_keys` int keys (some null): about 20% null
// values, 10% signed zeros, and key 0 all null. The other values are
// quarters, so runs repeat, or — `continuous` — full-mantissa draws, a
// quarter of them one ulp above or below the previous draw, so keys differ
// in every byte, down to the last. Training rows cover every key and a few that never occur.
Pair MakePair(uint64_t seed, size_t n_rows, int n_keys,
              bool continuous = false) {
  Pair out;
  Rng rng(seed);
  const char* depts[] = {"a", "b", "c"};
  Column k(DataType::kInt64), v(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
  double last = 1.0;
  for (size_t i = 0; i < n_rows; ++i) {
    const int64_t key = static_cast<int64_t>(rng.UniformInt(n_keys));
    if (rng.Bernoulli(0.01)) {
      k.AppendNull();
    } else {
      k.AppendInt(key);
    }
    if (key == 0 || rng.Bernoulli(0.2)) {
      v.AppendNull();
    } else if (rng.Bernoulli(0.1)) {
      v.AppendDouble(rng.Bernoulli(0.5) ? 0.0 : -0.0);
    } else if (!continuous) {
      v.AppendDouble(std::round(rng.Normal(0, 3) * 4) / 4);
    } else {
      const double toward = rng.Bernoulli(0.5) ? -1e300 : 1e300;
      last = rng.Bernoulli(0.25) ? std::nextafter(last, toward)
                                 : rng.Normal(0, 3);
      v.AppendDouble(last);
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(8)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  EXPECT_TRUE(out.relevant.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("v", std::move(v)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());
  Column dk(DataType::kInt64);
  for (int i = 0; i < n_keys + 3; ++i) dk.AppendInt(i);
  EXPECT_TRUE(out.training.AddColumn("k", std::move(dk)).ok());
  return out;
}

AggQuery MakeQuery(AggFunction fn, std::vector<Predicate> preds,
                   const std::string& attr = "v") {
  AggQuery q;
  q.agg = fn;
  q.agg_attr = attr;
  q.group_keys = {"k"};
  q.predicates = std::move(preds);
  return q;
}

std::vector<double> ViewOf(const Table& relevant, const std::string& attr) {
  const Column* col = relevant.GetColumn(attr).value();
  std::vector<double> view(relevant.num_rows());
  for (size_t r = 0; r < view.size(); ++r) view[r] = col->AsDouble(r);
  return view;
}

// Random consecutive group ranges covering [0, n_groups): 1 to n_groups
// ranges, empty ones included.
std::vector<std::pair<size_t, size_t>> RandomCuts(Rng* rng, size_t n_groups) {
  std::vector<size_t> edges = {0, n_groups};
  const size_t n_cuts = rng->UniformInt(n_groups + 1);
  for (size_t i = 0; i < n_cuts; ++i) {
    edges.push_back(rng->UniformInt(n_groups + 1));
  }
  std::sort(edges.begin(), edges.end());
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    out.emplace_back(edges[i], edges[i + 1]);
  }
  return out;
}

ValueOrder BuildOrder(const GroupIndex& index, const double* view,
                      const std::vector<std::pair<size_t, size_t>>& cuts) {
  ValueOrder order;
  AllocateValueOrder(index.num_rows(), index.num_groups(), &order);
  GroupValueOrder(index.row_groups().data(), index.num_rows(), &order);
  for (const auto& [b, e] : cuts) SortValueOrder(view, b, e, &order);
  return order;
}

// The reference: ComputeAggregate over each group's selected non-null
// values in row order; NaN for a group with no selected row.
std::vector<double> RowOrderedReference(AggFunction fn, const GroupIndex& index,
                                        const Bitset* mask,
                                        const std::vector<double>& view) {
  const size_t n_groups = index.num_groups();
  std::vector<std::vector<double>> values(n_groups);
  std::vector<bool> present(n_groups, false);
  for (size_t row = 0; row < index.num_rows(); ++row) {
    const uint32_t g = index.row_groups()[row];
    if (g == GroupIndex::kNoGroup) continue;
    if (mask != nullptr && !mask->Test(row)) continue;
    present[g] = true;
    if (!std::isnan(view[row])) values[g].push_back(view[row]);
  }
  std::vector<double> out(n_groups, std::nan(""));
  for (size_t g = 0; g < n_groups; ++g) {
    if (present[g]) out[g] = ComputeAggregate(fn, values[g]);
  }
  return out;
}

// ---- The artifact and its kernel -------------------------------------------

// Two tables: about 80 rows per group (comparison sorts) and about 600
// with full-mantissa values (radix sorts over every key byte).
std::vector<Pair> BuildTables() {
  std::vector<Pair> out;
  out.push_back(MakePair(11, 3001, 37));
  out.push_back(MakePair(17, 3001, 5, /*continuous=*/true));
  return out;
}

void ExpectSortedPermutationAtEveryCut(const Pair& tables) {
  const GroupIndex index = GroupIndex::Build(tables.relevant, {"k"}).value();
  const std::vector<double> view = ViewOf(tables.relevant, "v");
  const ValueOrder whole =
      BuildOrder(index, view.data(), {{0, index.num_groups()}});

  // Every grouped row exactly once, under its own group, values ascending
  // in total order, nulls last, ties in row order.
  size_t grouped = 0;
  for (uint32_t g : index.row_groups()) grouped += g != GroupIndex::kNoGroup;
  ASSERT_EQ(whole.rows.size(), grouped);
  ASSERT_EQ(whole.offsets.back(), grouped);
  std::vector<bool> seen(index.num_rows(), false);
  for (size_t g = 0; g < index.num_groups(); ++g) {
    const uint32_t begin = whole.offsets[g];
    const uint32_t end = whole.offsets[g + 1];
    const uint32_t value_end = whole.value_end[g];
    ASSERT_LE(begin, value_end);
    ASSERT_LE(value_end, end);
    for (uint32_t i = begin; i < end; ++i) {
      const uint32_t row = whole.rows[i];
      ASSERT_FALSE(seen[row]);
      seen[row] = true;
      ASSERT_EQ(index.row_groups()[row], g);
      ASSERT_EQ(std::isnan(view[row]), i >= value_end) << "group " << g;
      if (i == begin) continue;
      const uint32_t prev = whole.rows[i - 1];
      if (i < value_end) {
        ASSERT_LE(TotalOrderKey(view[prev]), TotalOrderKey(view[row]));
        if (TotalOrderKey(view[prev]) == TotalOrderKey(view[row])) {
          ASSERT_LT(prev, row);
        }
      } else if (i > value_end) {
        ASSERT_LT(prev, row);
      }
    }
  }
  // Key 0 holds only nulls.
  const Column* k = tables.relevant.GetColumn("k").value();
  size_t key0_row = 0;
  while (k->IsNull(key0_row) || k->IntAt(key0_row) != 0) ++key0_row;
  const uint32_t g0 = index.row_groups()[key0_row];
  EXPECT_EQ(whole.value_end[g0], whole.offsets[g0]);
  EXPECT_GT(whole.offsets[g0 + 1], whole.offsets[g0]);

  // Sorting in any group-range cut builds the same arrays.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const ValueOrder cut = BuildOrder(index, view.data(),
                                      RandomCuts(&rng, index.num_groups()));
    ASSERT_EQ(cut.offsets, whole.offsets) << "trial " << trial;
    ASSERT_EQ(cut.value_end, whole.value_end) << "trial " << trial;
    ASSERT_EQ(cut.rows, whole.rows) << "trial " << trial;
  }
}

void ExpectKernelMatchesRowOrderedSlices(const Pair& tables) {
  const GroupIndex index = GroupIndex::Build(tables.relevant, {"k"}).value();
  const std::vector<double> view = ViewOf(tables.relevant, "v");
  const ValueOrder order =
      BuildOrder(index, view.data(), {{0, index.num_groups()}});
  const size_t n = index.num_rows();
  Rng rng(99);

  // Masks: none, empty, sparse (a few rows: most groups unselected, some
  // with only null rows selected), mid and dense.
  std::vector<std::pair<std::string, std::optional<Bitset>>> masks;
  masks.emplace_back("null", std::nullopt);
  for (double density : {0.0, 0.002, 0.02, 0.5, 0.97}) {
    Bitset bits(n);
    for (size_t row = 0; row < n; ++row) {
      if (rng.Bernoulli(density)) bits.Set(row);
    }
    masks.emplace_back("density " + std::to_string(density), std::move(bits));
  }
  for (const auto& [name, mask] : masks) {
    const Bitset* mask_ptr = mask ? &*mask : nullptr;
    for (AggFunction fn : kOrderStatistics) {
      const std::string ctx = name + " " + AggFunctionName(fn);
      const std::vector<double> want =
          RowOrderedReference(fn, index, mask_ptr, view);
      // The streamed accumulator (per-group value buffers in row order)
      // agrees with the reference too.
      ExpectBitIdentical(ScalarKernelOps().aggregate_streaming(
                             fn, index, mask_ptr, view.data(), nullptr),
                         want, "streamed " + ctx);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> got(index.num_groups(), -1.0);
        for (const auto& [b, e] : RandomCuts(&rng, index.num_groups())) {
          AggregateFromValueOrder(fn, order, mask_ptr, view.data(), b, e,
                                  got.data());
        }
        ExpectBitIdentical(got, want, ctx);
      }
    }
  }
}

TEST(ValueOrderTest, BuildIsTheSortedPermutationAtEveryCut) {
  for (const Pair& tables : BuildTables()) {
    ExpectSortedPermutationAtEveryCut(tables);
  }
}

TEST(ValueOrderTest, KernelMatchesComputeAggregateOverRowOrderedSlices) {
  for (const Pair& tables : BuildTables()) {
    ExpectKernelMatchesRowOrderedSlices(tables);
  }
}

// ---- Through the planner -----------------------------------------------------

std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 4, 8};
  const int resolved = FeatAugConfig::Global().ResolvedNumThreads();
  if (std::find(counts.begin(), counts.end(), resolved) == counts.end()) {
    counts.push_back(resolved);
  }
  return counts;
}

// Every order statistic under no predicate, a sparse, a dense, an empty
// (unknown string) and a conjunctive one; a streaming candidate and one
// over another attribute ride along.
std::vector<AggQuery> PlannerQueries() {
  const Predicate sparse = Predicate::Range("level", 7.0, 7.0);
  const Predicate dense = Predicate::Range("level", 1.0, std::nullopt);
  const Predicate empty = Predicate::Equals("dept", Value::Str("zzz"));
  const Predicate dept = Predicate::Equals("dept", Value::Str("b"));
  std::vector<AggQuery> out;
  for (AggFunction fn : kOrderStatistics) {
    out.push_back(MakeQuery(fn, {}));
    out.push_back(MakeQuery(fn, {sparse}));
    out.push_back(MakeQuery(fn, {dense}));
    out.push_back(MakeQuery(fn, {empty}));
    out.push_back(MakeQuery(fn, {dept, dense}));
  }
  out.push_back(MakeQuery(AggFunction::kSum, {dense}));
  out.push_back(MakeQuery(AggFunction::kMedian, {dept}, "level"));
  return out;
}

// ExecuteAggQuery's grouped result, scattered onto the training keys.
std::vector<double> GroupedResultColumn(QueryPlanner* planner,
                                        const AggQuery& q, const Pair& tables) {
  auto grouped = planner->ExecuteAggQuery(q, tables.relevant);
  EXPECT_TRUE(grouped.ok()) << grouped.status().ToString();
  if (!grouped.ok()) return {};
  const Column* keys = grouped.value().GetColumn("k").value();
  const Column* feature = grouped.value().GetColumn("feature").value();
  std::map<int64_t, double> by_key;
  for (size_t r = 0; r < keys->size(); ++r) {
    by_key[keys->IntAt(r)] =
        feature->IsNull(r) ? std::nan("") : feature->DoubleAt(r);
  }
  const Column* train = tables.training.GetColumn("k").value();
  std::vector<double> out(train->size(), std::nan(""));
  for (size_t r = 0; r < train->size(); ++r) {
    auto it = by_key.find(train->IntAt(r));
    if (it != by_key.end()) out[r] = it->second;
  }
  return out;
}

TEST(ValueOrderTest, PlannerMatchesMorselAndGroupedResultAtEveryThreadCount) {
  // 40k rows over 23 keys: every order statistic walks far more than one
  // kernel range, and the build sorts in several group ranges.
  const Pair tables = MakePair(13, 40000, 23);
  const std::vector<AggQuery> queries = PlannerQueries();

  QueryPlanner morsel;
  morsel.set_morsel_rows(4096);
  auto oracle = morsel.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  QueryPlanner grouped;
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(GroupedResultColumn(&grouped, queries[i], tables),
                       oracle.value()[i],
                       "grouped result q" + std::to_string(i));
  }

  for (const int threads : ThreadCounts()) {
    const std::string ctx = std::to_string(threads) + " threads";
    ThreadPool pool(threads);
    QueryPlanner planner;
    planner.set_thread_pool(&pool);
    auto result =
        planner.EvaluateMany(queries, tables.training, tables.relevant);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const QueryPlanner::PlanStats& stats = planner.last_plan_stats();
    EXPECT_EQ(stats.order_requests, 2u) << ctx;  // (k, v) and (k, level)
    EXPECT_EQ(planner.store().num_order_builds(), 2u) << ctx;
    EXPECT_GT(stats.kernel_tasks, queries.size()) << ctx;
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitIdentical(result.value()[i], oracle.value()[i],
                         ctx + " q" + std::to_string(i));
    }
  }
}

TEST(ValueOrderTest, OneBuildPerPairIsReusedByLaterBatches) {
  const Pair tables = MakePair(14, 2000, 19);
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", 2.0, 5.0);
  QueryPlanner planner;

  // Two order statistics over different predicates share one build.
  auto first = planner.EvaluateMany(
      {MakeQuery(AggFunction::kMedian, {pa}), MakeQuery(AggFunction::kMode, {pb})},
      tables.training, tables.relevant);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(planner.last_plan_stats().order_requests, 1u);
  EXPECT_EQ(planner.store().num_order_builds(), 1u);

  // A later batch over the same pair, with a predicate never seen, reuses
  // it: requested, not built.
  const std::vector<AggQuery> later = {
      MakeQuery(AggFunction::kCountDistinct, {pa, pb}),
      MakeQuery(AggFunction::kEntropy, {})};
  auto second = planner.EvaluateMany(later, tables.training, tables.relevant);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(planner.last_plan_stats().order_requests, 1u);
  EXPECT_EQ(planner.store().num_order_builds(), 1u);
  QueryPlanner fresh;
  auto want = fresh.EvaluateMany(later, tables.training, tables.relevant);
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < later.size(); ++i) {
    ExpectBitIdentical(second.value()[i], want.value()[i],
                       "reused q" + std::to_string(i));
  }

  // Another attribute is another pair.
  auto third = planner.EvaluateMany({MakeQuery(AggFunction::kMad, {}, "level")},
                                    tables.training, tables.relevant);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(planner.store().num_order_builds(), 2u);
}

// The build's charge: 4 bytes per row and 8 per group (+4), on top of the
// per-group fan-out buffer every split candidate is charged. Planners are
// warmed with a SUM first, so a batch charges only its output column and
// stage C: a budget one byte short of a lone MEDIAN's is exhausted before
// anything builds.
TEST(ValueOrderTest, BuildIsChargedToTheBudget) {
  const Pair tables = MakePair(15, 1000, 17);
  const size_t n_groups =
      GroupIndex::Build(tables.relevant, {"k"}).value().num_groups();
  const std::vector<AggQuery> sum = {MakeQuery(AggFunction::kSum, {})};
  const std::vector<AggQuery> median = {MakeQuery(AggFunction::kMedian, {})};
  auto warm = [&](QueryPlanner* planner) {
    ASSERT_TRUE(
        planner->EvaluateMany(sum, tables.training, tables.relevant).ok());
  };
  auto charged_by = [&](const std::vector<AggQuery>& batch) {
    QueryPlanner planner;
    warm(&planner);
    ExecContext ctx;
    EXPECT_TRUE(
        planner.EvaluateMany(batch, tables.training, tables.relevant, &ctx)
            .ok());
    return ctx.peak_charged_bytes();
  };
  const size_t median_bytes = charged_by(median);
  EXPECT_EQ(median_bytes - charged_by(sum),
            ValueOrder::PlannedBytes(tables.relevant.num_rows(), n_groups) +
                n_groups * sizeof(double));
  EXPECT_EQ(ValueOrder::PlannedBytes(1000, 17), (1000 + 2 * 17 + 1) * 4u);

  for (const bool isolated : {false, true}) {
    QueryPlanner planner;
    warm(&planner);
    ExecContext ctx;
    ctx.set_memory_budget_bytes(median_bytes - 1);
    const Status status =
        isolated ? planner
                       .EvaluateManyIsolated(median, tables.training,
                                             tables.relevant, &ctx)
                       .status()
                 : planner
                       .EvaluateMany(median, tables.training, tables.relevant,
                                     &ctx)
                       .status();
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << (isolated ? "isolated " : "fail-fast ") << status.ToString();
    EXPECT_EQ(planner.store().num_order_builds(), 0u);
  }
  QueryPlanner planner;
  warm(&planner);
  ExecContext exact;
  exact.set_memory_budget_bytes(median_bytes);
  EXPECT_TRUE(
      planner.EvaluateMany(median, tables.training, tables.relevant, &exact)
          .ok());
  EXPECT_EQ(planner.store().num_order_builds(), 1u);
}

#ifdef FEATLIB_FAULT_INJECTION

class ValueOrderFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// The first build (request order: pair (k, v)) fails by Status or by a
// thrown std::bad_alloc, serially and on a pool: only its candidates (0, 1)
// fail under the isolated contract — the streaming candidate and the order
// statistic over (k, level) stay byte-identical — and the fail-fast
// contract fails the batch.
TEST_F(ValueOrderFaultTest, FailingOrThrowingBuildFailsOnlyItsCandidates) {
  const Pair tables = MakePair(16, 500, 11);
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const std::vector<AggQuery> queries = {
      MakeQuery(AggFunction::kMedian, {pa}),
      MakeQuery(AggFunction::kCountDistinct, {}),
      MakeQuery(AggFunction::kSum, {pa}),
      MakeQuery(AggFunction::kMode, {pa}, "level"),
  };
  QueryPlanner reference;
  auto expected =
      reference.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(expected.ok());

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const bool throws : {false, true}) {
      SCOPED_TRACE(std::string(p == nullptr ? "serial" : "pool") +
                   (throws ? ", throwing" : ", failing"));
      auto arm = [throws] {
        FaultInjector::Global().Reset();
        if (throws) {
          FaultInjector::Global().ArmHook("prepare.order", 0,
                                          [] { throw std::bad_alloc(); });
        } else {
          FaultInjector::Global().ArmSite("prepare.order", 0);
        }
      };
      const std::string message = throws ? "build threw" : "injected fault";

      arm();
      QueryPlanner isolated;
      isolated.set_thread_pool(p);
      auto r = isolated.EvaluateManyIsolated(queries, tables.training,
                                             tables.relevant);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryPlanner::CandidateResult& slot = r.value()[i];
        if (i < 2) {
          EXPECT_EQ(slot.status.code(), StatusCode::kInternal) << i;
          EXPECT_NE(slot.status.message().find(message), std::string::npos)
              << slot.status.ToString();
          continue;
        }
        ASSERT_TRUE(slot.status.ok()) << slot.status.ToString();
        ExpectBitIdentical(slot.values, expected.value()[i],
                           "survivor " + std::to_string(i));
      }
      EXPECT_EQ(isolated.store().num_order_builds(), 1u);

      // The failed build was never published: disarmed, the same planner
      // builds it and matches a fresh run.
      FaultInjector::Global().Reset();
      auto again =
          isolated.EvaluateMany(queries, tables.training, tables.relevant);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(isolated.store().num_order_builds(), 2u);
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectBitIdentical(again.value()[i], expected.value()[i],
                           "recovered " + std::to_string(i));
      }

      arm();
      QueryPlanner fail_fast;
      fail_fast.set_thread_pool(p);
      auto batch =
          fail_fast.EvaluateMany(queries, tables.training, tables.relevant);
      ASSERT_FALSE(batch.ok());
      EXPECT_EQ(batch.status().code(), StatusCode::kInternal);
      EXPECT_NE(batch.status().message().find(message), std::string::npos)
          << batch.status().ToString();
    }
  }
}

#endif  // FEATLIB_FAULT_INJECTION

}  // namespace
}  // namespace featlib
