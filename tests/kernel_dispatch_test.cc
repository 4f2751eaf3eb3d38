/// \file kernel_dispatch_test.cc
/// \brief Pins the kernel-backend contract (query/kernel_dispatch.h): the
/// simd table is byte-identical to the scalar oracle across every aggregate
/// kind, mask density and row layout; streamed MIN/MAX keep the first of
/// equal values (signed zeros) exactly as the ComputeAggregate slice oracle
/// does; and backend selection resolves
/// planner-override > environment > config > detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "golden_util.h"
#include "query/aggregate.h"
#include "query/bitset.h"
#include "query/group_index.h"
#include "query/kernel_dispatch.h"
#include "query/kernels.h"
#include "query/predicate.h"
#include "query/query_planner.h"

namespace featlib {
namespace {

using golden::SameBits;

void ExpectBitIdentical(const std::vector<double>& actual,
                        const std::vector<double>& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(SameBits(actual[i], expected[i]))
        << context << " slot " << i << ": simd=" << actual[i]
        << " scalar=" << expected[i];
  }
}

// Random (relevant, training) pair with NULL-heavy values, compound keys,
// and predicate attributes of every vectorizable and non-vectorizable
// column type (double, int64, string).
struct RandomPair {
  Table relevant;
  Table training;
};

RandomPair MakePair(Rng* rng, size_t n_rel) {
  const char* cities[] = {"ber", "nyc", "sfo", "tok"};
  const char* depts[] = {"a", "b", "c"};
  RandomPair out;
  Column uid(DataType::kInt64), city(DataType::kString);
  Column value(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
  for (size_t i = 0; i < n_rel; ++i) {
    if (rng->Bernoulli(0.05)) {
      uid.AppendNull();
    } else {
      uid.AppendInt(static_cast<int64_t>(rng->UniformInt(10)));
    }
    city.AppendString(cities[rng->UniformInt(4)]);
    if (rng->Bernoulli(0.3)) {
      value.AppendNull();
    } else if (rng->Bernoulli(0.05)) {
      // Signed zeros: the one equal-doubles case where bit patterns differ,
      // exercising MIN/MAX's first-occurrence rule.
      value.AppendDouble(rng->Bernoulli(0.5) ? 0.0 : -0.0);
    } else {
      value.AppendDouble(rng->Normal(0, 10));
    }
    level.AppendInt(static_cast<int64_t>(rng->UniformInt(5)));
    if (rng->Bernoulli(0.1)) {
      dept.AppendNull();
    } else {
      dept.AppendString(depts[rng->UniformInt(3)]);
    }
  }
  EXPECT_TRUE(out.relevant.AddColumn("uid", std::move(uid)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("city", std::move(city)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("value", std::move(value)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());

  Column d_uid(DataType::kInt64), d_city(DataType::kString);
  for (size_t i = 0; i < 64; ++i) {
    if (rng->Bernoulli(0.05)) {
      d_uid.AppendNull();
    } else {
      d_uid.AppendInt(static_cast<int64_t>(rng->UniformInt(12)));
    }
    d_city.AppendString(cities[rng->UniformInt(4)]);
  }
  EXPECT_TRUE(out.training.AddColumn("uid", std::move(d_uid)).ok());
  EXPECT_TRUE(out.training.AddColumn("city", std::move(d_city)).ok());
  return out;
}

// Bernoulli mask of the given density (nullopt = no mask / all rows).
std::optional<Bitset> MakeMask(Rng* rng, size_t n, double density) {
  Bitset bits(n);
  for (size_t i = 0; i < n; ++i) {
    if (density >= 1.0 || (density > 0.0 && rng->Bernoulli(density))) {
      bits.Set(i);
    }
  }
  return bits;
}

// ---- Raw kernel parity: every agg kind x mask density x view shape ---------

// Sweeps the streaming kernel over one relevant table: all 15 functions
// (with first-selected-row tracking) at each mask density, COUNT(*) without
// a view, and no mask.
void ExpectStreamingParity(const Table& relevant, Rng* rng,
                           const std::string& layout) {
  auto index_or = GroupIndex::Build(relevant, {"uid", "city"});
  ASSERT_TRUE(index_or.ok());
  const GroupIndex& index = index_or.value();
  std::vector<double> view(relevant.num_rows());
  auto col = relevant.GetColumn("value");
  ASSERT_TRUE(col.ok());
  for (size_t r = 0; r < view.size(); ++r) {
    view[r] = col.value()->AsDouble(r);
  }

  const KernelOps& scalar = ScalarKernelOps();
  const KernelOps& simd = SimdKernelOps();
  const double densities[] = {0.0, 0.05, 0.7, 1.0};
  for (double density : densities) {
    std::optional<Bitset> mask = MakeMask(rng, view.size(), density);
    const Bitset* mask_ptr = &*mask;
    const std::string ctx = layout + " density=" + std::to_string(density);
    for (AggFunction fn : AllAggFunctions()) {
      const std::string fctx = ctx + " fn=" + AggFunctionName(fn);
      std::vector<uint32_t> first_scalar, first_simd;
      ExpectBitIdentical(
          simd.aggregate_streaming(fn, index, mask_ptr, view.data(),
                                   &first_simd),
          scalar.aggregate_streaming(fn, index, mask_ptr, view.data(),
                                     &first_scalar),
          "streaming " + fctx);
      ASSERT_EQ(first_scalar, first_simd) << fctx;
    }

    // COUNT(*) without a value view (null view pointer).
    std::vector<uint32_t> first_scalar, first_simd;
    ExpectBitIdentical(
        simd.aggregate_streaming(AggFunction::kCount, index, mask_ptr, nullptr,
                                 &first_simd),
        scalar.aggregate_streaming(AggFunction::kCount, index, mask_ptr,
                                   nullptr, &first_scalar),
        "count-star " + ctx);
    ASSERT_EQ(first_scalar, first_simd) << ctx;
  }

  // Null mask (all rows selected).
  for (AggFunction fn : AllAggFunctions()) {
    ExpectBitIdentical(
        simd.aggregate_streaming(fn, index, nullptr, view.data(), nullptr),
        scalar.aggregate_streaming(fn, index, nullptr, view.data(), nullptr),
        layout + " no-mask fn=" + AggFunctionName(fn));
  }
}

TEST(KernelDispatchTest, StreamingParityAcrossDensities) {
  Rng rng(20260808);
  // 197 rows: not a multiple of 64, so every mask has a partial tail word.
  // Random keys put consecutive rows in different groups, so the simd table
  // iterates per-row spans.
  RandomPair pair = MakePair(&rng, 197);
  ExpectStreamingParity(pair.relevant, &rng, "random");

  // Rows sorted by group, as log tables cluster by entity: long same-group
  // segments send the simd table down its segment-decoded path.
  RandomPair log = MakePair(&rng, 1013);
  auto index_or = GroupIndex::Build(log.relevant, {"uid", "city"});
  ASSERT_TRUE(index_or.ok());
  const std::vector<uint32_t>& groups = index_or.value().row_groups();
  std::vector<uint32_t> order(groups.size());
  for (uint32_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return groups[a] < groups[b];
  });
  const Table clustered = log.relevant.Take(order);
  size_t segments = 1;
  for (size_t r = 1; r < order.size(); ++r) {
    segments += groups[order[r]] != groups[order[r - 1]];
  }
  ASSERT_GE(order.size(), 8 * segments) << "average segment length < 8";
  ExpectStreamingParity(clustered, &rng, "clustered");
}

// ---- Streamed MIN/MAX on signed-zero ties ----------------------------------

// Dense ±0.0 ties: equal doubles whose bits differ. Streamed MIN/MAX keep
// the first of equal values in row order, under either backend, exactly as
// the ComputeAggregate slice oracle (min_element / max_element) does over
// each group's values in row order.
TEST(KernelDispatchTest, StreamingMinMaxKeepsFirstSignedZero) {
  Rng rng(7);
  Column key(DataType::kInt64), value(DataType::kDouble);
  for (int i = 0; i < 700; ++i) {
    // Even keys hold zeros and positives (MIN ties on ±0.0), odd keys zeros
    // and negatives (MAX ties on ±0.0).
    const int64_t k = static_cast<int64_t>(rng.UniformInt(9));
    key.AppendInt(k);
    const int pick = static_cast<int>(rng.UniformInt(4));
    const double other = (std::abs(rng.Normal(0, 1)) + 1.0) * (k % 2 ? -1 : 1);
    value.AppendDouble(pick == 0 ? 0.0 : pick == 1 ? -0.0 : other);
  }
  Table relevant;
  ASSERT_TRUE(relevant.AddColumn("k", std::move(key)).ok());
  ASSERT_TRUE(relevant.AddColumn("v", std::move(value)).ok());
  auto index_or = GroupIndex::Build(relevant, {"k"});
  ASSERT_TRUE(index_or.ok());
  const GroupIndex& index = index_or.value();
  std::vector<double> view(relevant.num_rows());
  std::vector<std::vector<double>> slices(index.num_groups());
  auto col = relevant.GetColumn("v");
  ASSERT_TRUE(col.ok());
  for (size_t r = 0; r < view.size(); ++r) {
    view[r] = col.value()->AsDouble(r);
    slices[index.row_groups()[r]].push_back(view[r]);
  }
  for (AggFunction fn : {AggFunction::kMin, AggFunction::kMax}) {
    std::vector<double> oracle;
    for (const std::vector<double>& slice : slices) {
      oracle.push_back(ComputeAggregate(fn, slice.data(), slice.size()));
    }
    for (const KernelOps* ops : {&ScalarKernelOps(), &SimdKernelOps()}) {
      ExpectBitIdentical(
          ops->aggregate_streaming(fn, index, nullptr, view.data(), nullptr),
          oracle,
          std::string(KernelBackendName(ops->backend)) + " fn=" +
              AggFunctionName(fn));
    }
  }
}

// ---- Predicate-mask parity across column types, nulls, and tails -----------

TEST(KernelDispatchTest, FilterMaskParity) {
  Rng rng(99);
  // Straddles several words with a partial tail.
  RandomPair pair = MakePair(&rng, 331);
  const size_t n = pair.relevant.num_rows();

  std::vector<std::vector<Predicate>> pred_sets;
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("a"))});
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("zz"))});  // absent
  pred_sets.push_back({Predicate::Range("value", -5.0, 5.0)});
  pred_sets.push_back({Predicate::Range("value", std::nullopt, 0.0)});
  pred_sets.push_back({Predicate::Range("value", 0.0, std::nullopt)});
  pred_sets.push_back({Predicate::Range("level", 1.0, 3.0)});  // int64-backed
  pred_sets.push_back({Predicate::Equals("uid", Value::Int(3))});
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("b")),
                       Predicate::Range("value", -2.0, std::nullopt),
                       Predicate::Range("level", std::nullopt, 3.0)});
  pred_sets.push_back(
      {Predicate::Range("value", std::nullopt, std::nullopt)});  // trivial

  const KernelOps& scalar = ScalarKernelOps();
  const KernelOps& simd = SimdKernelOps();
  for (size_t s = 0; s < pred_sets.size(); ++s) {
    auto filter = CompiledFilter::Compile(pred_sets[s], pair.relevant);
    ASSERT_TRUE(filter.ok()) << "set " << s;
    Bitset from_scalar(n), from_simd(n);
    scalar.build_filter_mask(filter.value(), &from_scalar);
    simd.build_filter_mask(filter.value(), &from_simd);
    ASSERT_EQ(from_scalar.num_words(), from_simd.num_words());
    for (size_t w = 0; w < from_scalar.num_words(); ++w) {
      ASSERT_EQ(from_scalar.words()[w], from_simd.words()[w])
          << "set " << s << " word " << w;
    }
    // Tail invariant survives the bulk word writes.
    ASSERT_EQ(from_simd.Count(), from_scalar.Count()) << "set " << s;
  }
}

// The int64-backed predicate path converts lanes to double before
// comparing, exactly as the scalar `static_cast<double>(ints[row])` does.
// The conversion must be bit-exact over the full 64-bit range — including
// magnitudes past 2^53, where the cast rounds — so sweep the extremes and
// the rounding boundaries against the scalar oracle.
TEST(KernelDispatchTest, FilterMaskParityInt64FullRange) {
  constexpr int64_t kBig = int64_t{1} << 53;
  std::vector<int64_t> values = {
      0,           1,          -1,         42,
      kBig - 1,    kBig,       kBig + 1,   kBig + 2,   kBig + 3,
      -kBig + 1,   -kBig,      -kBig - 1,  -kBig - 3,
      (int64_t{1} << 62) + 12345,          -(int64_t{1} << 62) - 999,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max() - 1,
  };
  Rng rng(1234);
  // Pad past several mask words so the vector path (not just the scalar
  // tail finisher) sees the extremes, and scatter nulls through it.
  Column col(DataType::kInt64);
  std::vector<int64_t> expect_rows;
  for (size_t row = 0; row < 320; ++row) {
    if (row % 13 == 5) {
      col.AppendNull();
    } else {
      // Wrapping add: offsets past max() wrap to the far negative end
      // (more extremes) without signed overflow.
      col.AppendInt(static_cast<int64_t>(
          static_cast<uint64_t>(values[rng.UniformInt(values.size())]) +
          rng.UniformInt(7)));
    }
  }
  Table table;
  ASSERT_TRUE(table.AddColumn("huge", std::move(col)).ok());
  const size_t n = table.num_rows();

  std::vector<std::vector<Predicate>> pred_sets;
  pred_sets.push_back({Predicate::Range(
      "huge", static_cast<double>(kBig), std::nullopt)});
  pred_sets.push_back({Predicate::Range(
      "huge", std::nullopt, -static_cast<double>(kBig))});
  pred_sets.push_back({Predicate::Range(
      "huge", -9.3e18, 9.3e18)});  // brackets INT64_MIN/MAX after rounding
  pred_sets.push_back(
      {Predicate::Equals("huge", Value::Double(static_cast<double>(kBig)))});
  pred_sets.push_back({Predicate::Equals(
      "huge",
      Value::Double(static_cast<double>(
          std::numeric_limits<int64_t>::max())))});  // rounds to 2^63
  pred_sets.push_back({Predicate::Range("huge", 0.0, 100.0)});

  const KernelOps& scalar = ScalarKernelOps();
  const KernelOps& simd = SimdKernelOps();
  for (size_t s = 0; s < pred_sets.size(); ++s) {
    auto filter = CompiledFilter::Compile(pred_sets[s], table);
    ASSERT_TRUE(filter.ok()) << "set " << s;
    Bitset from_scalar(n), from_simd(n);
    scalar.build_filter_mask(filter.value(), &from_scalar);
    simd.build_filter_mask(filter.value(), &from_simd);
    for (size_t w = 0; w < from_scalar.num_words(); ++w) {
      ASSERT_EQ(from_scalar.words()[w], from_simd.words()[w])
          << "set " << s << " word " << w;
    }
  }
}

// ---- End-to-end planner parity at several thread counts --------------------

std::vector<AggQuery> MakePool() {
  std::vector<std::vector<Predicate>> pred_sets;
  pred_sets.push_back({});
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("a"))});
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("b")),
                       Predicate::Range("level", std::nullopt, 3.0)});
  // Contradictory conjunction: selects no row, so every candidate over it
  // is all NaN.
  pred_sets.push_back({Predicate::Equals("dept", Value::Str("a")),
                       Predicate::Equals("dept", Value::Str("b"))});
  std::vector<AggQuery> out;
  for (const auto& preds : pred_sets) {
    for (AggFunction fn : AllAggFunctions()) {
      AggQuery q;
      q.agg = fn;
      q.agg_attr = "value";
      q.group_keys = {"uid"};
      q.predicates = preds;
      out.push_back(std::move(q));
    }
  }
  return out;
}

TEST(KernelDispatchTest, EvaluateManyBackendParityAcrossThreadCounts) {
  Rng rng(321);
  RandomPair pair = MakePair(&rng, 400);
  const std::vector<AggQuery> pool = MakePool();

  QueryPlanner scalar_planner;
  scalar_planner.set_kernel_backend(KernelBackend::kScalar);
  auto expected = scalar_planner.EvaluateMany(pool, pair.training,
                                              pair.relevant);
  ASSERT_TRUE(expected.ok());

  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool_threads(threads);
    QueryPlanner simd_planner;
    simd_planner.set_kernel_backend(KernelBackend::kSimd);
    simd_planner.set_thread_pool(threads > 1 ? &pool_threads : nullptr);
    auto actual =
        simd_planner.EvaluateMany(pool, pair.training, pair.relevant);
    ASSERT_TRUE(actual.ok()) << threads;
    ASSERT_EQ(actual.value().size(), expected.value().size());
    for (size_t i = 0; i < expected.value().size(); ++i) {
      ExpectBitIdentical(actual.value()[i], expected.value()[i],
                         "threads=" + std::to_string(threads) +
                             " candidate=" + std::to_string(i));
    }
    // The contradictory conjunction (the last predicate set) selects no
    // row: every candidate over it is all NaN under both backends.
    const size_t n_fns = AllAggFunctions().size();
    for (size_t i = pool.size() - n_fns; i < pool.size(); ++i) {
      for (double v : actual.value()[i]) {
        ASSERT_TRUE(std::isnan(v)) << "threads=" << threads << " q" << i;
      }
    }
  }
}

TEST(KernelDispatchTest, ServingPlanDispatchesPerBackend) {
  Rng rng(11);
  RandomPair pair = MakePair(&rng, 256);
  const std::vector<AggQuery> pool = MakePool();

  QueryPlanner scalar_planner, simd_planner;
  scalar_planner.set_kernel_backend(KernelBackend::kScalar);
  simd_planner.set_kernel_backend(KernelBackend::kSimd);
  auto scalar_plan = scalar_planner.CompileServingPlan(pool, pair.relevant);
  auto simd_plan = simd_planner.CompileServingPlan(pool, pair.relevant);
  ASSERT_TRUE(scalar_plan.ok());
  ASSERT_TRUE(simd_plan.ok());

  auto expected = ExecuteServingPlan(scalar_plan.value(), pair.training);
  auto actual = ExecuteServingPlan(simd_plan.value(), pair.training);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ASSERT_EQ(actual.value().size(), expected.value().size());
  for (size_t i = 0; i < expected.value().size(); ++i) {
    ExpectBitIdentical(actual.value()[i], expected.value()[i],
                       "serving candidate " + std::to_string(i));
  }
}

// ---- Backend selection: override > environment > config > detection --------

TEST(KernelDispatchTest, SelectionResolutionOrder) {
  // Explicit override wins regardless of environment.
  EXPECT_EQ(ResolveKernelOps(KernelBackend::kScalar).backend,
            KernelBackend::kScalar);
  EXPECT_EQ(ResolveKernelOps(KernelBackend::kSimd).backend,
            KernelBackend::kSimd);

  // Environment steers kAuto.
  ASSERT_EQ(setenv("FEATLIB_KERNEL_BACKEND", "scalar", 1), 0);
  EXPECT_EQ(ResolveKernelOps(KernelBackend::kAuto).backend,
            KernelBackend::kScalar);
  EXPECT_EQ(ResolveKernelOps(KernelBackend::kSimd).backend,
            KernelBackend::kSimd);  // override still beats env
  ASSERT_EQ(setenv("FEATLIB_KERNEL_BACKEND", "simd", 1), 0);
  EXPECT_EQ(ResolveKernelOps(KernelBackend::kAuto).backend,
            KernelBackend::kSimd);
  // Malformed value falls through to the config field.
  ASSERT_EQ(setenv("FEATLIB_KERNEL_BACKEND", "avx9000", 1), 0);
  FeatAugConfig::Global().kernel_backend = KernelBackend::kScalar;
  EXPECT_EQ(ResolveKernelOps(KernelBackend::kAuto).backend,
            KernelBackend::kScalar);
  FeatAugConfig::Global().kernel_backend = KernelBackend::kAuto;
  ASSERT_EQ(unsetenv("FEATLIB_KERNEL_BACKEND"), 0);

  // kAuto with nothing set resolves via detection: simd iff a vector ISA
  // was found.
  const KernelBackend resolved = KernelOpsFor(KernelBackend::kAuto).backend;
  if (DetectedSimdLevel() == SimdLevel::kScalarOnly) {
    EXPECT_EQ(resolved, KernelBackend::kScalar);
  } else {
    EXPECT_EQ(resolved, KernelBackend::kSimd);
  }
}

TEST(KernelDispatchTest, DetectionReporting) {
  const SimdLevel level = DetectedSimdLevel();
  EXPECT_EQ(SimdKernelOps().level, level);
  EXPECT_EQ(ScalarKernelOps().level, SimdLevel::kScalarOnly);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalarOnly), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kNeon), "neon");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kSimd), "simd");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAuto), "auto");
#if defined(FEATLIB_DISABLE_SIMD)
  EXPECT_EQ(level, SimdLevel::kScalarOnly);
#endif
}

}  // namespace
}  // namespace featlib
