/// \file kernel_dispatch_test.cc
/// \brief Pins the kernel-backend contract (query/kernel_dispatch.h): the
/// simd table is byte-identical to the scalar oracle across every aggregate
/// kind, mask density, and slice alignment; a bucket built in row chunks
/// and aggregated in group ranges equals the one-pass build and the
/// whole-bucket aggregate; backend selection resolves
/// planner-override > environment > config > detection; and the fused
/// Bitset AND+popcount drives the planner's empty-selection short-circuit.

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
      // exercising the vector MIN/MAX first-occurrence fix-up.
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

// Slice aggregation of a whole bucket: the group range [0, G).
std::vector<double> AggregateAll(const KernelOps& ops, AggFunction fn,
                                 const MaterializedValues& m) {
  std::vector<double> out(m.present.size());
  ops.aggregate_from_materialized(fn, m, 0, out.size(), out.data());
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

// Sweeps every kernel entry over one relevant table: bucket materialization,
// streaming (with first-selected-row tracking) and slice aggregation for all
// 15 functions at each mask density, COUNT(*) without a view, and no mask.
void ExpectStreamingAndMaterializedParity(const Table& relevant, Rng* rng,
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

    // Bucket materialization must match byte for byte: slice lengths vary
    // per group, so flat offsets land on every alignment.
    const MaterializedValues m_scalar =
        BuildMaterializedValues(scalar, index, mask_ptr, view.data());
    const MaterializedValues m_simd =
        BuildMaterializedValues(simd, index, mask_ptr, view.data());
    ASSERT_EQ(m_scalar.present, m_simd.present) << ctx;
    ASSERT_EQ(m_scalar.offsets, m_simd.offsets) << ctx;
    ExpectBitIdentical(
        std::vector<double>(m_simd.flat.begin(), m_simd.flat.end()),
        std::vector<double>(m_scalar.flat.begin(), m_scalar.flat.end()), ctx);

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
      ExpectBitIdentical(AggregateAll(simd, fn, m_scalar),
                         AggregateAll(scalar, fn, m_scalar),
                         "materialized " + fctx);
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

TEST(KernelDispatchTest, StreamingAndMaterializedParityAcrossDensities) {
  Rng rng(20260808);
  // 197 rows: not a multiple of 64, so every mask has a partial tail word.
  // Random keys put consecutive rows in different groups, so the simd table
  // iterates per-row spans.
  RandomPair pair = MakePair(&rng, 197);
  ExpectStreamingAndMaterializedParity(pair.relevant, &rng, "random");

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
  ExpectStreamingAndMaterializedParity(clustered, &rng, "clustered");
}

// ---- Row-chunk builds and group-range aggregation ---------------------------

// The bucket build as the planner runs it: chunks of `chunk_rows` rows,
// tallied and filled in reverse chunk order (chunks are independent; only
// the serial layout between the passes orders them).
MaterializedValues BuildChunked(const KernelOps& ops, const GroupIndex& index,
                                const Bitset* mask, const double* view,
                                size_t chunk_rows) {
  const size_t n = index.num_rows();
  std::vector<MaterializeChunk> chunks;
  for (size_t b = 0; b < n; b += chunk_rows) {
    chunks.emplace_back(b, std::min(n, b + chunk_rows), index.num_groups());
  }
  for (size_t c = chunks.size(); c-- > 0;) {
    ops.tally_materialized(index, mask, view, &chunks[c]);
  }
  MaterializedValues m;
  LayoutMaterialized(chunks, index.num_groups(), &m);
  for (size_t c = chunks.size(); c-- > 0;) {
    ops.fill_materialized(index, mask, view, &chunks[c], m.flat.data());
  }
  return m;
}

void ExpectSameBucket(const MaterializedValues& actual,
                      const MaterializedValues& expected,
                      const std::string& context) {
  ASSERT_EQ(actual.present, expected.present) << context;
  ASSERT_EQ(actual.offsets, expected.offsets) << context;
  ExpectBitIdentical(
      std::vector<double>(actual.flat.begin(), actual.flat.end()),
      std::vector<double>(expected.flat.begin(), expected.flat.end()),
      context);
}

// Chunk edges anywhere (inside a mask word, on one, past the table) must
// not change a byte of the bucket: each group's values stay in ascending
// row order with chunks concatenated in order. Then any cut of [0, G) into
// group ranges aggregates to the whole-bucket result.
void ExpectChunkAndRangeSplitsInvariant(const Table& relevant, Rng* rng,
                                        const std::string& layout) {
  auto index_or = GroupIndex::Build(relevant, {"uid", "city"});
  ASSERT_TRUE(index_or.ok());
  const GroupIndex& index = index_or.value();
  const size_t n = relevant.num_rows();
  std::vector<double> view(n);
  auto col = relevant.GetColumn("value");
  ASSERT_TRUE(col.ok());
  for (size_t r = 0; r < n; ++r) view[r] = col.value()->AsDouble(r);

  const double densities[] = {-1.0, 0.0, 0.05, 0.7, 1.0};  // -1 = no mask
  for (double density : densities) {
    std::optional<Bitset> mask;
    if (density >= 0.0) mask = MakeMask(rng, n, density);
    const Bitset* mask_ptr = mask ? &*mask : nullptr;
    const MaterializedValues oracle = BuildMaterializedValues(
        ScalarKernelOps(), index, mask_ptr, view.data());
    for (const KernelOps* ops : {&ScalarKernelOps(), &SimdKernelOps()}) {
      const std::string ctx = layout + " density=" + std::to_string(density) +
                              " backend=" + KernelBackendName(ops->backend);
      for (size_t chunk_rows : {size_t{1}, size_t{63}, size_t{64},
                                size_t{65}, size_t{1000}, n}) {
        ExpectSameBucket(
            BuildChunked(*ops, index, mask_ptr, view.data(), chunk_rows),
            oracle, ctx + " chunk_rows=" + std::to_string(chunk_rows));
      }

      const size_t n_groups = oracle.present.size();
      for (AggFunction fn : AllAggFunctions()) {
        const std::vector<double> whole = AggregateAll(*ops, fn, oracle);
        std::vector<double> split(n_groups);
        size_t g = 0;
        while (g < n_groups) {
          const size_t end =
              std::min(n_groups, g + rng->UniformInt(n_groups / 3 + 2));
          ops->aggregate_from_materialized(fn, oracle, g, end, split.data());
          g = end;  // an empty range (end == g) writes nothing
        }
        ExpectBitIdentical(split, whole,
                           ctx + " ranges fn=" + AggFunctionName(fn));
      }
    }
  }
}

TEST(KernelDispatchTest, ChunkedBuildAndGroupRangesMatchWholeBucket) {
  Rng rng(20261019);
  // Random keys: consecutive rows in different groups (per-row spans).
  RandomPair pair = MakePair(&rng, 2011);
  ExpectChunkAndRangeSplitsInvariant(pair.relevant, &rng, "random");

  // Group-sorted rows: the simd table's segment-decoded path, with chunk
  // edges cutting segments.
  RandomPair log = MakePair(&rng, 2011);
  auto index_or = GroupIndex::Build(log.relevant, {"uid", "city"});
  ASSERT_TRUE(index_or.ok());
  const std::vector<uint32_t>& groups = index_or.value().row_groups();
  std::vector<uint32_t> order(groups.size());
  for (uint32_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return groups[a] < groups[b];
  });
  ExpectChunkAndRangeSplitsInvariant(log.relevant.Take(order), &rng,
                                     "clustered");
}

// Slice MIN/MAX at deliberately unaligned offsets and signed-zero ties: the
// vector reduction must reproduce min_element/max_element's
// first-among-equals result bit for bit (including the sign of zero).
TEST(KernelDispatchTest, SliceMinMaxUnalignedAndSignedZero) {
  const KernelOps& scalar = ScalarKernelOps();
  const KernelOps& simd = SimdKernelOps();
  Rng rng(7);
  for (size_t offset = 0; offset < 9; ++offset) {
    for (size_t len : {0ul, 1ul, 3ul, 15ul, 16ul, 64ul, 257ul}) {
      MaterializedValues m;
      m.present = {1, 1};
      m.offsets = {0, offset, offset + len};
      m.flat.resize(offset + len);
      for (size_t i = 0; i < m.flat.size(); ++i) {
        // Dense zero ties with mixed signs, plus ordinary values.
        const int pick = static_cast<int>(rng.UniformInt(4));
        m.flat[i] = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.Normal(0, 1);
      }
      for (AggFunction fn : {AggFunction::kMin, AggFunction::kMax}) {
        ExpectBitIdentical(
            AggregateAll(simd, fn, m), AggregateAll(scalar, fn, m),
            "offset=" + std::to_string(offset) + " len=" +
                std::to_string(len) + " fn=" + AggFunctionName(fn));
      }
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

// ---- Fused AND+popcount (satellite kernels) --------------------------------

TEST(KernelDispatchTest, BitsetAndWithCountMatchesAndPlusCount) {
  Rng rng(5);
  for (size_t n : {1ul, 63ul, 64ul, 65ul, 500ul}) {
    Bitset a = *MakeMask(&rng, n, 0.4);
    const Bitset b = *MakeMask(&rng, n, 0.6);
    const size_t probe = a.AndCount(b);
    Bitset reference = a;
    reference.AndWith(b);
    const size_t fused = a.AndWithCount(b);
    ASSERT_EQ(fused, reference.Count()) << n;
    ASSERT_EQ(probe, fused) << n;
    for (size_t w = 0; w < a.num_words(); ++w) {
      ASSERT_EQ(a.words()[w], reference.words()[w]) << n;
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
  // Contradictory conjunction: the fused count proves it empty, the planner
  // short-circuits its shared-bucket materialization.
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
    // The contradictory conjunction's bucket was proven empty by the fused
    // count and never streamed.
    EXPECT_GE(simd_planner.last_plan_stats().empty_selections, 1u) << threads;
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

// ---- Aligned-buffer byte accounting (MaterializedValues::SizeBytes) --------

TEST(KernelDispatchTest, SizeBytesCountsCapacityAndAlignment) {
  MaterializedValues m;
  EXPECT_EQ(m.SizeBytes(), 0u);
  m.present.assign(10, 0);
  m.offsets.assign(11, 0);
  m.flat.resize(3);  // 24 bytes of doubles -> one 64-byte aligned block
  const size_t expected = 64 + m.offsets.capacity() * sizeof(size_t) +
                          m.present.capacity() * sizeof(uint32_t);
  EXPECT_EQ(m.SizeBytes(), expected);

  // Capacity, not size: shrinking the logical size must not shrink the
  // accounted footprint while the allocation is retained.
  m.flat.resize(100);
  const size_t grown = m.SizeBytes();
  m.flat.resize(1);
  EXPECT_EQ(m.SizeBytes(), grown);
}

}  // namespace
}  // namespace featlib
