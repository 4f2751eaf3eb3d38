#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/aggregate.h"

namespace featlib {
namespace {

TEST(AggregateTest, NamesRoundTrip) {
  for (AggFunction fn : AllAggFunctions()) {
    auto parsed = ParseAggFunction(AggFunctionName(fn));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), fn);
  }
  EXPECT_TRUE(ParseAggFunction("avg").ok());
  EXPECT_FALSE(ParseAggFunction("nope").ok());
}

TEST(AggregateTest, FifteenFunctions) {
  EXPECT_EQ(AllAggFunctions().size(), 15u);
}

TEST(AggregateTest, KnownValues) {
  const std::vector<double> v = {1, 2, 2, 3, 4};
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kSum, v), 12.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kMin, v), 1.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kMax, v), 4.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kCount, v), 5.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kAvg, v), 2.4);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kCountDistinct, v), 4.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kMode, v), 2.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kMedian, v), 2.0);
}

TEST(AggregateTest, CountDistinctIsNanSafe) {
  // NaN != NaN, so a naive hash set counts every NaN separately; all NaNs
  // must collapse into a single distinct value.
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(
      ComputeAggregate(AggFunction::kCountDistinct, {nan, nan, nan}), 1.0);
  EXPECT_DOUBLE_EQ(
      ComputeAggregate(AggFunction::kCountDistinct, {1.0, nan, 2.0, nan}), 3.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kCountDistinct, {}), 0.0);
}

TEST(AggregateTest, VarianceFamilies) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kVar, v), 4.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kStd, v), 2.0);
  EXPECT_NEAR(ComputeAggregate(AggFunction::kVarSample, v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(ComputeAggregate(AggFunction::kStdSample, v),
              std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(AggregateTest, EntropyUniformAndConstant) {
  EXPECT_NEAR(ComputeAggregate(AggFunction::kEntropy, {1, 2, 3, 4}),
              std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kEntropy, {5, 5, 5}), 0.0);
}

TEST(AggregateTest, KurtosisOfSymmetricPair) {
  // Two-point symmetric distribution has excess kurtosis -2.
  EXPECT_NEAR(ComputeAggregate(AggFunction::kKurtosis, {-1, 1, -1, 1}), -2.0,
              1e-12);
  // Constant group is undefined.
  EXPECT_TRUE(std::isnan(ComputeAggregate(AggFunction::kKurtosis, {3, 3, 3})));
}

TEST(AggregateTest, MadKnownValue) {
  // median=3, deviations {2,1,0,1,2} -> median 1.
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kMad, {1, 2, 3, 4, 5}), 1.0);
}

TEST(AggregateTest, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kMedian, {1, 2, 3, 4}), 2.5);
}

TEST(AggregateTest, ModeTieBreaksSmallest) {
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kMode, {3, 1, 3, 1}), 1.0);
}

TEST(AggregateTest, EmptyGroupSemantics) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kCount, empty), 0.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kCountDistinct, empty), 0.0);
  for (AggFunction fn :
       {AggFunction::kSum, AggFunction::kAvg, AggFunction::kMin, AggFunction::kMax,
        AggFunction::kVar, AggFunction::kStd, AggFunction::kEntropy,
        AggFunction::kMode, AggFunction::kMad, AggFunction::kMedian}) {
    EXPECT_TRUE(std::isnan(ComputeAggregate(fn, empty)))
        << AggFunctionName(fn);
  }
}

TEST(AggregateTest, SingleElementSampleVarianceUndefined) {
  EXPECT_TRUE(std::isnan(ComputeAggregate(AggFunction::kVarSample, {5.0})));
  EXPECT_TRUE(std::isnan(ComputeAggregate(AggFunction::kStdSample, {5.0})));
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kVar, {5.0}), 0.0);
}

TEST(AggregateTest, ColumnOverloadSkipsNulls) {
  Column col(DataType::kDouble);
  col.AppendDouble(1.0);
  col.AppendNull();
  col.AppendDouble(3.0);
  const std::vector<uint32_t> rows = {0, 1, 2};
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kCount, col, rows), 2.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kAvg, col, rows), 2.0);
}

TEST(AggregateTest, CategoricalSupportMatrix) {
  EXPECT_TRUE(SupportsCategorical(AggFunction::kCount));
  EXPECT_TRUE(SupportsCategorical(AggFunction::kCountDistinct));
  EXPECT_TRUE(SupportsCategorical(AggFunction::kEntropy));
  EXPECT_TRUE(SupportsCategorical(AggFunction::kMode));
  EXPECT_FALSE(SupportsCategorical(AggFunction::kSum));
  EXPECT_FALSE(SupportsCategorical(AggFunction::kMedian));
}

// ---------------------------------------------------------------------------
// The IEEE total order: -0.0 sorts before +0.0, so an order statistic's
// result — down to a zero's sign — never depends on how its input is
// arranged.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(AggregateTest, TotalOrderKeyOrdersSignedZerosAndInfinities) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> ascending = {-inf, -2.5, -1e-300, -0.0,
                                         0.0,  1e-300, 2.5,   inf};
  for (size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(TotalOrderKey(ascending[i]), TotalOrderKey(ascending[i + 1]))
        << ascending[i] << " vs " << ascending[i + 1];
  }
}

TEST(AggregateTest, SignedZerosGiveTheSameBitsUnderEveryShuffle) {
  struct Case {
    AggFunction fn;
    std::vector<double> values;
    double expected;
  };
  const std::vector<Case> cases = {
      // One run of four zeros; MODE returns its largest member.
      {AggFunction::kMode, {-0.0, 0.0, 0.0, -0.0}, 0.0},
      {AggFunction::kMode, {-0.0, -0.0, -0.0}, -0.0},
      // Tied runs break toward the smaller: the zeros (a run of three).
      {AggFunction::kMode, {-0.0, 0.0, 3.0, -0.0, 3.0, 3.0}, 0.0},
      {AggFunction::kMedian, {-0.0, -0.0, 0.0}, -0.0},
      {AggFunction::kMedian, {-0.0, 0.0, 0.0}, 0.0},
      // Even counts average the two middle members: -0 + -0 keeps the sign.
      {AggFunction::kMedian, {-0.0, -0.0, -0.0, 0.0}, -0.0},
      {AggFunction::kMedian, {-0.0, -0.0, 0.0, 0.0}, 0.0},
      {AggFunction::kMedian, {-1.0, -0.0, 0.0, 0.0, 2.0}, 0.0},
      {AggFunction::kMad, {-0.0, 0.0, 0.0, -0.0, 2.0}, 0.0},
      {AggFunction::kMad, {-0.0, -0.0, 0.0, -3.0, 3.0}, 0.0},
      {AggFunction::kMad, {-0.0, 0.0, -2.0, 2.0}, 1.0},
  };
  for (const Case& c : cases) {
    std::vector<double> sorted = c.values;
    std::sort(sorted.begin(), sorted.end(), [](double a, double b) {
      return TotalOrderKey(a) < TotalOrderKey(b);
    });
    const std::string context = std::string(AggFunctionName(c.fn)) + " of " +
                                std::to_string(c.values.size()) + " values";
    EXPECT_EQ(Bits(AggregateSortedSlice(c.fn, sorted.data(), sorted.size())),
              Bits(c.expected))
        << context;
    std::vector<double> shuffled = c.values;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Rng rng(seed);
      rng.Shuffle(&shuffled);
      ASSERT_EQ(Bits(ComputeAggregate(c.fn, shuffled)), Bits(c.expected))
          << context << ", shuffle seed " << seed;
    }
  }
}

TEST(AggregateTest, SignedZerosAreOneValueToRunScans) {
  // -0.0 == +0.0: one distinct value, one run for ENTROPY.
  const std::vector<double> zeros = {0.0, -0.0, 0.0, -0.0, 1.0};
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kCountDistinct, zeros), 2.0);
  EXPECT_DOUBLE_EQ(ComputeAggregate(AggFunction::kEntropy, zeros),
                   ComputeAggregate(AggFunction::kEntropy,
                                    {0.0, 0.0, 0.0, 0.0, 1.0}));
  // An empty slice: COUNT_DISTINCT 0, every other order statistic NaN.
  for (AggFunction fn : AllAggFunctions()) {
    if (!IsOrderStatistic(fn)) continue;
    const double v = AggregateSortedSlice(fn, nullptr, 0);
    if (fn == AggFunction::kCountDistinct) {
      EXPECT_EQ(v, 0.0);
    } else {
      EXPECT_TRUE(std::isnan(v)) << AggFunctionName(fn);
    }
  }
}

// ---------------------------------------------------------------------------
// Property sweep: every aggregate matches an independent naive reference on
// random inputs across seeds.
// ---------------------------------------------------------------------------

double NaiveReference(AggFunction fn, std::vector<double> v) {
  const size_t n = v.size();
  auto mean = [&] {
    double s = 0;
    for (double x : v) s += x;
    return s / static_cast<double>(n);
  };
  switch (fn) {
    case AggFunction::kCount:
      return static_cast<double>(n);
    case AggFunction::kSum: {
      if (n == 0) return std::nan("");
      double s = 0;
      for (double x : v) s += x;
      return s;
    }
    case AggFunction::kMin:
      return n == 0 ? std::nan("") : *std::min_element(v.begin(), v.end());
    case AggFunction::kMax:
      return n == 0 ? std::nan("") : *std::max_element(v.begin(), v.end());
    case AggFunction::kAvg:
      return n == 0 ? std::nan("") : mean();
    case AggFunction::kCountDistinct: {
      std::sort(v.begin(), v.end());
      return static_cast<double>(std::unique(v.begin(), v.end()) - v.begin());
    }
    case AggFunction::kVar:
    case AggFunction::kStd: {
      if (n == 0) return std::nan("");
      const double m = mean();
      double ss = 0;
      for (double x : v) ss += (x - m) * (x - m);
      const double var = ss / static_cast<double>(n);
      return fn == AggFunction::kStd ? std::sqrt(var) : var;
    }
    case AggFunction::kVarSample:
    case AggFunction::kStdSample: {
      if (n < 2) return std::nan("");
      const double m = mean();
      double ss = 0;
      for (double x : v) ss += (x - m) * (x - m);
      const double var = ss / static_cast<double>(n - 1);
      return fn == AggFunction::kStdSample ? std::sqrt(var) : var;
    }
    case AggFunction::kEntropy: {
      if (n == 0) return std::nan("");
      std::map<double, int> c;
      for (double x : v) ++c[x];
      double h = 0;
      for (auto& [k, cnt] : c) {
        double p = static_cast<double>(cnt) / static_cast<double>(n);
        h -= p * std::log(p);
      }
      return h;
    }
    case AggFunction::kKurtosis: {
      if (n < 2) return std::nan("");
      const double m = mean();
      double m2 = 0, m4 = 0;
      for (double x : v) {
        m2 += (x - m) * (x - m);
        m4 += (x - m) * (x - m) * (x - m) * (x - m);
      }
      m2 /= static_cast<double>(n);
      m4 /= static_cast<double>(n);
      if (m2 <= 0) return std::nan("");
      return m4 / (m2 * m2) - 3.0;
    }
    case AggFunction::kMode: {
      if (n == 0) return std::nan("");
      std::map<double, int> c;
      for (double x : v) ++c[x];
      double best = c.begin()->first;
      int bc = 0;
      for (auto& [k, cnt] : c) {
        if (cnt > bc) {
          bc = cnt;
          best = k;
        }
      }
      return best;
    }
    case AggFunction::kMad: {
      if (n == 0) return std::nan("");
      std::sort(v.begin(), v.end());
      const double med =
          n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
      std::vector<double> dev;
      for (double x : v) dev.push_back(std::fabs(x - med));
      std::sort(dev.begin(), dev.end());
      return n % 2 ? dev[n / 2] : 0.5 * (dev[n / 2 - 1] + dev[n / 2]);
    }
    case AggFunction::kMedian: {
      if (n == 0) return std::nan("");
      std::sort(v.begin(), v.end());
      return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    }
  }
  return std::nan("");
}

class AggregatePropertyTest
    : public testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(AggregatePropertyTest, MatchesNaiveReferenceOnRandomData) {
  const AggFunction fn = static_cast<AggFunction>(std::get<0>(GetParam()));
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);
  const size_t n = 1 + rng.UniformInt(60);
  std::vector<double> v(n);
  for (double& x : v) {
    // Mix of continuous values and repeated small ints (exercises mode,
    // entropy, distinct).
    x = rng.Bernoulli(0.5) ? std::round(rng.Normal() * 2.0)
                           : rng.Normal() * 10.0;
  }
  const double expected = NaiveReference(fn, v);
  const double actual = ComputeAggregate(fn, v);
  if (std::isnan(expected)) {
    EXPECT_TRUE(std::isnan(actual)) << AggFunctionName(fn);
  } else {
    EXPECT_NEAR(actual, expected, 1e-9 * (1.0 + std::fabs(expected)))
        << AggFunctionName(fn) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctionsAcrossSeeds, AggregatePropertyTest,
    testing::Combine(testing::Range(0, kNumAggFunctions),
                     testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)),
    [](const testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      return std::string(AggFunctionName(
                 static_cast<AggFunction>(std::get<0>(info.param)))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace featlib
