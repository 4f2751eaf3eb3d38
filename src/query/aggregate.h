#pragma once

/// \file aggregate.h
/// \brief The 15 aggregation functions used by FeatAug (Table II of the
/// paper): SUM, MIN, MAX, COUNT, AVG, COUNT DISTINCT, VAR, VAR_SAMPLE, STD,
/// STD_SAMPLE, ENTROPY, KURTOSIS, MODE, MAD, MEDIAN.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/column.h"

namespace featlib {

enum class AggFunction {
  kSum = 0,
  kMin,
  kMax,
  kCount,
  kAvg,
  kCountDistinct,
  kVar,        // population variance
  kVarSample,  // sample variance (n-1 denominator)
  kStd,        // population standard deviation
  kStdSample,
  kEntropy,    // Shannon entropy (nats) of the value distribution
  kKurtosis,   // excess kurtosis (Fisher definition)
  kMode,       // most frequent value; ties break toward the smallest
  kMad,        // median absolute deviation around the median
  kMedian,
};

inline constexpr int kNumAggFunctions = 15;

/// Canonical SQL-ish name, e.g. "AVG" or "COUNT_DISTINCT".
const char* AggFunctionName(AggFunction fn);

/// Parses a name produced by AggFunctionName (case-insensitive).
Result<AggFunction> ParseAggFunction(const std::string& name);

/// All 15 functions in enum order.
std::vector<AggFunction> AllAggFunctions();

/// True when the function is order-statistic/frequency based and therefore
/// well-defined on categorical (string) aggregation attributes as well.
bool SupportsCategorical(AggFunction fn);

/// True for the order statistics COUNT_DISTINCT, ENTROPY, MODE, MAD and
/// MEDIAN: the functions that read their values in ascending order.
bool IsOrderStatistic(AggFunction fn);

/// \brief Order-preserving key of the IEEE 754 total order: for any two
/// doubles, `TotalOrderKey(a) < TotalOrderKey(b)` iff a sorts before b, with
/// -NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN. Only identical bit
/// patterns share a key, so an ascending arrangement of any multiset is
/// unique — e.g. -0.0 always sorts before +0.0, which `<` cannot tell
/// apart. Branch-free: negative values flip every bit, the rest only the
/// sign bit.
inline uint64_t TotalOrderKey(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint64_t negative = 0 - (bits >> 63);
  return bits ^ (negative | (uint64_t{1} << 63));
}

/// \brief The one finish of every order statistic: `fn` (IsOrderStatistic)
/// over `n` non-NaN values already in ascending total order. Runs of equal
/// values compare with `==`, so -0.0 and +0.0 are one value to
/// COUNT_DISTINCT, ENTROPY and MODE (MODE returns the run's last, i.e.
/// largest, member). An empty slice is COUNT_DISTINCT 0 and NaN otherwise.
double AggregateSortedSlice(AggFunction fn, const double* sorted, size_t n);

/// \brief Computes `fn` over the numeric view of `col` restricted to `rows`.
///
/// Null cells are skipped (SQL semantics); COUNT counts non-null cells.
/// Returns NaN when the aggregate is undefined for the group (empty group;
/// sample variance of a single value; kurtosis of a constant group).
double ComputeAggregate(AggFunction fn, const Column& col,
                        const std::vector<uint32_t>& rows);

/// Convenience overload over a dense vector of values (no nulls).
double ComputeAggregate(AggFunction fn, const std::vector<double>& values);

/// Dense core over a contiguous slice (no nulls). The batch executor
/// aggregates group slices of one flat array through this without copying.
/// Order statistics arrange the values' TotalOrderKeys in ascending order
/// (MEDIAN and MAD by selection, the rest by sorting) and finish like
/// AggregateSortedSlice, so the result never depends on the input's
/// arrangement.
double ComputeAggregate(AggFunction fn, const double* values, size_t n);

}  // namespace featlib
