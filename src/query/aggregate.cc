#include "query/aggregate.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/str_util.h"

namespace featlib {

namespace {

const char* const kAggNames[kNumAggFunctions] = {
    "SUM",  "MIN",        "MAX",      "COUNT", "AVG",
    "COUNT_DISTINCT",     "VAR",      "VAR_SAMPLE",
    "STD",  "STD_SAMPLE", "ENTROPY",  "KURTOSIS",
    "MODE", "MAD",        "MEDIAN"};

double Nan() { return std::nan(""); }

// Inverse of TotalOrderKey: positive keys (top bit set) flip the sign bit
// back, the rest every bit.
double FromTotalOrderKey(uint64_t key) {
  const uint64_t bits = key ^ (((key >> 63) - 1) | (uint64_t{1} << 63));
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Median of the values keyed by `keys` (non-empty) by selection; reorders
// the keys. Keys are unique per bit pattern, so the element at `mid` and
// the largest one below it read the same bits as SortedMedian over the
// sorted arrangement.
double MedianOfKeys(std::vector<uint64_t>& keys) {
  const size_t n = keys.size();
  const size_t mid = n / 2;
  const auto at_mid = keys.begin() + static_cast<ptrdiff_t>(mid);
  std::nth_element(keys.begin(), at_mid, keys.end());
  const double upper = FromTotalOrderKey(*at_mid);
  if (n % 2 == 1) return upper;
  const double lower =
      FromTotalOrderKey(*std::max_element(keys.begin(), at_mid));
  return 0.5 * (lower + upper);
}

double SortedMedian(const double* sorted, size_t n) {
  const size_t mid = n / 2;
  if (n % 2 == 1) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

std::vector<uint64_t> KeysOf(const double* values, size_t n) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = TotalOrderKey(values[i]);
  return keys;
}

// Median absolute deviation of values[0, n) (n > 0) around `median`.
double MadAround(double median, const double* values, size_t n) {
  std::vector<uint64_t> dev(n);
  for (size_t i = 0; i < n; ++i) {
    dev[i] = TotalOrderKey(std::fabs(values[i] - median));
  }
  return MedianOfKeys(dev);
}

// The values keyed by `keys`, in ascending total order. Sorting the integer
// keys costs what sorting the doubles with `<` does.
std::vector<double> SortedValues(std::vector<uint64_t>& keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<double> sorted(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    sorted[i] = FromTotalOrderKey(keys[i]);
  }
  return sorted;
}

}  // namespace

const char* AggFunctionName(AggFunction fn) {
  const int i = static_cast<int>(fn);
  FEAT_CHECK(i >= 0 && i < kNumAggFunctions, "bad AggFunction");
  return kAggNames[i];
}

Result<AggFunction> ParseAggFunction(const std::string& name) {
  const std::string upper = [&] {
    std::string s = name;
    for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
  }();
  for (int i = 0; i < kNumAggFunctions; ++i) {
    if (upper == kAggNames[i]) return static_cast<AggFunction>(i);
  }
  return Status::InvalidArgument("unknown aggregation function: " + name);
}

std::vector<AggFunction> AllAggFunctions() {
  std::vector<AggFunction> out;
  out.reserve(kNumAggFunctions);
  for (int i = 0; i < kNumAggFunctions; ++i) out.push_back(static_cast<AggFunction>(i));
  return out;
}

bool IsOrderStatistic(AggFunction fn) {
  switch (fn) {
    case AggFunction::kCountDistinct:
    case AggFunction::kEntropy:
    case AggFunction::kMode:
    case AggFunction::kMad:
    case AggFunction::kMedian:
      return true;
    default:
      return false;
  }
}

double AggregateSortedSlice(AggFunction fn, const double* sorted, size_t n) {
  if (n == 0) return fn == AggFunction::kCountDistinct ? 0.0 : Nan();
  switch (fn) {
    case AggFunction::kCountDistinct: {
      size_t distinct = 1;
      for (size_t i = 1; i < n; ++i) {
        if (sorted[i] != sorted[i - 1]) ++distinct;
      }
      return static_cast<double>(distinct);
    }
    case AggFunction::kEntropy: {
      // Run-length counting: no per-group hash map, and the terms
      // accumulate in ascending-value order.
      double h = 0.0;
      size_t run = 1;
      for (size_t i = 1; i <= n; ++i) {
        if (i < n && sorted[i] == sorted[i - 1]) {
          ++run;
          continue;
        }
        const double p = static_cast<double>(run) / static_cast<double>(n);
        h -= p * std::log(p);
        run = 1;
      }
      return h;
    }
    case AggFunction::kMode: {
      // Requiring a strictly greater count breaks ties toward the smallest
      // value.
      double best = sorted[0];
      size_t best_count = 0;
      size_t run = 1;
      for (size_t i = 1; i <= n; ++i) {
        if (i < n && sorted[i] == sorted[i - 1]) {
          ++run;
          continue;
        }
        if (run > best_count) {
          best = sorted[i - 1];
          best_count = run;
        }
        run = 1;
      }
      return best;
    }
    case AggFunction::kMad:
      return MadAround(SortedMedian(sorted, n), sorted, n);
    case AggFunction::kMedian:
      return SortedMedian(sorted, n);
    default:
      FEAT_CHECK(false, "AggregateSortedSlice: not an order statistic");
  }
  return Nan();
}

bool SupportsCategorical(AggFunction fn) {
  switch (fn) {
    case AggFunction::kCount:
    case AggFunction::kCountDistinct:
    case AggFunction::kEntropy:
    case AggFunction::kMode:
      return true;
    default:
      return false;
  }
}

double ComputeAggregate(AggFunction fn, const std::vector<double>& values) {
  return ComputeAggregate(fn, values.data(), values.size());
}

double ComputeAggregate(AggFunction fn, const double* values, size_t n) {
  switch (fn) {
    case AggFunction::kCount:
      return static_cast<double>(n);
    case AggFunction::kSum: {
      if (n == 0) return Nan();
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) s += values[i];
      return s;
    }
    case AggFunction::kMin:
      return n == 0 ? Nan() : *std::min_element(values, values + n);
    case AggFunction::kMax:
      return n == 0 ? Nan() : *std::max_element(values, values + n);
    case AggFunction::kAvg: {
      if (n == 0) return Nan();
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) s += values[i];
      return s / static_cast<double>(n);
    }
    case AggFunction::kCountDistinct: {
      // NaN never compares equal to itself; fold all NaNs into one distinct
      // value.
      std::vector<uint64_t> keys;
      keys.reserve(n);
      bool has_nan = false;
      for (size_t i = 0; i < n; ++i) {
        if (std::isnan(values[i])) {
          has_nan = true;
        } else {
          keys.push_back(TotalOrderKey(values[i]));
        }
      }
      const std::vector<double> sorted = SortedValues(keys);
      return AggregateSortedSlice(fn, sorted.data(), sorted.size()) +
             (has_nan ? 1.0 : 0.0);
    }
    case AggFunction::kVar:
    case AggFunction::kVarSample:
    case AggFunction::kStd:
    case AggFunction::kStdSample: {
      const bool sample =
          fn == AggFunction::kVarSample || fn == AggFunction::kStdSample;
      const bool std_dev = fn == AggFunction::kStd || fn == AggFunction::kStdSample;
      if (n == 0 || (sample && n < 2)) return Nan();
      double mean = 0.0;
      for (size_t i = 0; i < n; ++i) mean += values[i];
      mean /= static_cast<double>(n);
      double ss = 0.0;
      for (size_t i = 0; i < n; ++i) ss += (values[i] - mean) * (values[i] - mean);
      const double denom = sample ? static_cast<double>(n - 1) : static_cast<double>(n);
      const double var = ss / denom;
      return std_dev ? std::sqrt(var) : var;
    }
    case AggFunction::kEntropy:
    case AggFunction::kMode: {
      std::vector<uint64_t> keys = KeysOf(values, n);
      const std::vector<double> sorted = SortedValues(keys);
      return AggregateSortedSlice(fn, sorted.data(), n);
    }
    case AggFunction::kKurtosis: {
      if (n < 2) return Nan();
      double mean = 0.0;
      for (size_t i = 0; i < n; ++i) mean += values[i];
      mean /= static_cast<double>(n);
      double m2 = 0.0;
      double m4 = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double d = values[i] - mean;
        m2 += d * d;
        m4 += d * d * d * d;
      }
      m2 /= static_cast<double>(n);
      m4 /= static_cast<double>(n);
      if (m2 <= 0.0) return Nan();
      return m4 / (m2 * m2) - 3.0;  // excess kurtosis
    }
    case AggFunction::kMad: {
      if (n == 0) return Nan();
      std::vector<uint64_t> keys = KeysOf(values, n);
      return MadAround(MedianOfKeys(keys), values, n);
    }
    case AggFunction::kMedian: {
      if (n == 0) return Nan();
      std::vector<uint64_t> keys = KeysOf(values, n);
      return MedianOfKeys(keys);
    }
  }
  return Nan();
}

double ComputeAggregate(AggFunction fn, const Column& col,
                        const std::vector<uint32_t>& rows) {
  // COUNT over an index set never needs the values materialized.
  if (fn == AggFunction::kCount) {
    size_t c = 0;
    for (uint32_t r : rows) {
      if (!col.IsNull(r)) ++c;
    }
    return static_cast<double>(c);
  }
  std::vector<double> values;
  values.reserve(rows.size());
  for (uint32_t r : rows) {
    if (!col.IsNull(r)) values.push_back(col.AsDouble(r));
  }
  return ComputeAggregate(fn, values);
}

}  // namespace featlib
