#include "query/group_accumulator.h"

namespace featlib {

namespace {

double Nan() { return std::nan(""); }

}  // namespace

GroupAccumulator::GroupAccumulator(AggFunction fn) : fn_(fn) {}

bool GroupAccumulator::NeedsSecondPass() const {
  switch (fn_) {
    case AggFunction::kVar:
    case AggFunction::kVarSample:
    case AggFunction::kStd:
    case AggFunction::kStdSample:
    case AggFunction::kKurtosis:
      return true;
    default:
      return false;
  }
}

void GroupAccumulator::Grow(size_t n_groups) {
  if (n_groups <= present_.size()) return;
  present_.resize(n_groups, 0);
  value_count_.resize(n_groups, 0);
  switch (fn_) {
    case AggFunction::kCount:
      return;
    case AggFunction::kCountDistinct:
    case AggFunction::kEntropy:
    case AggFunction::kMode:
    case AggFunction::kMad:
    case AggFunction::kMedian:
      buffers_.resize(n_groups);
      return;
    default:
      acc_.resize(n_groups, 0.0);
      return;
  }
}

void GroupAccumulator::BeginSecondPass() {
  second_pass_ = true;
  for (size_t g = 0; g < acc_.size(); ++g) {
    if (value_count_[g] > 0) acc_[g] /= static_cast<double>(value_count_[g]);
  }
  m2_.assign(acc_.size(), 0.0);
  if (fn_ == AggFunction::kKurtosis) m4_.assign(acc_.size(), 0.0);
}

std::vector<double> GroupAccumulator::Finish() const {
  const size_t n_groups = present_.size();
  std::vector<double> feature(n_groups, Nan());
  // Fills every selected group with `value(g, n)`, n = its non-null values.
  auto fill = [&](auto&& value) {
    for (size_t g = 0; g < n_groups; ++g) {
      if (present_[g] > 0) feature[g] = value(g, value_count_[g]);
    }
  };
  switch (fn_) {
    case AggFunction::kCount:
      fill([](size_t, uint32_t n) { return static_cast<double>(n); });
      break;
    case AggFunction::kSum:
    case AggFunction::kMin:
    case AggFunction::kMax:
      fill([&](size_t g, uint32_t n) { return n == 0 ? Nan() : acc_[g]; });
      break;
    case AggFunction::kAvg:
      fill([&](size_t g, uint32_t n) {
        return n == 0 ? Nan() : acc_[g] / static_cast<double>(n);
      });
      break;
    case AggFunction::kVar:
    case AggFunction::kVarSample:
    case AggFunction::kStd:
    case AggFunction::kStdSample: {
      const bool sample =
          fn_ == AggFunction::kVarSample || fn_ == AggFunction::kStdSample;
      const bool std_dev =
          fn_ == AggFunction::kStd || fn_ == AggFunction::kStdSample;
      fill([&](size_t g, uint32_t n) {
        if (n == 0 || (sample && n < 2)) return Nan();
        const double denom =
            sample ? static_cast<double>(n - 1) : static_cast<double>(n);
        const double var = m2_[g] / denom;
        return std_dev ? std::sqrt(var) : var;
      });
      break;
    }
    case AggFunction::kKurtosis:
      fill([&](size_t g, uint32_t n) {
        if (n < 2) return Nan();
        const double m2 = m2_[g] / static_cast<double>(n);
        const double m4 = m4_[g] / static_cast<double>(n);
        if (m2 <= 0.0) return Nan();
        return m4 / (m2 * m2) - 3.0;  // excess kurtosis
      });
      break;
    case AggFunction::kCountDistinct:
    case AggFunction::kEntropy:
    case AggFunction::kMode:
    case AggFunction::kMad:
    case AggFunction::kMedian:
      fill([&](size_t g, uint32_t) {
        return ComputeAggregate(fn_, buffers_[g]);
      });
      break;
  }
  return feature;
}

size_t GroupAccumulator::StateBytes() const {
  return (present_.size() + value_count_.size()) * sizeof(uint32_t) +
         (acc_.size() + m2_.size() + m4_.size()) * sizeof(double) +
         buffers_.size() * sizeof(std::vector<double>) +
         buffered_values_ * sizeof(double);
}

}  // namespace featlib
