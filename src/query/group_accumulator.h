#pragma once

/// \file group_accumulator.h
/// \brief The one definition of per-group aggregation: how the selected rows
/// of a relevant table fold into per-group state for each AggFunction.
///
/// Every streaming consumer drives this accumulator: both kernel backends'
/// whole-table streaming (query/kernels.h, query/kernel_dispatch.h), which
/// differ only in how they iterate the selected rows, and the out-of-core
/// morsel executor (query/morsel.h), which absorbs the table one morsel at a
/// time. Rows are folded in ascending row order, so the result is the same
/// bytes whichever iteration or morsel size feeds it.

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "query/aggregate.h"

namespace featlib {

/// \brief Per-group accumulation of one aggregate function.
///
/// State is per-group tallies (selected rows, non-null values) plus the
/// function family's accumulators: a running sum (SUM/AVG, and the first
/// pass of the VAR family and KURTOSIS), a running best (MIN/MAX), or the
/// group's value buffer (the order statistics COUNT_DISTINCT/ENTROPY/MODE/
/// MAD/MEDIAN, finished through ComputeAggregate, which arranges the buffer
/// in the IEEE total order and runs the AggregateSortedSlice scan the
/// in-RAM fit runs over its ValueOrders — a flat buffer per group costs a
/// fraction of a per-value tree node to fill and free).
/// State is bounded by the number of groups except for the buffer family
/// (values).
///
/// Absorb may be called any number of times, each call continuing the row
/// order of the previous one — the morsel executor feeds one morsel per
/// call, the streaming kernels the whole table in one. Two-pass functions
/// (VAR family, KURTOSIS) then need BeginSecondPass() and the same rows
/// absorbed again: the second pass accumulates deviations from the group
/// means. Groups with no selected row finish as NaN.
///
/// Not thread-safe; one accumulator per candidate.
class GroupAccumulator {
 public:
  explicit GroupAccumulator(AggFunction fn);

  /// True for the VAR family and KURTOSIS.
  bool NeedsSecondPass() const;

  /// Extends per-group state to `n_groups` (monotone; smaller is a no-op).
  void Grow(size_t n_groups);

  /// Turns the running sums into group means and starts the second pass.
  void BeginSecondPass();

  /// Folds the selected rows `spans` visits. `spans(body)` must call
  /// `body(g, b, e)` for consecutive runs of selected rows [b, e) that all
  /// belong to group g (never kNoGroup), in ascending row order; `view`
  /// holds the rows' values (NaN = null cell). A null `view` is COUNT(*):
  /// every selected row counts as a value.
  template <typename Spans>
  void Absorb(const double* view, const Spans& spans);

  /// Per-group results over the grown group space.
  std::vector<double> Finish() const;

  /// Current accumulator heap bytes; O(1).
  size_t StateBytes() const;

 private:
  /// Visits the non-null values of rows [b, e) in order; returns how many.
  template <typename OnValue>
  static uint32_t ForEachValue(const double* view, size_t b, size_t e,
                               OnValue&& on_value) {
    uint32_t n = 0;
    for (size_t row = b; row < e; ++row) {
      const double v = view[row];
      if (std::isnan(v)) continue;  // null cell
      ++n;
      on_value(v);
    }
    return n;
  }

  /// Per span: tally the selected rows, then `on_span(g, b, e)` folds the
  /// values and returns how many were non-null.
  template <typename Spans, typename OnSpan>
  void Tally(const Spans& spans, OnSpan&& on_span) {
    spans([&](uint32_t g, size_t b, size_t e) {
      present_[g] += static_cast<uint32_t>(e - b);
      value_count_[g] += on_span(g, b, e);
    });
  }

  /// MIN (std::less) / MAX (std::greater): the first value, then any better.
  template <typename Spans, typename Better>
  void TallyBest(const double* view, const Spans& spans, Better better) {
    Tally(spans, [&](uint32_t g, size_t b, size_t e) {
      double best = acc_[g];
      bool any = value_count_[g] > 0;
      const uint32_t n = ForEachValue(view, b, e, [&](double v) {
        if (!any || better(v, best)) best = v;
        any = true;
      });
      acc_[g] = best;
      return n;
    });
  }

  AggFunction fn_;
  bool second_pass_ = false;
  std::vector<uint32_t> present_;      // selected rows per group
  std::vector<uint32_t> value_count_;  // non-null values per group
  std::vector<double> acc_;            // sum / best; group mean in pass 2
  std::vector<double> m2_;             // pass 2: sum of squared deviations
  std::vector<double> m4_;             // pass 2 (KURTOSIS): 4th powers
  std::vector<std::vector<double>> buffers_;
  size_t buffered_values_ = 0;
};

template <typename Spans>
void GroupAccumulator::Absorb(const double* view, const Spans& spans) {
  if (view == nullptr) {  // COUNT(*)
    Tally(spans, [](uint32_t, size_t b, size_t e) {
      return static_cast<uint32_t>(e - b);
    });
    return;
  }
  if (second_pass_ && fn_ == AggFunction::kKurtosis) {
    spans([&](uint32_t g, size_t b, size_t e) {
      const double mean = acc_[g];
      double m2 = m2_[g];
      double m4 = m4_[g];
      ForEachValue(view, b, e, [&](double v) {
        const double d = v - mean;
        m2 += d * d;
        m4 += d * d * d * d;
      });
      m2_[g] = m2;
      m4_[g] = m4;
    });
    return;
  }
  if (second_pass_) {  // VAR family
    spans([&](uint32_t g, size_t b, size_t e) {
      const double mean = acc_[g];
      double m2 = m2_[g];
      ForEachValue(view, b, e, [&](double v) {
        const double d = v - mean;
        m2 += d * d;
      });
      m2_[g] = m2;
    });
    return;
  }
  switch (fn_) {
    case AggFunction::kCount:
      Tally(spans, [&](uint32_t, size_t b, size_t e) {
        return ForEachValue(view, b, e, [](double) {});
      });
      return;
    case AggFunction::kSum:
    case AggFunction::kAvg:
    case AggFunction::kVar:
    case AggFunction::kVarSample:
    case AggFunction::kStd:
    case AggFunction::kStdSample:
    case AggFunction::kKurtosis:
      Tally(spans, [&](uint32_t g, size_t b, size_t e) {
        double sum = acc_[g];
        const uint32_t n =
            ForEachValue(view, b, e, [&](double v) { sum += v; });
        acc_[g] = sum;
        return n;
      });
      return;
    case AggFunction::kMin:
      TallyBest(view, spans, std::less<double>());
      return;
    case AggFunction::kMax:
      TallyBest(view, spans, std::greater<double>());
      return;
    case AggFunction::kCountDistinct:
    case AggFunction::kEntropy:
    case AggFunction::kMode:
    case AggFunction::kMad:
    case AggFunction::kMedian:
      Tally(spans, [&](uint32_t g, size_t b, size_t e) {
        std::vector<double>& buffer = buffers_[g];
        const uint32_t n =
            ForEachValue(view, b, e, [&](double v) { buffer.push_back(v); });
        buffered_values_ += n;
        return n;
      });
      return;
  }
}

}  // namespace featlib
