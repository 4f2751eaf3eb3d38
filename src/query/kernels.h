#pragma once

/// \file kernels.h
/// \brief The pure per-candidate aggregation kernels of the candidate-
/// evaluation fan-out.
///
/// This is the bottom layer of the planner / store / kernel split (see
/// docs/ARCHITECTURE.md): every function here is a pure function of const
/// inputs — no caches, no locks, no executor state — so the QueryPlanner can
/// run any number of them concurrently once the ArtifactStore has published
/// the shared artifacts they read. A `PlannedCandidate` is the complete,
/// resolved input of one candidate's kernel: raw pointers to store-owned
/// (epoch-pinned) or caller-owned const data.
///
/// Streaming aggregation is written once, as templates over a `Spans`
/// iteration of the selected rows of a row range; each kernel backend
/// (query/kernel_dispatch.h) instantiates them with its own iteration —
/// `RowSpans` below is the scalar reference. The per-group arithmetic lives
/// in the one GroupAccumulator (query/group_accumulator.h); order
/// statistics walk a ValueOrder and finish with AggregateSortedSlice
/// (query/aggregate.h).
///
/// Bit-identity contract: every accumulation visits selected rows in
/// ascending row order — the same order the original per-candidate executor
/// appended group row vectors in, and the order the dense-slice oracle
/// ComputeAggregate (query/aggregate.h) reads a group's values in; MIN and
/// MAX keep the first of equal values (±0.0) as min_element does — and
/// every order statistic reads its selected values in the IEEE total order,
/// the one arrangement ComputeAggregate also sorts (or selects) any multiset
/// into, so kernel outputs are byte-identical to the recorded goldens
/// (tests/golden/) at every thread count, backend and morsel size.

#include <cmath>
#include <cstdint>
#include <vector>

#include "query/agg_query.h"
#include "query/bitset.h"
#include "query/group_accumulator.h"
#include "query/group_index.h"

namespace featlib {

/// The relevant rows of one (group-key set, agg attribute) pair, grouped by
/// group id and, within each group, in ascending IEEE total order of their
/// values (TotalOrderKey, query/aggregate.h), null rows last; rows with the
/// same bits, and the null rows, keep row order. Built once per pair and
/// shared by every order-statistic candidate over it, whatever its
/// predicates: a candidate keeps the rows its mask selects, which are then
/// already sorted, and finishes each group with one AggregateSortedSlice
/// scan — no per-candidate sort.
struct ValueOrder {
  std::vector<uint32_t> offsets;    // group id -> row slice bounds (size G+1)
  std::vector<uint32_t> value_end;  // group id -> end of its non-null rows
  std::vector<uint32_t> rows;       // relevant row ids, group-major

  /// The arrays of one build: 4 bytes per row and 8 per group (+4), the
  /// ExecContext charge of the build.
  static size_t PlannedBytes(size_t n_rows, size_t n_groups) {
    return (n_rows + 2 * n_groups + 1) * sizeof(uint32_t);
  }
};

/// Everything one candidate's kernel needs, resolved by the QueryPlanner's
/// prepare phase. All pointers are to store-owned (pinned) or const data;
/// the fan-out phase reads them without touching any cache.
struct PlannedCandidate {
  const AggQuery* query = nullptr;
  const GroupIndex* index = nullptr;
  const std::vector<uint32_t>* train_map = nullptr;  // training row -> group
  const double* view = nullptr;             // null iff COUNT(*) (no attr)
  const Bitset* mask = nullptr;             // null = all rows selected
  const ValueOrder* order = nullptr;  // order statistic: walk, with mask+view
};

/// The reference selected-row iteration: every selected row of the row
/// range [row_begin, row_end) as a span of one, by a per-bit scan of `mask`
/// (all rows of the range when null), skipping rows with no group.
class RowSpans {
 public:
  RowSpans(const uint32_t* row_groups, size_t row_begin, size_t row_end,
           const Bitset* mask)
      : row_groups_(row_groups),
        row_begin_(row_begin),
        row_end_(row_end),
        mask_(mask) {}

  template <typename Body>
  void operator()(Body&& body) const {
    auto visit = [&](size_t row) {
      const uint32_t g = row_groups_[row];
      if (g != GroupIndex::kNoGroup) body(g, row, row + 1);
    };
    if (mask_ == nullptr) {
      for (size_t row = row_begin_; row < row_end_; ++row) visit(row);
    } else {
      mask_->ForEachSetBitIn(row_begin_, row_end_, visit);
    }
  }

 private:
  const uint32_t* row_groups_;
  size_t row_begin_;
  size_t row_end_;
  const Bitset* mask_;
};

/// Folds the selected rows of one row range into `acc` with the iteration
/// `Spans` (constructed from the range's group ids, row count and mask).
template <typename Spans>
void AbsorbRows(GroupAccumulator& acc, const uint32_t* row_groups,
                size_t n_rows, const Bitset* mask, const double* view) {
  acc.Absorb(view, Spans(row_groups, 0, n_rows, mask));
}

/// The streaming kernel: per-group aggregate values for one candidate over
/// the whole relevant table — grow, absorb (twice for two-pass functions),
/// finish. `view` is the candidate's numeric value view; null only for
/// COUNT(*) candidates without an agg attribute, which then read no values
/// at all. Groups with no selected row get NaN. When `first_selected_row`
/// is non-null it receives, per group, the first row index passing the
/// filter (GroupIndex::kNoGroup when none does).
template <typename Spans>
std::vector<double> AggregateStreaming(
    AggFunction fn, const GroupIndex& index, const Bitset* mask,
    const double* view, std::vector<uint32_t>* first_selected_row) {
  const size_t n_groups = index.num_groups();
  if (first_selected_row) {
    first_selected_row->assign(n_groups, GroupIndex::kNoGroup);
  }
  // Empty selection detected by popcount: every group is absent, all NaN.
  if (n_groups == 0 || (mask != nullptr && mask->Count() == 0)) {
    return std::vector<double>(n_groups, std::nan(""));
  }
  const Spans spans(index.row_groups().data(), 0, index.num_rows(), mask);
  if (first_selected_row) {
    spans([&](uint32_t g, size_t b, size_t) {
      uint32_t& first = (*first_selected_row)[g];
      if (first == GroupIndex::kNoGroup) first = static_cast<uint32_t>(b);
    });
  }
  GroupAccumulator acc(fn);
  acc.Grow(n_groups);
  acc.Absorb(view, spans);
  if (acc.NeedsSecondPass()) {
    acc.BeginSecondPass();
    acc.Absorb(view, spans);
  }
  return acc.Finish();
}

/// A ValueOrder build runs in three steps: the caller sizes the arrays for
/// `n_rows` rows and `n_groups` groups (AllocateValueOrder), one task
/// groups the rows (GroupValueOrder), and group ranges sort in parallel
/// (SortValueOrder).
void AllocateValueOrder(size_t n_rows, size_t n_groups, ValueOrder* order);

/// Counting sort of the rows with a group (`row_groups`, kNoGroup skipped)
/// into group-major row order: fills `order->offsets` and `order->rows`.
void GroupValueOrder(const uint32_t* row_groups, size_t n_rows,
                     ValueOrder* order);

/// Sorts each group of [g_begin, g_end) by the values `view` holds (NaN =
/// null, last) and sets its value_end. Ranges of one build write disjoint
/// parts of `order`, so they may run concurrently.
void SortValueOrder(const double* view, size_t g_begin, size_t g_end,
                    ValueOrder* order);

/// The order-statistic kernel (COUNT_DISTINCT, ENTROPY, MODE, MAD, MEDIAN)
/// for the groups [g_begin, g_end): walks each group's rows in value order,
/// keeps the non-null ones `mask` selects (all when null) and writes
/// AggregateSortedSlice of them to out[g] — NaN for a group with no
/// selected row; a group whose selected rows are all null finishes as an
/// empty slice. Byte-identical to ComputeAggregate over the group's
/// selected values in row order. Ranges write disjoint parts of `out`.
void AggregateFromValueOrder(AggFunction fn, const ValueOrder& order,
                             const Bitset* mask, const double* view,
                             size_t g_begin, size_t g_end, double* out);

/// The scatter step every feature column ends with: per-group values through
/// a training-row map (training row -> group id) into a column aligned to
/// the training rows, NaN where the row joins no group.
std::vector<double> ScatterPerGroup(const std::vector<double>& per_group,
                                    const std::vector<uint32_t>& train_map);

}  // namespace featlib
