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
/// Streaming aggregation and bucket materialization (a tally and a fill
/// over one row range) are written once, as templates over a `Spans`
/// iteration of the selected rows of a row range; each kernel backend
/// (query/kernel_dispatch.h) instantiates them with its own iteration —
/// `RowSpans` below is the scalar reference. The per-group arithmetic lives
/// in the one GroupAccumulator (query/group_accumulator.h); the dense-slice
/// oracle ComputeAggregate (query/aggregate.h) aggregates materialized
/// buckets; order statistics walk a ValueOrder and finish with
/// AggregateSortedSlice (query/aggregate.h).
///
/// Bit-identity contract: every accumulation visits selected rows in
/// ascending row order — the same order the original per-candidate executor
/// appended group row vectors in — and every order statistic reads its
/// selected values in the IEEE total order, the one arrangement
/// ComputeAggregate also sorts (or selects) any multiset into, so kernel
/// outputs are byte-identical to the recorded goldens (tests/golden/) at
/// every thread count, backend and morsel size.

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "query/agg_query.h"
#include "query/bitset.h"
#include "query/group_accumulator.h"
#include "query/group_index.h"

namespace featlib {

/// Grouped non-null values of one (group-key set, predicate set, agg
/// attribute) bucket, bucketed into one flat array in row order. Built at
/// most once per bucket: candidates that vary only the agg function (the
/// common shape of a template's pool) aggregate contiguous slices of the
/// same flat array. `flat` is allocated on a 64-byte boundary so the
/// vectorized backend's slice loads start cache-line-aligned; the values —
/// and therefore every aggregate over them — are byte-identical either way.
struct MaterializedValues {
  std::vector<uint32_t> present;   // selected rows per group (incl. nulls)
  std::vector<size_t> offsets;     // group id -> slice bounds (size G+1)
  AlignedVector<double> flat;      // non-null selected values, row order

  /// Heap footprint (ArtifactStore byte accounting). Counts *capacity*, not
  /// size — what the allocator actually handed out — so cache byte caps
  /// never undercount a buffer that grew geometrically; the aligned flat
  /// buffer additionally rounds up to its allocation granularity.
  size_t SizeBytes() const {
    const size_t flat_bytes = flat.capacity() * sizeof(double);
    const size_t aligned_flat =
        flat_bytes == 0
            ? 0
            : (flat_bytes + kKernelAlignment - 1) / kKernelAlignment *
                  kKernelAlignment;
    return aligned_flat + offsets.capacity() * sizeof(size_t) +
           present.capacity() * sizeof(uint32_t);
  }
};

/// The relevant rows of one (group-key set, agg attribute) pair, grouped by
/// group id and, within each group, in ascending IEEE total order of their
/// values (TotalOrderKey, query/aggregate.h), null rows last; rows with the
/// same bits, and the null rows, keep row order. Built once per pair and
/// shared by every order-statistic candidate over it, whatever its
/// predicates: a candidate keeps the rows its mask selects, which are then
/// already sorted, and finishes each group with one AggregateSortedSlice
/// scan — no per-candidate sort and no bucket materialization.
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
  const MaterializedValues* mat = nullptr;  // aggregate from slices if set
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

/// One row range of a bucket materialization. A bucket is built in three
/// steps: every chunk tallies its rows (TallyMaterialized, chunks in
/// parallel), one serial LayoutMaterialized sums the tallies into the
/// bucket's offsets and turns each chunk's value counts into its write
/// cursors, and every chunk copies its values (FillMaterialized, chunks in
/// parallel). Chunks write disjoint parts of the flat array, and group g's
/// values from chunk c land after those of every earlier chunk, so the
/// result is the one-pass array: each group's values in ascending row order.
struct MaterializeChunk {
  size_t row_begin = 0;
  size_t row_end = 0;
  /// Per group: selected rows of the chunk (nulls included).
  std::vector<uint32_t> present;
  /// Per group: the chunk's non-null values after the tally; after
  /// LayoutMaterialized, the flat position its next value goes to.
  std::vector<size_t> cursor;

  /// A chunk over [row_begin, row_end) with zeroed tallies for `n_groups`.
  MaterializeChunk(size_t begin, size_t end, size_t n_groups)
      : row_begin(begin),
        row_end(end),
        present(n_groups, 0),
        cursor(n_groups, 0) {}
};

/// The tally kernel: adds the chunk's selected rows and non-null values per
/// group into `chunk->present` and `chunk->cursor`. Pure over its inputs;
/// chunks of one bucket may run concurrently.
template <typename Spans>
void TallyMaterialized(const GroupIndex& index, const Bitset* mask,
                       const double* view, MaterializeChunk* chunk) {
  const Spans spans(index.row_groups().data(), chunk->row_begin,
                    chunk->row_end, mask);
  uint32_t* present = chunk->present.data();
  size_t* values = chunk->cursor.data();
  spans([&](uint32_t g, size_t b, size_t e) {
    present[g] += static_cast<uint32_t>(e - b);
    size_t n = 0;
    for (size_t row = b; row < e; ++row) n += !std::isnan(view[row]);
    values[g] += n;
  });
}

/// The fill kernel: copies the chunk's selected non-null values into `flat`
/// through its laid-out cursors, in ascending row order.
template <typename Spans>
void FillMaterialized(const GroupIndex& index, const Bitset* mask,
                      const double* view, MaterializeChunk* chunk,
                      double* flat) {
  const Spans spans(index.row_groups().data(), chunk->row_begin,
                    chunk->row_end, mask);
  size_t* cursor = chunk->cursor.data();
  spans([&](uint32_t g, size_t b, size_t e) {
    size_t c = cursor[g];
    for (size_t row = b; row < e; ++row) {
      const double v = view[row];
      if (!std::isnan(v)) flat[c++] = v;
    }
    cursor[g] = c;
  });
}

/// The serial step between tally and fill: sums the tallied `chunks` (in
/// chunk order) into `m`'s present counts and offsets, sizes `m->flat`, and
/// rewrites each chunk's value counts as its write cursors.
void LayoutMaterialized(std::vector<MaterializeChunk>& chunks,
                        size_t n_groups, MaterializedValues* m);

/// Per-group aggregates over a materialized bucket's flat slices, for the
/// groups [g_begin, g_end): writes out[g] (NaN for a group with no selected
/// row). Ranges of one bucket write disjoint parts of `out`, so they may
/// run concurrently; [0, G) is the whole bucket.
void AggregateFromMaterialized(AggFunction fn, const MaterializedValues& m,
                               size_t g_begin, size_t g_end, double* out);

/// A ValueOrder build runs in three steps, like a bucket's: the caller
/// sizes the arrays for `n_rows` rows and `n_groups` groups
/// (AllocateValueOrder), one task groups the rows (GroupValueOrder), and
/// group ranges sort in parallel (SortValueOrder).
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
