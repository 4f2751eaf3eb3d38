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
/// Streaming aggregation and bucket materialization are written once, as
/// templates over a `Spans` iteration of the selected rows; each kernel
/// backend (query/kernel_dispatch.h) instantiates them with its own
/// iteration — `RowSpans` below is the scalar reference. The per-group
/// arithmetic lives in the one GroupAccumulator (query/group_accumulator.h);
/// the dense-slice oracle ComputeAggregate (query/aggregate.h) aggregates
/// materialized buckets.
///
/// Bit-identity contract: every accumulation visits selected rows in
/// ascending row order — the same order the original per-candidate executor
/// appended group row vectors in — so kernel outputs are byte-identical to
/// the recorded goldens (tests/golden/) at every thread count, backend and
/// morsel size.

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
};

/// The reference selected-row iteration: every selected row of a row range
/// as a span of one, by a per-bit scan of `mask` (all rows when null),
/// skipping rows with no group.
class RowSpans {
 public:
  RowSpans(const uint32_t* row_groups, size_t n_rows, const Bitset* mask)
      : row_groups_(row_groups), n_rows_(n_rows), mask_(mask) {}

  template <typename Body>
  void operator()(Body&& body) const {
    auto visit = [&](size_t row) {
      const uint32_t g = row_groups_[row];
      if (g != GroupIndex::kNoGroup) body(g, row, row + 1);
    };
    if (mask_ == nullptr) {
      for (size_t row = 0; row < n_rows_; ++row) visit(row);
    } else {
      mask_->ForEachSetBit(visit);
    }
  }

 private:
  const uint32_t* row_groups_;
  size_t n_rows_;
  const Bitset* mask_;
};

/// Folds the selected rows of one row range into `acc` with the iteration
/// `Spans` (constructed from the range's group ids, row count and mask).
template <typename Spans>
void AbsorbRows(GroupAccumulator& acc, const uint32_t* row_groups,
                size_t n_rows, const Bitset* mask, const double* view) {
  acc.Absorb(view, Spans(row_groups, n_rows, mask));
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
  const Spans spans(index.row_groups().data(), index.num_rows(), mask);
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

/// Builds one bucket materialization: the selected non-null values of
/// `view`, bucketed by group id into one flat array in ascending row order
/// (a tally pass sizes the slices, a fill pass copies the values). Pure —
/// safe to run concurrently with other artifact builds.
template <typename Spans>
MaterializedValues BuildMaterializedValues(const GroupIndex& index,
                                           const Bitset* mask,
                                           const double* view) {
  const size_t n_groups = index.num_groups();
  const Spans spans(index.row_groups().data(), index.num_rows(), mask);
  MaterializedValues m;
  m.present.assign(n_groups, 0);
  std::vector<uint32_t> value_count(n_groups, 0);
  spans([&](uint32_t g, size_t b, size_t e) {
    m.present[g] += static_cast<uint32_t>(e - b);
    uint32_t n = 0;
    for (size_t row = b; row < e; ++row) n += !std::isnan(view[row]);
    value_count[g] += n;
  });
  m.offsets.assign(n_groups + 1, 0);
  for (size_t g = 0; g < n_groups; ++g) {
    m.offsets[g + 1] = m.offsets[g] + value_count[g];
  }
  m.flat.resize(m.offsets[n_groups]);
  std::vector<size_t> cursor(m.offsets.begin(), m.offsets.end() - 1);
  spans([&](uint32_t g, size_t b, size_t e) {
    size_t c = cursor[g];
    for (size_t row = b; row < e; ++row) {
      const double v = view[row];
      if (!std::isnan(v)) m.flat[c++] = v;
    }
    cursor[g] = c;
  });
  return m;
}

/// Per-group aggregates over a materialized bucket's flat slices.
std::vector<double> AggregateFromMaterialized(AggFunction fn,
                                              const MaterializedValues& m);

/// The scatter step every feature column ends with: per-group values through
/// a training-row map (training row -> group id) into a column aligned to
/// the training rows, NaN where the row joins no group.
std::vector<double> ScatterPerGroup(const std::vector<double>& per_group,
                                    const std::vector<uint32_t>& train_map);

}  // namespace featlib
