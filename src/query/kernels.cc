#include "query/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "query/aggregate.h"

namespace featlib {

namespace {

constexpr uint32_t kNoGroup = GroupIndex::kNoGroup;

double Nan() { return std::nan(""); }

// One row of a ValueOrder group being sorted, with its value's sort key.
struct KeyedRow {
  uint64_t key;
  uint32_t row;
};

// Groups from this size up sort by radix: below it, the 8 x 256 counters
// cost more than the comparisons they save.
constexpr size_t kRadixMinRows = 256;

// Stable LSD radix sort of a[0, n) by key, one byte per pass, skipping the
// bytes every key shares; `tmp` has room for n.
void RadixSortByKey(KeyedRow* a, KeyedRow* tmp, size_t n) {
  uint32_t counts[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 8; ++b) ++counts[b][(a[i].key >> (8 * b)) & 0xFF];
  }
  KeyedRow* src = a;
  KeyedRow* dst = tmp;
  for (int b = 0; b < 8; ++b) {
    uint32_t* count = counts[b];
    if (count[(src[0].key >> (8 * b)) & 0xFF] == n) continue;
    uint32_t at = 0;
    for (uint32_t& c : counts[b]) {
      const uint32_t here = c;
      c = at;
      at += here;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(src[i].key >> (8 * b)) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != a) std::copy(src, src + n, a);
}

}  // namespace

void AllocateValueOrder(size_t n_rows, size_t n_groups, ValueOrder* order) {
  order->offsets.assign(n_groups + 1, 0);
  order->value_end.assign(n_groups, 0);
  order->rows.resize(n_rows);
}

void GroupValueOrder(const uint32_t* row_groups, size_t n_rows,
                     ValueOrder* order) {
  const size_t n_groups = order->value_end.size();
  uint32_t* offsets = order->offsets.data();
  for (size_t row = 0; row < n_rows; ++row) {
    const uint32_t g = row_groups[row];
    if (g != kNoGroup) ++offsets[g + 1];
  }
  for (size_t g = 0; g < n_groups; ++g) offsets[g + 1] += offsets[g];
  // value_end doubles as the scatter cursor until SortValueOrder sets it.
  uint32_t* cursor = order->value_end.data();
  std::copy(offsets, offsets + n_groups, cursor);
  uint32_t* rows = order->rows.data();
  for (size_t row = 0; row < n_rows; ++row) {
    const uint32_t g = row_groups[row];
    if (g != kNoGroup) rows[cursor[g]++] = static_cast<uint32_t>(row);
  }
  order->rows.resize(offsets[n_groups]);
}

void SortValueOrder(const double* view, size_t g_begin, size_t g_end,
                    ValueOrder* order) {
  // (key, row) pairs: nulls take the largest key, which no non-NaN value's
  // key reaches, and the row breaks ties, so the arrangement is unique.
  constexpr uint64_t kNullKey = ~uint64_t{0};
  std::vector<KeyedRow> keyed, scratch;
  uint32_t* rows = order->rows.data();
  for (size_t g = g_begin; g < g_end; ++g) {
    const uint32_t begin = order->offsets[g];
    const uint32_t end = order->offsets[g + 1];
    keyed.clear();
    uint32_t values = 0;
    for (uint32_t i = begin; i < end; ++i) {
      const double v = view[rows[i]];
      const bool null = std::isnan(v);
      values += null ? 0 : 1;
      keyed.push_back({null ? kNullKey : TotalOrderKey(v), rows[i]});
    }
    // The rows arrive in row order, so a stable sort by key alone breaks
    // ties by row.
    if (keyed.size() < kRadixMinRows) {
      std::sort(keyed.begin(), keyed.end(),
                [](const KeyedRow& a, const KeyedRow& b) {
                  return a.key < b.key || (a.key == b.key && a.row < b.row);
                });
    } else {
      scratch.resize(keyed.size());
      RadixSortByKey(keyed.data(), scratch.data(), keyed.size());
    }
    for (uint32_t i = begin; i < end; ++i) rows[i] = keyed[i - begin].row;
    order->value_end[g] = begin + values;
  }
}

void AggregateFromValueOrder(AggFunction fn, const ValueOrder& order,
                             const Bitset* mask, const double* view,
                             size_t g_begin, size_t g_end, double* out) {
  std::vector<double> selected;
  const uint32_t* rows = order.rows.data();
  for (size_t g = g_begin; g < g_end; ++g) {
    const uint32_t begin = order.offsets[g];
    const uint32_t value_end = order.value_end[g];
    const uint32_t end = order.offsets[g + 1];
    selected.clear();
    bool present;
    if (mask == nullptr) {
      for (uint32_t i = begin; i < value_end; ++i) {
        selected.push_back(view[rows[i]]);
      }
      present = end > begin;
    } else {
      for (uint32_t i = begin; i < value_end; ++i) {
        if (mask->Test(rows[i])) selected.push_back(view[rows[i]]);
      }
      present = !selected.empty() ||
                std::any_of(rows + value_end, rows + end,
                            [mask](uint32_t row) { return mask->Test(row); });
    }
    out[g] = present
                 ? AggregateSortedSlice(fn, selected.data(), selected.size())
                 : Nan();
  }
}

std::vector<double> ScatterPerGroup(const std::vector<double>& per_group,
                                    const std::vector<uint32_t>& train_map) {
  std::vector<double> out(train_map.size(), Nan());
  for (size_t row = 0; row < train_map.size(); ++row) {
    const uint32_t g = train_map[row];
    if (g != kNoGroup) out[row] = per_group[g];
  }
  return out;
}

}  // namespace featlib
