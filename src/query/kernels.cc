#include "query/kernels.h"

#include <cmath>

#include "query/aggregate.h"

namespace featlib {

namespace {

constexpr uint32_t kNoGroup = GroupIndex::kNoGroup;

double Nan() { return std::nan(""); }

}  // namespace

void LayoutMaterialized(std::vector<MaterializeChunk>& chunks,
                        size_t n_groups, MaterializedValues* m) {
  m->present.assign(n_groups, 0);
  m->offsets.assign(n_groups + 1, 0);
  for (size_t g = 0; g < n_groups; ++g) {
    size_t at = m->offsets[g];
    for (MaterializeChunk& chunk : chunks) {
      m->present[g] += chunk.present[g];
      const size_t values = chunk.cursor[g];
      chunk.cursor[g] = at;
      at += values;
    }
    m->offsets[g + 1] = at;
  }
  m->flat.resize(m->offsets[n_groups]);
}

void AggregateFromMaterialized(AggFunction fn, const MaterializedValues& m,
                               size_t g_begin, size_t g_end, double* out) {
  for (size_t g = g_begin; g < g_end; ++g) {
    out[g] = m.present[g] == 0
                 ? Nan()
                 : ComputeAggregate(fn, m.flat.data() + m.offsets[g],
                                    m.offsets[g + 1] - m.offsets[g]);
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
