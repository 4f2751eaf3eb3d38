#include "query/kernels.h"

#include <cmath>

#include "query/aggregate.h"

namespace featlib {

namespace {

constexpr uint32_t kNoGroup = GroupIndex::kNoGroup;

double Nan() { return std::nan(""); }

}  // namespace

std::vector<double> AggregateFromMaterialized(AggFunction fn,
                                              const MaterializedValues& m) {
  const size_t n_groups = m.present.size();
  std::vector<double> feature(n_groups, Nan());
  for (size_t g = 0; g < n_groups; ++g) {
    if (m.present[g] == 0) continue;
    feature[g] = ComputeAggregate(fn, m.flat.data() + m.offsets[g],
                                  m.offsets[g + 1] - m.offsets[g]);
  }
  return feature;
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
