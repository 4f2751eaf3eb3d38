#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/str_util.h"

namespace featlib {

Dataset Dataset::WithLabels(std::vector<double> labels, TaskKind task,
                            int num_classes) {
  Dataset ds;
  ds.n = labels.size();
  ds.d = 0;
  ds.y = std::move(labels);
  ds.task = task;
  ds.num_classes = task == TaskKind::kBinaryClassification ? 2 : num_classes;
  return ds;
}

Status Dataset::AddFeature(const std::string& name,
                           const std::vector<double>& values) {
  if (values.size() != n) {
    return Status::InvalidArgument(
        StrFormat("feature '%s' has %zu rows, dataset has %zu", name.c_str(),
                  values.size(), n));
  }
  std::vector<double> new_x(n * (d + 1));
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) new_x[r * (d + 1) + c] = x[r * d + c];
    new_x[r * (d + 1) + d] = values[r];
  }
  x = std::move(new_x);
  ++d;
  feature_names.push_back(name);
  return Status::OK();
}

std::vector<double> Dataset::FeatureColumn(size_t col) const {
  FEAT_CHECK(col < d, "FeatureColumn out of range");
  std::vector<double> out(n);
  for (size_t r = 0; r < n; ++r) out[r] = At(r, col);
  return out;
}

Dataset Dataset::SelectFeatures(const std::vector<size_t>& cols) const {
  Dataset out;
  out.n = n;
  out.d = cols.size();
  out.y = y;
  out.task = task;
  out.num_classes = num_classes;
  out.x.resize(n * cols.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < cols.size(); ++j) {
      FEAT_CHECK(cols[j] < d, "SelectFeatures column out of range");
      out.x[r * cols.size() + j] = At(r, cols[j]);
    }
  }
  for (size_t c : cols) out.feature_names.push_back(feature_names[c]);
  return out;
}

Dataset Dataset::GatherRows(const std::vector<uint32_t>& rows,
                            const std::vector<const std::vector<double>*>& extra,
                            const std::vector<std::string>& extra_names) const {
  FEAT_CHECK(extra_names.size() == extra.size(), "GatherRows extra names mismatch");
  for (const std::vector<double>* column : extra) {
    FEAT_CHECK(column->size() == n, "GatherRows extra column length mismatch");
  }
  Dataset out;
  out.d = d + extra.size();
  out.n = rows.size();
  out.task = task;
  out.num_classes = num_classes;
  out.feature_names = feature_names;
  out.feature_names.insert(out.feature_names.end(), extra_names.begin(),
                           extra_names.end());
  out.x.resize(out.n * out.d);
  out.y.resize(out.n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t r = rows[i];
    FEAT_CHECK(r < n, "GatherRows out of range");
    double* dst = out.x.data() + i * out.d;
    std::copy(x.begin() + static_cast<ptrdiff_t>(r * d),
              x.begin() + static_cast<ptrdiff_t>((r + 1) * d), dst);
    for (size_t j = 0; j < extra.size(); ++j) dst[d + j] = (*extra[j])[r];
    out.y[i] = y[r];
  }
  return out;
}

Result<Dataset> Dataset::FromTable(const Table& table, const std::string& label_col,
                                   const std::vector<std::string>& feature_cols,
                                   TaskKind task) {
  FEAT_ASSIGN_OR_RETURN(const Column* label, table.GetColumn(label_col));
  std::vector<double> y(table.num_rows());
  int max_class = 1;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (label->IsNull(r)) {
      return Status::InvalidArgument("NULL label at row " + StrFormat("%zu", r));
    }
    y[r] = label->AsDouble(r);
    if (task != TaskKind::kRegression) {
      const int cls = static_cast<int>(std::llround(y[r]));
      if (cls < 0) return Status::InvalidArgument("negative class label");
      max_class = std::max(max_class, cls);
    }
  }
  Dataset ds = WithLabels(std::move(y), task, max_class + 1);
  for (const auto& name : feature_cols) {
    FEAT_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(name));
    std::vector<double> values(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) values[r] = col->AsDouble(r);
    FEAT_RETURN_NOT_OK(ds.AddFeature(name, values));
  }
  return ds;
}

SplitIndices MakeSplit(size_t n, double train_ratio, double valid_ratio,
                       uint64_t seed) {
  FEAT_CHECK(train_ratio > 0.0 && valid_ratio >= 0.0 &&
                 train_ratio + valid_ratio <= 1.0,
             "bad split ratios");
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(seed);
  rng.Shuffle(&order);
  const size_t n_train = static_cast<size_t>(static_cast<double>(n) * train_ratio);
  const size_t n_valid =
      static_cast<size_t>(static_cast<double>(n) * valid_ratio);
  SplitIndices out;
  out.train.assign(order.begin(), order.begin() + static_cast<ptrdiff_t>(n_train));
  out.valid.assign(order.begin() + static_cast<ptrdiff_t>(n_train),
                   order.begin() + static_cast<ptrdiff_t>(n_train + n_valid));
  out.test.assign(order.begin() + static_cast<ptrdiff_t>(n_train + n_valid),
                  order.end());
  return out;
}

void ImputeNanInPlace(Dataset* target, const Dataset& reference) {
  FEAT_CHECK(target->d == reference.d, "impute dimension mismatch");
  for (size_t c = 0; c < reference.d; ++c) {
    double sum = 0.0;
    size_t count = 0;
    for (size_t r = 0; r < reference.n; ++r) {
      const double v = reference.At(r, c);
      if (!std::isnan(v)) {
        sum += v;
        ++count;
      }
    }
    const double mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
    for (size_t r = 0; r < target->n; ++r) {
      if (std::isnan(target->At(r, c))) target->Set(r, c, mean);
    }
  }
}

void Standardizer::Fit(const Dataset& ds) {
  means_.assign(ds.d, 0.0);
  stds_.assign(ds.d, 1.0);
  for (size_t c = 0; c < ds.d; ++c) {
    double sum = 0.0;
    for (size_t r = 0; r < ds.n; ++r) sum += ds.At(r, c);
    const double mean = ds.n > 0 ? sum / static_cast<double>(ds.n) : 0.0;
    double ss = 0.0;
    for (size_t r = 0; r < ds.n; ++r) {
      const double dlt = ds.At(r, c) - mean;
      ss += dlt * dlt;
    }
    const double sd = ds.n > 0 ? std::sqrt(ss / static_cast<double>(ds.n)) : 1.0;
    means_[c] = mean;
    stds_[c] = sd > 1e-12 ? sd : 1.0;
  }
}

void Standardizer::Apply(Dataset* ds) const {
  FEAT_CHECK(ds->d == means_.size(), "standardizer dimension mismatch");
  for (size_t r = 0; r < ds->n; ++r) {
    for (size_t c = 0; c < ds->d; ++c) {
      ds->Set(r, c, (ds->At(r, c) - means_[c]) / stds_[c]);
    }
  }
}

}  // namespace featlib
