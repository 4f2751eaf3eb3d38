#pragma once

/// \file dataset.h
/// \brief Dense feature-matrix dataset plus split/impute/standardize helpers.

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "table/table.h"

namespace featlib {

/// Downstream task type; drives model heads, metrics and label handling.
enum class TaskKind {
  kBinaryClassification,
  kMultiClassification,
  kRegression,
};

/// \brief A dense, row-major numeric dataset.
///
/// Labels are class indices (0..num_classes-1) for classification or raw
/// targets for regression. Features may contain NaN (missing after the LEFT
/// JOIN); models require imputation first — see ImputeNanInPlace.
struct Dataset {
  size_t n = 0;
  size_t d = 0;
  std::vector<double> x;  // n * d, row-major
  std::vector<double> y;  // n
  std::vector<std::string> feature_names;
  TaskKind task = TaskKind::kBinaryClassification;
  int num_classes = 2;

  double At(size_t row, size_t col) const { return x[row * d + col]; }
  void Set(size_t row, size_t col, double v) { x[row * d + col] = v; }

  /// Creates an empty (zero-feature) dataset with labels.
  static Dataset WithLabels(std::vector<double> labels, TaskKind task,
                            int num_classes = 2);

  /// Appends one feature column (must have n entries).
  Status AddFeature(const std::string& name, const std::vector<double>& values);

  /// Extracts one feature column.
  std::vector<double> FeatureColumn(size_t col) const;

  /// Keeps only the listed feature columns (order preserved as given).
  Dataset SelectFeatures(const std::vector<size_t>& cols) const;

  /// Gathers rows by index. Each `extra` column (n entries, named by the
  /// matching `extra_names` entry) is appended after the existing features
  /// in the same pass, so a split of base + candidate features costs one
  /// output-sized write and no full-height intermediate.
  Dataset GatherRows(const std::vector<uint32_t>& rows,
                     const std::vector<const std::vector<double>*>& extra = {},
                     const std::vector<std::string>& extra_names = {}) const;

  /// \brief Builds a dataset from a table.
  ///
  /// `label_col` must be int/bool/double; for classification its distinct
  /// values must be 0..k-1. `feature_cols` must be numeric-viewable columns
  /// (strings map to dictionary codes).
  static Result<Dataset> FromTable(const Table& table, const std::string& label_col,
                                   const std::vector<std::string>& feature_cols,
                                   TaskKind task);
};

/// Train/valid/test row-index partition.
struct SplitIndices {
  std::vector<uint32_t> train;
  std::vector<uint32_t> valid;
  std::vector<uint32_t> test;
};

/// Shuffled split with the given ratios (test gets the remainder).
/// The paper uses 0.6/0.2/0.2.
SplitIndices MakeSplit(size_t n, double train_ratio, double valid_ratio,
                       uint64_t seed);

/// \brief Replaces NaNs per column with the column mean computed over
/// `reference` (pass the training split to avoid leakage). Columns that are
/// all-NaN in the reference impute to 0. `target` may be `&reference`:
/// each column's mean is taken before that column is written.
void ImputeNanInPlace(Dataset* target, const Dataset& reference);

/// \brief Z-score standardizer fitted on one dataset, applied to others.
class Standardizer {
 public:
  void Fit(const Dataset& ds);
  void Apply(Dataset* ds) const;

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stds() const { return stds_; }

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace featlib
