#pragma once

/// \file evaluator.h
/// \brief Train-and-score helper: the L(A(D_train), D_valid) of Problem 1.

#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"

namespace featlib {

/// Default metric for a task, matching the paper: AUC for binary
/// classification, macro-F1 for multi-class, RMSE for regression.
MetricKind DefaultMetricFor(TaskKind task);

/// \brief Trains `model` on `train` and scores it on `valid`.
///
/// Inputs may contain NaN; both splits are imputed in place with the
/// training means first, so callers that no longer need their splits
/// should move them in. Returns the metric value
/// (orientation per MetricHigherIsBetter).
Result<double> TrainAndScore(Model* model, Dataset train, Dataset valid,
                             MetricKind metric);

/// TrainAndScore on a fresh MakeModel(kind, train.task, seed).
Result<double> TrainAndScore(ModelKind kind, Dataset train, Dataset valid,
                             MetricKind metric, uint64_t seed);

/// Converts a metric value to a loss (lower is better) so optimizers can
/// minimize uniformly: negates higher-is-better metrics.
double MetricToLoss(MetricKind metric, double value);

}  // namespace featlib
