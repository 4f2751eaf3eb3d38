#include "ml/evaluator.h"

#include <cmath>
#include <utility>

namespace featlib {

MetricKind DefaultMetricFor(TaskKind task) {
  switch (task) {
    case TaskKind::kBinaryClassification:
      return MetricKind::kAuc;
    case TaskKind::kMultiClassification:
      return MetricKind::kF1Macro;
    case TaskKind::kRegression:
      return MetricKind::kRmse;
  }
  return MetricKind::kAuc;
}

Result<double> TrainAndScore(Model* model, Dataset train, Dataset valid,
                             MetricKind metric) {
  if (train.d == 0) {
    return Status::InvalidArgument("cannot train on zero features");
  }
  // Valid first: both splits take their means from the unimputed train rows.
  ImputeNanInPlace(&valid, train);
  ImputeNanInPlace(&train, train);
  FEAT_RETURN_NOT_OK(model->Fit(train));

  switch (metric) {
    case MetricKind::kAuc: {
      const auto scores = model->PredictScore(valid);
      return Auc(valid.y, scores);
    }
    case MetricKind::kF1Macro: {
      const auto pred = model->PredictClass(valid);
      std::vector<int> labels(valid.n);
      for (size_t i = 0; i < valid.n; ++i) {
        labels[i] = static_cast<int>(std::llround(valid.y[i]));
      }
      return F1Macro(labels, pred, valid.num_classes);
    }
    case MetricKind::kRmse: {
      const auto pred = model->PredictScore(valid);
      return Rmse(valid.y, pred);
    }
    case MetricKind::kAccuracy: {
      const auto pred = model->PredictClass(valid);
      std::vector<int> labels(valid.n);
      for (size_t i = 0; i < valid.n; ++i) {
        labels[i] = static_cast<int>(std::llround(valid.y[i]));
      }
      return Accuracy(labels, pred);
    }
    case MetricKind::kLogLoss: {
      const auto scores = model->PredictScore(valid);
      return LogLoss(valid.y, scores);
    }
  }
  return Status::InvalidArgument("unknown metric");
}

Result<double> TrainAndScore(ModelKind kind, Dataset train, Dataset valid,
                             MetricKind metric, uint64_t seed) {
  auto model = MakeModel(kind, train.task, seed);
  if (model == nullptr) return Status::InvalidArgument("unknown model kind");
  return TrainAndScore(model.get(), std::move(train), std::move(valid), metric);
}

double MetricToLoss(MetricKind metric, double value) {
  return MetricHigherIsBetter(metric) ? -value : value;
}

}  // namespace featlib
