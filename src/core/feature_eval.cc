#include "core/feature_eval.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "ml/linear.h"
#include "stats/stats.h"

namespace featlib {

namespace {

/// A tripped ExecContext is a request to stop the whole batch, never a
/// per-candidate defect to skip around.
bool IsBatchFatal(const Status& s) {
  return s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted;
}

Status CheckFidelity(double fidelity) {
  if (!(fidelity > 0.0) || fidelity > 1.0) {
    return Status::InvalidArgument(
        StrFormat("fidelity must lie in (0, 1], got %g", fidelity));
  }
  return Status::OK();
}

}  // namespace

const char* ProxyKindToString(ProxyKind proxy) {
  switch (proxy) {
    case ProxyKind::kMutualInformation:
      return "MI";
    case ProxyKind::kSpearman:
      return "SC";
    case ProxyKind::kLogisticRegression:
      return "LR";
  }
  return "?";
}

Result<FeatureEvaluator> FeatureEvaluator::Create(
    const Table& training, const std::string& label_col,
    const std::vector<std::string>& base_feature_cols, const Table& relevant,
    TaskKind task, EvaluatorOptions options) {
  // A 0.6/0.2/0.2 split needs at least a handful of rows per part before
  // any trained metric means anything.
  constexpr size_t kMinTrainingRows = 10;
  if (training.num_rows() < kMinTrainingRows) {
    return Status::InvalidArgument(
        StrFormat("training table has %zu rows; need >= %zu to split and train",
                  training.num_rows(), kMinTrainingRows));
  }
  FeatureEvaluator out;
  out.training_ = training;
  out.relevant_ = relevant;
  out.label_col_ = label_col;
  out.options_ = options;
  FEAT_ASSIGN_OR_RETURN(
      out.base_, Dataset::FromTable(training, label_col, base_feature_cols, task));
  out.split_ = MakeSplit(training.num_rows(), options.train_ratio,
                         options.valid_ratio, options.split_seed);
  // The whole search shares the process-wide pool: batched candidate
  // evaluation and ScoreEach's trainings fan out across cores
  // (FEATLIB_NUM_THREADS / FeatAugConfig).
  out.planner_.set_thread_pool(GlobalThreadPool());
  out.train_labels_.reserve(out.split_.train.size());
  for (uint32_t r : out.split_.train) out.train_labels_.push_back(out.base_.y[r]);
  return out;
}

void FeatureEvaluator::EvictFeaturesFor(size_t incoming) {
  if (feature_cache_bytes_ + incoming <= feature_cache_cap_bytes_) return;
  for (auto it = feature_cache_.begin();
       it != feature_cache_.end() &&
       feature_cache_bytes_ + incoming > feature_cache_cap_bytes_;) {
    if (it->second.used_epoch == feature_epoch_) {  // pinned by this call
      ++it;
      continue;
    }
    feature_cache_bytes_ -= FeatureEntryBytes(it->first, it->second.values);
    it = feature_cache_.erase(it);
    ++feature_cache_evictions_;
  }
}

const std::vector<double>* FeatureEvaluator::InsertFeature(
    std::string key, std::vector<double> values) {
  const size_t bytes = FeatureEntryBytes(key, values);
  EvictFeaturesFor(bytes);
  feature_cache_bytes_ += bytes;
  auto [it, inserted] = feature_cache_.emplace(
      std::move(key), FeatureEntry{std::move(values), feature_epoch_});
  (void)inserted;
  ++num_materializations_;
  return &it->second.values;
}

Result<std::vector<const std::vector<double>*>> FeatureEvaluator::Materialize(
    const std::vector<AggQuery>& queries, std::vector<Status>* slot_errors) {
  ++feature_epoch_;
  // Dedup against the cache: hits are pinned for this call, each distinct
  // miss occupies one planner slot.
  std::vector<std::string> keys;
  keys.reserve(queries.size());
  std::vector<AggQuery> missing;
  std::vector<size_t> missing_slots;
  std::unordered_set<std::string> missing_seen;
  for (size_t i = 0; i < queries.size(); ++i) {
    keys.push_back(queries[i].CacheKey());
    auto it = feature_cache_.find(keys[i]);
    if (it != feature_cache_.end()) {
      it->second.used_epoch = feature_epoch_;  // pin for this batch
      continue;
    }
    if (!missing_seen.insert(keys[i]).second) continue;
    missing.push_back(queries[i]);
    missing_slots.push_back(i);
  }
  // key -> per-candidate failure of an isolated planner batch. Failed
  // candidates stay out of the cache so a later call re-attempts them.
  std::unordered_map<std::string, Status> batch_errors;
  if (!missing.empty() && slot_errors == nullptr) {
    FEAT_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> columns,
        planner_.EvaluateMany(missing, training_, relevant_, ctx_));
    for (size_t j = 0; j < missing.size(); ++j) {
      InsertFeature(keys[missing_slots[j]], std::move(columns[j]));
    }
  } else if (!missing.empty()) {
    FEAT_ASSIGN_OR_RETURN(
        std::vector<QueryPlanner::CandidateResult> results,
        planner_.EvaluateManyIsolated(missing, training_, relevant_, ctx_));
    for (size_t j = 0; j < missing.size(); ++j) {
      const std::string& key = keys[missing_slots[j]];
      if (results[j].status.ok()) {
        InsertFeature(key, std::move(results[j].values));
      } else {
        batch_errors.emplace(key, std::move(results[j].status));
      }
    }
  }
  std::vector<const std::vector<double>*> out(queries.size(), nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto hit = feature_cache_.find(keys[i]);
    if (hit != feature_cache_.end()) {
      out[i] = &hit->second.values;
      continue;
    }
    auto err = batch_errors.find(keys[i]);
    FEAT_CHECK(err != batch_errors.end(),
               "feature batch slot neither cached nor failed");
    (*slot_errors)[i] = err->second;
  }
  return out;
}

Result<const std::vector<double>*> FeatureEvaluator::Feature(const AggQuery& q) {
  FEAT_ASSIGN_OR_RETURN(std::vector<const std::vector<double>*> values,
                        Materialize({q}, /*slot_errors=*/nullptr));
  return values[0];
}

Result<std::vector<const std::vector<double>*>> FeatureEvaluator::Features(
    const std::vector<AggQuery>& queries) {
  return Materialize(queries, /*slot_errors=*/nullptr);
}

Result<double> FeatureEvaluator::ProxyScore(const AggQuery& q, ProxyKind proxy) {
  FEAT_ASSIGN_OR_RETURN(const std::vector<double>* feature, Feature(q));
  ++num_proxy_evals_;
  return ScoreMember(*feature, ScoreWhat::Proxy(proxy));
}

Result<double> FeatureEvaluator::ModelScore(const std::vector<AggQuery>& queries) {
  return ModelScoreAtFidelity(queries, 1.0);
}

Result<double> FeatureEvaluator::ModelScoreAtFidelity(
    const std::vector<AggQuery>& queries, double fidelity) {
  FEAT_RETURN_NOT_OK(CheckFidelity(fidelity));
  FEAT_ASSIGN_OR_RETURN(std::vector<const std::vector<double>*> columns,
                        Features(queries));
  ++num_model_evals_;
  return TrainOn(MakeDownstreamModel(), columns, TrainRowsAt(fidelity),
                 split_.valid);
}

Result<std::vector<Result<double>>> FeatureEvaluator::ScoreEach(
    const std::vector<AggQuery>& queries, const ScoreWhat& what) {
  if (!what.proxy) FEAT_RETURN_NOT_OK(CheckFidelity(what.fidelity));
  // Materialize on this thread. No other cache call runs until the batch
  // ends, so the returned cache pointers stay valid for the workers.
  std::vector<Status> slot_errors(queries.size());
  FEAT_ASSIGN_OR_RETURN(std::vector<const std::vector<double>*> columns,
                        Materialize(queries, &slot_errors));
  // Train on the pool, one member per chunk so the context is checked
  // before every training; each task writes only its own slot.
  std::vector<Result<double>> scores(queries.size(), Result<double>(0.0));
  FEAT_RETURN_NOT_OK(GlobalThreadPool()->ParallelFor(
      queries.size(),
      [&](size_t i) {
        scores[i] = slot_errors[i].ok() ? ScoreMember(*columns[i], what)
                                        : Result<double>(slot_errors[i]);
      },
      /*chunk=*/1, ctx_));
  // Every member whose feature built was scored.
  size_t trained = 0;
  for (const Status& error : slot_errors) trained += error.ok() ? 1 : 0;
  (what.proxy ? num_proxy_evals_ : num_model_evals_) += trained;
  for (const Result<double>& score : scores) {
    if (!score.ok() && IsBatchFatal(score.status())) return score.status();
  }
  return scores;
}

std::vector<uint32_t> FeatureEvaluator::TrainRowsAt(double fidelity) const {
  if (fidelity >= 1.0) return split_.train;
  const size_t n = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(fidelity * split_.train.size())));
  const auto end = static_cast<ptrdiff_t>(std::min(n, split_.train.size()));
  return std::vector<uint32_t>(split_.train.begin(), split_.train.begin() + end);
}

Result<double> FeatureEvaluator::TrainOn(
    std::unique_ptr<Model> model,
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<uint32_t>& train_rows,
    const std::vector<uint32_t>& eval_rows) const {
  if (model == nullptr) return Status::InvalidArgument("unknown model kind");
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    names.push_back(StrFormat("q%zu", i));
  }
  return TrainAndScore(model.get(), base_.GatherRows(train_rows, columns, names),
                       base_.GatherRows(eval_rows, columns, names),
                       options_.metric);
}

Result<double> FeatureEvaluator::ScoreMember(const std::vector<double>& column,
                                             const ScoreWhat& what) const {
  if (!what.proxy) {
    return TrainOn(MakeDownstreamModel(), {&column}, TrainRowsAt(what.fidelity),
                   split_.valid);
  }
  if (*what.proxy == ProxyKind::kLogisticRegression) {
    // Mini LR on base + candidate feature: 60 epochs instead of the full
    // model's 200 (a regression task falls back to the closed-form linear
    // model). The proxy is the validation metric oriented higher-is-better.
    std::unique_ptr<Model> mini;
    if (task() == TaskKind::kRegression) {
      mini = MakeModel(ModelKind::kLogisticRegression, task(),
                       options_.model_seed);
    } else {
      LinearModelOptions lr_options;
      lr_options.epochs = 60;
      lr_options.seed = options_.model_seed;
      mini = std::make_unique<LogisticRegressionModel>(task(), lr_options);
    }
    FEAT_ASSIGN_OR_RETURN(double metric, TrainOn(std::move(mini), {&column},
                                                 split_.train, split_.valid));
    return -ScoreToLoss(metric);
  }
  std::vector<double> train_feature;
  train_feature.reserve(split_.train.size());
  for (uint32_t r : split_.train) train_feature.push_back(column[r]);
  if (*what.proxy == ProxyKind::kSpearman) {
    return SpearmanProxy(train_feature, train_labels_);
  }
  return MutualInformation(train_feature, train_labels_,
                           task() != TaskKind::kRegression);
}

Result<double> FeatureEvaluator::BaselineModelScore() {
  if (baseline_computed_) return baseline_score_;
  FEAT_ASSIGN_OR_RETURN(
      baseline_score_,
      TrainOn(MakeDownstreamModel(), {}, split_.train, split_.valid));
  baseline_computed_ = true;
  return baseline_score_;
}

Result<double> FeatureEvaluator::TestScore(const std::vector<AggQuery>& queries) {
  FEAT_ASSIGN_OR_RETURN(std::vector<const std::vector<double>*> columns,
                        Features(queries));
  return TrainOn(MakeDownstreamModel(), columns, split_.train, split_.test);
}

}  // namespace featlib
