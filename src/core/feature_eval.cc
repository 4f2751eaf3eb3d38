#include "core/feature_eval.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "ml/linear.h"
#include "stats/stats.h"

namespace featlib {

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
  // evaluation fans out across cores (FEATLIB_NUM_THREADS / FeatAugConfig).
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

Result<std::vector<FeatureEvaluator::FeatureSlot>>
FeatureEvaluator::FeaturesIsolated(const std::vector<AggQuery>& queries) {
  std::vector<Status> slot_errors(queries.size());
  FEAT_ASSIGN_OR_RETURN(std::vector<const std::vector<double>*> values,
                        Materialize(queries, &slot_errors));
  std::vector<FeatureSlot> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i].status = std::move(slot_errors[i]);
    out[i].values = values[i];
  }
  return out;
}

Result<double> FeatureEvaluator::ProxyScore(const AggQuery& q, ProxyKind proxy) {
  FEAT_ASSIGN_OR_RETURN(const std::vector<double>* feature, Feature(q));
  ++num_proxy_evals_;
  std::vector<double> train_feature;
  train_feature.reserve(split_.train.size());
  for (uint32_t r : split_.train) train_feature.push_back((*feature)[r]);

  switch (proxy) {
    case ProxyKind::kMutualInformation:
      return MutualInformation(train_feature, train_labels_,
                               task() != TaskKind::kRegression);
    case ProxyKind::kSpearman:
      return SpearmanProxy(train_feature, train_labels_);
    case ProxyKind::kLogisticRegression: {
      // Mini LR on base + candidate feature; proxy = validation metric
      // converted so that higher is always better.
      FEAT_ASSIGN_OR_RETURN(Dataset train, BuildDataset({q}, split_.train));
      FEAT_ASSIGN_OR_RETURN(Dataset valid, BuildDataset({q}, split_.valid));
      LinearModelOptions lr_options;
      lr_options.epochs = 60;
      FEAT_ASSIGN_OR_RETURN(
          double metric,
          TrainAndScore(ModelKind::kLogisticRegression, train, valid,
                        options_.metric, options_.model_seed));
      return -ScoreToLoss(metric);
    }
  }
  return Status::InvalidArgument("unknown proxy kind");
}

Result<Dataset> FeatureEvaluator::BuildDataset(const std::vector<AggQuery>& queries,
                                               const std::vector<uint32_t>& rows) {
  // Materialize all query features first (full-length, cached, batched).
  FEAT_ASSIGN_OR_RETURN(std::vector<const std::vector<double>*> features,
                        Features(queries));
  Dataset full = base_;
  for (size_t i = 0; i < queries.size(); ++i) {
    FEAT_RETURN_NOT_OK(
        full.AddFeature(StrFormat("q%zu", i), *features[i]));
  }
  return full.GatherRows(rows);
}

Result<double> FeatureEvaluator::ModelScore(const std::vector<AggQuery>& queries) {
  FEAT_ASSIGN_OR_RETURN(Dataset train, BuildDataset(queries, split_.train));
  FEAT_ASSIGN_OR_RETURN(Dataset valid, BuildDataset(queries, split_.valid));
  ++num_model_evals_;
  return TrainAndScore(options_.model, train, valid, options_.metric,
                       options_.model_seed);
}

Result<double> FeatureEvaluator::ModelScoreAtFidelity(
    const std::vector<AggQuery>& queries, double fidelity) {
  if (!(fidelity > 0.0) || fidelity > 1.0) {
    return Status::InvalidArgument(
        StrFormat("fidelity must lie in (0, 1], got %g", fidelity));
  }
  if (fidelity >= 1.0) return ModelScore(queries);
  const size_t n = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(fidelity * split_.train.size())));
  std::vector<uint32_t> sub(split_.train.begin(),
                            split_.train.begin() +
                                std::min(n, split_.train.size()));
  FEAT_ASSIGN_OR_RETURN(Dataset train, BuildDataset(queries, sub));
  FEAT_ASSIGN_OR_RETURN(Dataset valid, BuildDataset(queries, split_.valid));
  ++num_model_evals_;
  return TrainAndScore(options_.model, train, valid, options_.metric,
                       options_.model_seed);
}

Result<double> FeatureEvaluator::BaselineModelScore() {
  if (baseline_computed_) return baseline_score_;
  FEAT_ASSIGN_OR_RETURN(Dataset train, BuildDataset({}, split_.train));
  FEAT_ASSIGN_OR_RETURN(Dataset valid, BuildDataset({}, split_.valid));
  FEAT_ASSIGN_OR_RETURN(baseline_score_,
                        TrainAndScore(options_.model, train, valid,
                                      options_.metric, options_.model_seed));
  baseline_computed_ = true;
  return baseline_score_;
}

Result<double> FeatureEvaluator::TestScore(const std::vector<AggQuery>& queries) {
  FEAT_ASSIGN_OR_RETURN(Dataset train, BuildDataset(queries, split_.train));
  FEAT_ASSIGN_OR_RETURN(Dataset test, BuildDataset(queries, split_.test));
  return TrainAndScore(options_.model, train, test, options_.metric,
                       options_.model_seed);
}

}  // namespace featlib
