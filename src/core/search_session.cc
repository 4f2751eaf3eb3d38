#include "core/search_session.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/str_util.h"
#include "core/checkpoint.h"

namespace featlib {

namespace {

std::string ProxyKey(ProxyKind proxy, const std::string& content_key) {
  std::string out = ProxyKindToString(proxy);
  out += '|';
  out += content_key;
  return out;
}

/// Replay-cache key for one (fidelity, query) rung evaluation. The fidelity
/// is keyed by exact bit pattern: rung fidelities are computed, not chosen,
/// and the replay must never mix adjacent rungs.
std::string FidelityKey(double fidelity, const std::string& content_key) {
  uint64_t bits = 0;
  std::memcpy(&bits, &fidelity, sizeof(bits));
  std::string out = StrFormat("%016llx", static_cast<unsigned long long>(bits));
  out += '|';
  out += content_key;
  return out;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The uncached members of one pool as a FeatureEvaluator::ScoreEach batch.
/// `missing` lists their pool indices in pool order and `slot[j]` is the
/// batch slot that scores missing[j].
struct PendingBatch {
  std::vector<size_t> missing;
  std::vector<size_t> slot;
  std::vector<AggQuery> queries;
};

/// Groups the `missing` members of `pool` into one batch. With `dedup`, an
/// in-pool duplicate (same key) shares its first occurrence's slot, so it
/// is scored once; publishing then walks `missing` in pool order.
PendingBatch GroupMissing(const std::vector<AggQuery>& pool,
                          std::vector<size_t> missing,
                          const std::vector<std::string>& keys, bool dedup) {
  PendingBatch batch;
  batch.slot.reserve(missing.size());
  std::unordered_map<std::string, size_t> first_slot;
  for (size_t i : missing) {
    size_t slot = batch.queries.size();
    if (dedup) slot = first_slot.emplace(keys[i], slot).first->second;
    if (slot == batch.queries.size()) batch.queries.push_back(pool[i]);
    batch.slot.push_back(slot);
  }
  batch.missing = std::move(missing);
  return batch;
}

}  // namespace

void SearchSession::RecordFailure(std::string key, const Status& status) {
  if (!failed_keys_.insert(key).second) return;
  failures_.push_back(FailedCandidate{std::move(key), status});
  ++revision_;
}

Status SearchSession::RoundBoundary() {
  if (checkpoint_ == nullptr) return Status::OK();
  return checkpoint_->MaybeSnapshot(this, /*force=*/false);
}

Status SearchSession::CheckpointNow() {
  if (checkpoint_ == nullptr) return Status::OK();
  return checkpoint_->MaybeSnapshot(this, /*force=*/true);
}

Status SearchSession::RecordTrajectoryDigest(const std::string& label,
                                             uint32_t crc) {
  auto restored = restored_digests_.find(label);
  if (restored != restored_digests_.end() && restored->second != crc) {
    return Status::DataLoss(StrFormat(
        "checkpoint divergence at trajectory digest '%s': checkpoint %08x, "
        "replay %08x — the checkpoint belongs to a different fit "
        "configuration or data",
        label.c_str(), restored->second, crc));
  }
  if (digests_.emplace(label, crc).second) ++revision_;
  return Status::OK();
}

SearchSession::Snapshot SearchSession::ExportSnapshot() const {
  Snapshot out;
  out.proxy.assign(proxy_cache_.begin(), proxy_cache_.end());
  std::sort(out.proxy.begin(), out.proxy.end());
  out.model.assign(model_cache_.begin(), model_cache_.end());
  std::sort(out.model.begin(), out.model.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // The fidelity section is the union of what this run computed and what a
  // restored checkpoint carried: entries the replay never touched must
  // survive into the next checkpoint generation.
  std::unordered_map<std::string, double> fidelity = fidelity_replay_;
  for (const auto& [k, v] : fidelity_log_) fidelity[k] = v;
  out.fidelity.assign(fidelity.begin(), fidelity.end());
  std::sort(out.fidelity.begin(), out.fidelity.end());
  out.failures.reserve(failures_.size());
  for (const FailedCandidate& f : failures_) {
    out.failures.push_back(Snapshot::FailureEntry{
        static_cast<int>(f.status.code()), f.status.message(), f.key});
  }
  std::unordered_map<std::string, uint32_t> digests = restored_digests_;
  for (const auto& [k, v] : digests_) digests[k] = v;
  out.digests.assign(digests.begin(), digests.end());
  std::sort(out.digests.begin(), out.digests.end());
  return out;
}

void SearchSession::RestoreSnapshot(const Snapshot& snapshot) {
  for (const auto& [k, v] : snapshot.proxy) proxy_cache_.emplace(k, v);
  for (const auto& [k, v] : snapshot.model) model_cache_.emplace(k, v);
  for (const auto& [k, v] : snapshot.fidelity) fidelity_replay_.emplace(k, v);
  for (const Snapshot::FailureEntry& f : snapshot.failures) {
    if (!failed_keys_.insert(f.key).second) continue;
    failures_.push_back(FailedCandidate{
        f.key, Status(static_cast<StatusCode>(f.code), f.message)});
  }
  for (const auto& [k, v] : snapshot.digests) restored_digests_.emplace(k, v);
  ++revision_;
}

const char* SearchStageToString(SearchStage stage) {
  switch (stage) {
    case SearchStage::kQti:
      return "qti";
    case SearchStage::kWarmup:
      return "warmup";
    case SearchStage::kGeneration:
      return "generation";
    case SearchStage::kOther:
      return "other";
  }
  return "?";
}

Result<std::vector<double>> SearchSession::ProxyScores(
    const std::vector<AggQuery>& pool, ProxyKind proxy,
    std::vector<std::string>* content_keys) {
  StageCounters& counters = current();
  std::vector<double> out(pool.size());
  std::vector<std::string> keys(pool.size());
  std::vector<size_t> missing;
  if (content_keys != nullptr) {
    content_keys->clear();
    content_keys->reserve(pool.size());
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    std::string content_key = pool[i].CacheKey();
    keys[i] = ProxyKey(proxy, content_key);
    if (content_keys != nullptr) content_keys->push_back(std::move(content_key));
    auto it = proxy_cache_.find(keys[i]);
    if (it != proxy_cache_.end()) {
      out[i] = it->second;
      ++counters.proxy_cache_hits;
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) {
    FEAT_RETURN_NOT_OK(RoundBoundary());
    return out;
  }

  // Score every distinct uncached member in one ScoreEach batch, then
  // publish in pool order. A member whose build or scoring failed scores
  // -inf and is recorded, without voiding the rest of the pool.
  const PendingBatch batch =
      GroupMissing(pool, std::move(missing), keys, /*dedup=*/true);
  const size_t proxy_before = evaluator_->num_proxy_evals();
  FEAT_ASSIGN_OR_RETURN(
      std::vector<Result<double>> scores,
      evaluator_->ScoreEach(batch.queries,
                            FeatureEvaluator::ScoreWhat::Proxy(proxy)));
  for (size_t j = 0; j < batch.missing.size(); ++j) {
    const size_t i = batch.missing[j];
    const Result<double>& score = scores[batch.slot[j]];
    if (!score.ok()) {
      RecordFailure(pool[i].CacheKey(), score.status());
      out[i] = -kInf;
      continue;
    }
    // A duplicate earlier in this pool already published the score.
    auto [it, inserted] = proxy_cache_.emplace(keys[i], score.value());
    if (inserted) {
      ++revision_;
    } else {
      ++counters.proxy_cache_hits;
    }
    out[i] = it->second;
  }
  counters.proxy_evals += evaluator_->num_proxy_evals() - proxy_before;
  FEAT_RETURN_NOT_OK(RoundBoundary());
  return out;
}

Result<std::vector<SearchSession::ModelOutcome>> SearchSession::ModelScores(
    const std::vector<AggQuery>& pool, std::vector<std::string>* content_keys) {
  StageCounters& counters = current();
  std::vector<ModelOutcome> out(pool.size());
  std::vector<std::string> keys(pool.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < pool.size(); ++i) {
    keys[i] = pool[i].CacheKey();
    auto it = model_cache_.find(keys[i]);
    if (it != model_cache_.end()) {
      out[i] = it->second;
      ++counters.model_cache_hits;
    } else {
      missing.push_back(i);
    }
  }
  if (content_keys != nullptr) *content_keys = keys;
  if (missing.empty()) {
    FEAT_RETURN_NOT_OK(RoundBoundary());
    return out;
  }

  const PendingBatch batch =
      GroupMissing(pool, std::move(missing), keys, /*dedup=*/true);
  const size_t model_before = evaluator_->num_model_evals();
  FEAT_ASSIGN_OR_RETURN(
      std::vector<Result<double>> metrics,
      evaluator_->ScoreEach(batch.queries, FeatureEvaluator::ScoreWhat::Metric()));
  // Skipped members get {NaN metric, +inf loss}: +inf keeps loss-ascending
  // sorts a strict weak order (NaN there would corrupt std::sort).
  const ModelOutcome failed{std::numeric_limits<double>::quiet_NaN(), kInf};
  for (size_t j = 0; j < batch.missing.size(); ++j) {
    const size_t i = batch.missing[j];
    const Result<double>& metric = metrics[batch.slot[j]];
    if (!metric.ok()) {
      RecordFailure(keys[i], metric.status());
      out[i] = failed;
      continue;
    }
    // A duplicate earlier in this pool already published the outcome.
    auto [it, inserted] = model_cache_.emplace(
        keys[i],
        ModelOutcome{metric.value(), evaluator_->ScoreToLoss(metric.value())});
    if (inserted) {
      ++revision_;
    } else {
      ++counters.model_cache_hits;
    }
    out[i] = it->second;
  }
  counters.model_evals += evaluator_->num_model_evals() - model_before;
  FEAT_RETURN_NOT_OK(RoundBoundary());
  return out;
}

Result<std::vector<double>> SearchSession::FidelityLosses(
    const std::vector<AggQuery>& pool, double fidelity) {
  StageCounters& counters = current();
  // Replay pass: members whose (fidelity, query) loss a restored checkpoint
  // already carries skip materialization and training entirely — the rung
  // recomputation is deterministic, so the cached loss is the loss the
  // replay would have produced.
  std::vector<double> out(pool.size());
  std::vector<std::string> keys(pool.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < pool.size(); ++i) {
    keys[i] = FidelityKey(fidelity, pool[i].CacheKey());
    auto it = fidelity_replay_.find(keys[i]);
    if (it != fidelity_replay_.end()) {
      out[i] = it->second;
      ++counters.model_cache_hits;
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) {
    FEAT_RETURN_NOT_OK(RoundBoundary());
    return out;
  }

  // No in-pool dedup: within-run rung repeats recompute (see file comment),
  // so every missing member trains.
  const PendingBatch batch =
      GroupMissing(pool, std::move(missing), keys, /*dedup=*/false);
  const size_t model_before = evaluator_->num_model_evals();
  FEAT_ASSIGN_OR_RETURN(
      std::vector<Result<double>> metrics,
      evaluator_->ScoreEach(batch.queries,
                            FeatureEvaluator::ScoreWhat::Metric(fidelity)));
  for (size_t j = 0; j < batch.missing.size(); ++j) {
    const size_t i = batch.missing[j];
    const Result<double>& metric = metrics[batch.slot[j]];
    if (!metric.ok()) {
      // +inf loss: never promoted by successive halving, never NaN in a
      // loss-ascending sort.
      RecordFailure(pool[i].CacheKey(), metric.status());
      out[i] = kInf;
      continue;
    }
    out[i] = evaluator_->ScoreToLoss(metric.value());
    // Log (never consult within a run): within-run rung repeats recompute,
    // keeping the cost ledger identical to the non-checkpointed pipeline;
    // the log only feeds the next checkpoint.
    if (fidelity_log_.emplace(keys[i], out[i]).second) ++revision_;
  }
  counters.model_evals += evaluator_->num_model_evals() - model_before;
  FEAT_RETURN_NOT_OK(RoundBoundary());
  return out;
}

}  // namespace featlib
