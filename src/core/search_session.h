#pragma once

/// \file search_session.h
/// \brief Cross-round, cross-template state of one search (Fit) run.
///
/// The search pipeline is suggest-batch -> pooled evaluate -> observe-all:
/// every optimizer proposes a *pool* of configurations
/// (Optimizer::SuggestBatch), the pool is scored in one
/// FeatureEvaluator::ScoreEach batch (features materialized in one
/// QueryPlanner pass, then each member trained or proxy-scored on the
/// thread pool), and the scores are observed back in proposal order. The
/// session publishes a batch into its caches, failure ledger and revision in
/// pool order, so everything a checkpoint or an optimizer sees is the same
/// at every thread count. The SearchSession owns what must persist
/// *across* those rounds — and across the templates of one Fit:
///
///   - the proxy-score cache (a query's MI/SC/LR proxy is a pure function of
///     its feature column and the split, so QTI nodes and warm-up rounds
///     that re-propose a query pay nothing),
///   - the model-outcome cache (TrainAndScore is deterministic given the
///     model seed, so generation rounds and overlapping template pools reuse
///     trainings),
///   - per-stage evaluation counters (qti / warmup / generation), which flow
///     back into GenerationResult and AugmentationPlan.
///
/// Reduced-fidelity losses (Hyperband/BOHB rungs) are deliberately *not*
/// cached within a run: they are rung-specific training subsets and the
/// sequential driver recomputed repeats too — caching them would change no
/// trajectory but would misstate the cost ledger. They *are* logged for the
/// checkpoint layer, and a restored checkpoint's fidelity entries are
/// consulted on resume (the recomputation is deterministic, so a replay hit
/// returns the identical loss without retraining).
///
/// **Durable fit:** attach a CheckpointWriter (set_checkpoint) and every
/// scoring call becomes a round boundary — the writer snapshots the
/// session's replay state (score caches, fidelity log, failures, trajectory
/// digests) atomically to disk. A killed fit resumed from that snapshot
/// replays the deterministic search from the start; every previously-paid
/// evaluation hits the restored caches, so the replay costs surrogate math
/// only and the continuation is byte-identical to an uninterrupted run.
///
/// A session holds no table data itself; feature columns live in the
/// evaluator's byte-capped feature cache, and evicted columns re-materialize
/// through the planner's memoized compile step.

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/feature_eval.h"

namespace featlib {

class CheckpointWriter;  // core/checkpoint.h

/// Search stages the session attributes evaluation work to.
enum class SearchStage {
  kQti,         // template-identification node scoring
  kWarmup,      // proxy round + top-k promotion of one template's search
  kGeneration,  // real-metric round of one template's search
  kOther,       // anything outside the three named stages
};

const char* SearchStageToString(SearchStage stage);

/// \brief One Fit run's shared search state. Not thread-safe; one search
/// drives it from one thread (its pooled evaluations parallelize internally
/// through FeatureEvaluator::ScoreEach and the evaluator's planner).
class SearchSession {
 public:
  explicit SearchSession(FeatureEvaluator* evaluator) : evaluator_(evaluator) {}

  /// Evaluation work attributed to one stage. "evals" count distinct
  /// computations at the evaluator (cache hits excluded); "cache_hits"
  /// count pool members served from the session caches.
  struct StageCounters {
    size_t proxy_evals = 0;
    size_t model_evals = 0;
    size_t proxy_cache_hits = 0;
    size_t model_cache_hits = 0;
  };

  /// Routes subsequent counter accrual to `stage`.
  void BeginStage(SearchStage stage) { stage_ = stage; }
  SearchStage current_stage() const { return stage_; }
  const StageCounters& stage(SearchStage s) const {
    return counters_[StageIndex(s)];
  }

  /// Result of one real-model evaluation (metric per the evaluator's
  /// MetricKind; loss in the minimize convention).
  struct ModelOutcome {
    double metric = 0.0;
    double loss = 0.0;
  };

  /// Proxy scores of a pool, in pool order. Uncached members are scored in
  /// one FeatureEvaluator::ScoreEach batch; results are cached by (proxy
  /// kind, query content key). Duplicates in the pool are scored once.
  /// When `keys` is non-null it receives each member's content key
  /// (CacheKey) in pool order — the session computes them anyway, so
  /// callers deduplicating by key need not re-serialize.
  ///
  /// **Partial-failure isolation:** a member whose feature build or scoring
  /// fails is skipped-and-recorded (see failed_candidates()) and scores
  /// -infinity — strictly worse than any real proxy, and safe in the
  /// optimizers' sorts (never NaN). Only batch-fatal statuses (a tripped
  /// ExecContext: kCancelled / kDeadlineExceeded / kResourceExhausted) fail
  /// the call. Failures are never cached; a later pool re-attempts them.
  Result<std::vector<double>> ProxyScores(const std::vector<AggQuery>& pool,
                                          ProxyKind proxy,
                                          std::vector<std::string>* keys = nullptr);

  /// Real-model outcomes of a pool, in pool order. Uncached members share
  /// one ScoreEach batch; each distinct member pays exactly one model
  /// training, cached by query content key (TrainAndScore is deterministic
  /// by seed).
  /// `keys` as in ProxyScores. Failed members are skipped-and-recorded with
  /// outcome {metric = NaN, loss = +infinity} — the loss convention keeps
  /// loss-ascending sorts a strict weak order; batch-fatal statuses as in
  /// ProxyScores.
  Result<std::vector<ModelOutcome>> ModelScores(
      const std::vector<AggQuery>& pool,
      std::vector<std::string>* keys = nullptr);

  /// Reduced-fidelity losses of a rung pool (Hyperband/BOHB), in pool
  /// order. One ScoreEach batch for the pool; per-member subsample
  /// trainings are never cached (see file comment), so in-pool duplicates
  /// train again. Failed members are skipped-and-recorded with loss
  /// +infinity (never promoted by successive halving); batch-fatal
  /// statuses as in ProxyScores.
  Result<std::vector<double>> FidelityLosses(const std::vector<AggQuery>& pool,
                                             double fidelity);

  /// One candidate the session skipped instead of failing its batch:
  /// content key (AggQuery::CacheKey) plus the Status that sank it.
  struct FailedCandidate {
    std::string key;
    Status status;
  };

  /// Every distinct candidate (by content key) skipped-and-recorded so far,
  /// in first-failure order. Flows into GenerationResult / FitDiagnostics.
  const std::vector<FailedCandidate>& failed_candidates() const {
    return failures_;
  }

  FeatureEvaluator* evaluator() { return evaluator_; }
  const FeatureEvaluator* evaluator() const { return evaluator_; }

  /// \name Durable fit: snapshot / restore / checkpoint hooks.
  /// @{

  /// The serializable replay state of a session, in deterministic (sorted)
  /// order. What a CheckpointWriter persists and a resumed fit restores.
  struct Snapshot {
    /// "<proxy>|<query CacheKey>" -> score, sorted by key.
    std::vector<std::pair<std::string, double>> proxy;
    /// query CacheKey -> outcome, sorted by key.
    std::vector<std::pair<std::string, ModelOutcome>> model;
    /// "<fidelity bits as 16 hex>|<query CacheKey>" -> loss, sorted by key.
    std::vector<std::pair<std::string, double>> fidelity;
    /// Skipped candidates in first-failure order (order is part of
    /// FitDiagnostics, so it is preserved, not sorted).
    struct FailureEntry {
      int code = 0;
      std::string message;
      std::string key;
    };
    std::vector<FailureEntry> failures;
    /// Trajectory digests (label -> CRC32 of optimizer observation state),
    /// sorted by label. A restored digest that differs on replay means the
    /// checkpoint belongs to a different trajectory — a typed kDataLoss.
    std::vector<std::pair<std::string, uint32_t>> digests;
  };

  /// Deterministic export of the current replay state.
  Snapshot ExportSnapshot() const;

  /// Restores a snapshot into the session: score caches merge in, fidelity
  /// entries become the replay cache, failures seed the dedup ledger,
  /// digests arm divergence detection. Call before the search starts.
  void RestoreSnapshot(const Snapshot& snapshot);

  /// Attaches a checkpoint writer (not owned; may be null). Every scoring
  /// call then ends with a round boundary: the writer decides whether to
  /// snapshot, and the "checkpoint.kill" fault site fires for crash sweeps.
  void set_checkpoint(CheckpointWriter* checkpoint) { checkpoint_ = checkpoint; }
  CheckpointWriter* checkpoint() { return checkpoint_; }

  /// Forces a snapshot now (template/QTI completion). No-op without a
  /// writer.
  Status CheckpointNow();

  /// Records the CRC32 digest of one search unit's optimizer observation
  /// state under `label`. Against a restored checkpoint, a differing digest
  /// for the same label fails with kDataLoss ("checkpoint divergence")
  /// instead of silently emitting a different plan.
  Status RecordTrajectoryDigest(const std::string& label, uint32_t crc);

  /// Monotone revision of the mutable replay state; a CheckpointWriter
  /// skips snapshots when nothing changed since the last write.
  uint64_t revision() const { return revision_; }
  /// @}

  /// \name Session-cache introspection (tests and benches).
  /// @{
  size_t proxy_cache_size() const { return proxy_cache_.size(); }
  size_t model_cache_size() const { return model_cache_.size(); }
  size_t fidelity_replay_size() const { return fidelity_replay_.size(); }
  /// @}

 private:
  static size_t StageIndex(SearchStage s) { return static_cast<size_t>(s); }
  StageCounters& current() { return counters_[StageIndex(stage_)]; }

  /// Records a skipped candidate (deduplicated by content key).
  void RecordFailure(std::string key, const Status& status);

  /// End-of-scoring-call hook: lets the attached CheckpointWriter snapshot
  /// and fires the crash-sweep kill site. No-op without a writer.
  Status RoundBoundary();

  FeatureEvaluator* evaluator_;
  SearchStage stage_ = SearchStage::kOther;
  StageCounters counters_[4];
  /// "<proxy>|<query CacheKey>" -> proxy score.
  std::unordered_map<std::string, double> proxy_cache_;
  /// query CacheKey -> (metric, loss).
  std::unordered_map<std::string, ModelOutcome> model_cache_;
  std::vector<FailedCandidate> failures_;
  std::unordered_set<std::string> failed_keys_;  // dedups failures_
  /// Fidelity losses restored from a checkpoint: consulted before paying a
  /// rung training on resume. Never written within a run (see file comment).
  std::unordered_map<std::string, double> fidelity_replay_;
  /// Fidelity losses computed this run: logged for the next checkpoint,
  /// never consulted (within-run repeats recompute, keeping the cost ledger
  /// byte-compatible with the non-checkpointed pipeline).
  std::unordered_map<std::string, double> fidelity_log_;
  /// label -> digest recorded this run / restored from the checkpoint.
  std::unordered_map<std::string, uint32_t> digests_;
  std::unordered_map<std::string, uint32_t> restored_digests_;
  CheckpointWriter* checkpoint_ = nullptr;
  uint64_t revision_ = 0;
};

}  // namespace featlib
