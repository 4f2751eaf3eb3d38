#pragma once

/// \file feataug.h
/// \brief End-to-end FeatAug (Fig. 2): optional Query Template
/// Identification, then SQL Query Generation per selected template, yielding
/// an augmentation plan of predicate-aware queries that a FittedAugmenter
/// (MakeFitted) joins onto the training table.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/feature_eval.h"
#include "core/generator.h"
#include "core/template_id.h"

namespace featlib {

class FittedAugmenter;  // core/augmenter.h

struct FeatAugOptions {
  /// Number of promising templates used (paper default 8).
  int n_templates = 8;
  /// Queries kept per template's pool (paper default 5; 8 x 5 = 40 features).
  int queries_per_template = 5;
  /// Disable for the NoQTI ablation: a single template built from all
  /// candidate WHERE attributes is used instead.
  bool enable_qti = true;
  /// Disable for the NoWU ablation (see GeneratorOptions::enable_warmup).
  bool enable_warmup = true;
  ProxyKind proxy = ProxyKind::kMutualInformation;
  GeneratorOptions generator;
  TemplateIdOptions qti;
  EvaluatorOptions evaluator;
  uint64_t seed = 42;
  /// Durable fit (core/checkpoint.h): when `dir` is set, the search
  /// snapshots its session state to "<dir>/fit.ckpt" (or "fit_<tag>.ckpt")
  /// at round boundaries, atomically and checksummed. With `resume` a fit
  /// killed at any point restarts from the freshest checkpoint and — by
  /// replaying the deterministic search against the restored evaluation
  /// caches — produces a plan byte-identical to an uninterrupted run. A
  /// checkpoint written by a different fit (seed, options, or problem
  /// schema) is refused with kDataLoss rather than silently steering this
  /// one; a missing file is simply a fresh start.
  struct CheckpointConfig {
    /// Checkpoint directory; empty disables checkpointing. Must exist.
    std::string dir;
    /// Restore the existing checkpoint (if any) before searching.
    bool resume = false;
    /// Snapshot every N dirty round boundaries (completed search units
    /// always force one). Raise to trade durability for write volume.
    int every_rounds = 1;
    /// Distinguishes fits sharing `dir`; MultiTableFeatAug tags each
    /// per-table fit with the table name.
    std::string tag;
  };
  CheckpointConfig checkpoint;
  /// Cooperative execution limits for the whole Fit (deadline, cancellation,
  /// memory budget), checked at chunk/stage boundaries of every evaluation.
  /// Not owned; must outlive the Fit. A tripped context surfaces as
  /// kCancelled / kDeadlineExceeded / kResourceExhausted from Fit().
  const ExecContext* exec_context = nullptr;
};

/// \brief The fitted augmentation plan: an ordered list of queries plus
/// bookkeeping for the scalability experiments (Figs. 5, 7-9).
struct AugmentationPlan {
  std::vector<AggQuery> queries;
  std::vector<std::string> feature_names;
  std::vector<double> valid_metrics;  // per query, on the validation split
  double qti_seconds = 0.0;
  double warmup_seconds = 0.0;
  double generate_seconds = 0.0;
  size_t templates_considered = 0;
  size_t model_evals = 0;
  size_t proxy_evals = 0;
  /// Per-stage split of the totals above (SearchSession stage counters):
  /// QTI node scoring, warm-up rounds + top-k promotion, generation rounds.
  size_t qti_proxy_evals = 0;
  size_t qti_model_evals = 0;
  size_t warmup_proxy_evals = 0;
  size_t warmup_model_evals = 0;
  size_t generation_model_evals = 0;
  /// Proposals served from the fit-wide SearchSession score caches
  /// (repeat proposals within and across templates). A resumed fit's
  /// pre-crash evaluations reappear here: replay pays them from the
  /// restored caches, so the eval counters above cover only post-resume
  /// work while the hit counters absorb the history.
  size_t proxy_cache_hits = 0;
  size_t model_cache_hits = 0;
  /// Cumulative compile-memo counters of the fit's planner (candidate
  /// resolutions reused across HPO rounds vs derived fresh).
  size_t compile_cache_hits = 0;
  size_t compile_cache_misses = 0;
  /// Durable fit: snapshots persisted during this run, and whether the
  /// search started from a restored checkpoint.
  size_t checkpoints_written = 0;
  bool resumed_from_checkpoint = false;
  /// Candidates skipped by partial-failure isolation during the search
  /// (content key + the Status that sank each). Skipped candidates score
  /// worst-possible and never enter `queries`; a nonempty list is the signal
  /// that the plan was fitted around per-candidate failures.
  std::vector<SearchSession::FailedCandidate> failed_candidates;
};

/// \brief Problem inputs: tables, label, task and template ingredients.
struct FeatAugProblem {
  Table training;
  std::string label_col;
  /// D's own feature columns (excluded: label, FK columns).
  std::vector<std::string> base_feature_cols;
  Table relevant;
  TaskKind task = TaskKind::kBinaryClassification;
  /// Template ingredients (Table II): F, A, K and the candidate attr set.
  std::vector<AggFunction> agg_functions;
  std::vector<std::string> agg_attrs;
  std::vector<std::string> fk_attrs;
  std::vector<std::string> candidate_where_attrs;
};

/// Fit signature: CRC32 over everything that determines the search
/// trajectory — seed, search options, and problem schema (label, column
/// names, agg functions, attribute sets). A checkpoint stamps this into its
/// header and resume refuses a mismatch, so a checkpoint can never be
/// replayed into a fit it was not written by. Table *contents* are
/// deliberately excluded (hashing every cell would dwarf the snapshot
/// cost); callers mutating data between fit and resume are out of contract.
uint32_t FitSignature(const FeatAugProblem& problem,
                      const FeatAugOptions& options);

/// \brief FeatAug driver.
class FeatAug {
 public:
  FeatAug(FeatAugProblem problem, FeatAugOptions options);
  /// Frees the search caches and returns the freed heap to the OS.
  ~FeatAug();

  /// Runs QTI (unless disabled) + query generation; returns the plan.
  Result<AugmentationPlan> Fit();

  /// Fit() + MakeFitted(): the Augmenter-interface path. Runs the search
  /// and returns the long-lived, thread-safe serving handle.
  Result<std::unique_ptr<FittedAugmenter>> FitAugmenter();

  /// Wraps a plan (from Fit or plan_io) in a serving handle bound to this
  /// problem's relevant table. The per-group feature values are computed
  /// once here and reused by every Transform.
  Result<std::unique_ptr<FittedAugmenter>> MakeFitted(
      const AugmentationPlan& plan) const;

  /// The evaluator (valid after Fit); exposes split/test scoring.
  FeatureEvaluator* evaluator() {
    return evaluator_.has_value() ? &*evaluator_ : nullptr;
  }

 private:
  FeatAugProblem problem_;
  FeatAugOptions options_;
  std::optional<FeatureEvaluator> evaluator_;
};

}  // namespace featlib
