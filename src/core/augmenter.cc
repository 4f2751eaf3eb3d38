#include "core/augmenter.h"

#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/str_util.h"
#include "common/thread_pool.h"

namespace featlib {

Result<std::unique_ptr<FittedAugmenter>> FittedAugmenter::Create(
    std::vector<Source> sources, FitDiagnostics diagnostics) {
  std::unique_ptr<FittedAugmenter> out(new FittedAugmenter());
  out->diag_ = diagnostics;
  out->pool_ = GlobalThreadPool();
  // Plan-level name dedup: qualified names are unique across all sources
  // (suffix rule), so Transform's per-batch dedup only has to look at the
  // batch's own columns.
  std::unordered_set<std::string> used;
  for (Source& source : sources) {
    auto per = std::make_unique<PerSource>();
    per->src = std::move(source);
    Source& src = per->src;
    for (size_t i = 0; i < src.queries.size(); ++i) {
      std::string base =
          i < src.feature_names.size() && !src.feature_names[i].empty()
              ? src.feature_names[i]
              : StrFormat("feature_%zu", i);
      if (!src.name.empty()) base = src.name + "__" + base;
      const std::string unique = UniquifyName(
          base, [&](const std::string& n) { return used.count(n) > 0; });
      used.insert(unique);
      out->feature_names_.push_back(unique);
      out->valid_metrics_.push_back(
          i < src.valid_metrics.size() ? src.valid_metrics[i] : std::nan(""));
    }
    // The one aggregation: every feature's per-group values are computed
    // here and frozen into the plan, which owns all it reads but the
    // relevant table — so the compiling planner can die with this scope,
    // and serving is map + scatter, safe to share across threads.
    QueryPlanner planner;
    planner.set_thread_pool(GlobalThreadPool());
    FEAT_ASSIGN_OR_RETURN(
        per->serving, planner.CompileServingPlan(src.queries, src.relevant));
    out->sources_.push_back(std::move(per));
  }
  return std::move(out);
}

Result<Table> FittedAugmenter::TransformWith(const Table& batch,
                                             ThreadPool* pool,
                                             const ExecContext* ctx) const {
  Table out = batch;
  size_t f = 0;
  for (const auto& per : sources_) {
    FEAT_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> columns,
        ExecuteServingPlan(per->serving, batch, pool, ctx));
    for (size_t i = 0; i < columns.size(); ++i, ++f) {
      const std::string name =
          UniquifyName(feature_names_[f],
                       [&](const std::string& n) { return out.HasColumn(n); });
      FEAT_RETURN_NOT_OK(out.AddColumn(name, Column::FromDoubles(columns[i])));
    }
  }
  return out;
}

Result<Table> FittedAugmenter::Transform(const Table& batch,
                                         const ExecContext* ctx) const {
  return TransformWith(batch, pool_, ctx);
}

Result<std::vector<FittedAugmenter::BatchResult>>
FittedAugmenter::TransformManyIsolated(const std::vector<Table>& batches,
                                       const ExecContext* ctx) const {
  std::vector<BatchResult> out(batches.size());
  // Across-batch fan-out with inline per-batch execution (ParallelFor does
  // not nest); each slot is written by exactly one task. With a single
  // batch (or no pool) the parallelism moves inside the batch instead.
  const bool fan_out_batches = pool_ != nullptr && batches.size() > 1;
  auto run_one = [&](size_t i) {
    auto transformed =
        TransformWith(batches[i], fan_out_batches ? nullptr : pool_, ctx);
    if (transformed.ok()) {
      out[i].table = std::move(transformed).ValueOrDie();
    } else {
      out[i].status = transformed.status();
    }
  };
  if (fan_out_batches) {
    FEAT_RETURN_NOT_OK(pool_->ParallelFor(batches.size(), run_one, 0, ctx));
  } else {
    for (size_t i = 0; i < batches.size(); ++i) {
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      run_one(i);
    }
  }
  // A tripped context inside a batch is batch-wide, not a per-slot defect:
  // the slots it reached carry the same kCancelled/kDeadlineExceeded/
  // kResourceExhausted status the caller asked for.
  for (const BatchResult& r : out) {
    if (!r.status.ok() && (r.status.code() == StatusCode::kCancelled ||
                           r.status.code() == StatusCode::kDeadlineExceeded ||
                           r.status.code() == StatusCode::kResourceExhausted)) {
      return r.status;
    }
  }
  return out;
}

Result<std::vector<Table>> FittedAugmenter::TransformMany(
    const std::vector<Table>& batches, const ExecContext* ctx) const {
  FEAT_ASSIGN_OR_RETURN(std::vector<BatchResult> results,
                        TransformManyIsolated(batches, ctx));
  std::vector<Table> out;
  out.reserve(results.size());
  for (BatchResult& r : results) {
    FEAT_RETURN_NOT_OK(r.status);
    out.push_back(std::move(r.table));
  }
  return out;
}

Result<std::vector<std::vector<double>>> FittedAugmenter::ComputeFeatureColumns(
    const Table& batch, const ExecContext* ctx) const {
  std::vector<std::vector<double>> out;
  out.reserve(feature_names_.size());
  for (const auto& per : sources_) {
    FEAT_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> columns,
        ExecuteServingPlan(per->serving, batch, pool_, ctx));
    for (auto& column : columns) out.push_back(std::move(column));
  }
  return out;
}

Result<Dataset> FittedAugmenter::TransformToDataset(
    const Table& batch, const std::string& label_col,
    const std::vector<std::string>& base_feature_cols, TaskKind task,
    const ExecContext* ctx) const {
  FEAT_ASSIGN_OR_RETURN(
      Dataset ds, Dataset::FromTable(batch, label_col, base_feature_cols, task));
  FEAT_ASSIGN_OR_RETURN(std::vector<std::vector<double>> columns,
                        ComputeFeatureColumns(batch, ctx));
  std::unordered_set<std::string> used(ds.feature_names.begin(),
                                       ds.feature_names.end());
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string name = UniquifyName(
        feature_names_[i], [&](const std::string& n) { return used.count(n) > 0; });
    used.insert(name);
    FEAT_RETURN_NOT_OK(ds.AddFeature(name, columns[i]));
  }
  return ds;
}

size_t FittedAugmenter::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& per : sources_) {
    const Table& relevant = per->src.relevant;
    const size_t rows = relevant.num_rows();
    for (size_t c = 0; c < relevant.num_columns(); ++c) {
      const Column& col = relevant.ColumnAt(c);
      bytes += rows;  // validity
      if (col.type() == DataType::kString) {
        bytes += rows * sizeof(int32_t);
        for (const std::string& s : col.dictionary()) bytes += s.size() + 16;
      } else {
        bytes += rows * 8;
      }
    }
    for (const auto& index : per->serving.group_indexes) {
      bytes += index->SizeBytes();
    }
    for (const std::vector<double>& values : per->serving.per_group_features) {
      bytes += values.capacity() * sizeof(double);
    }
  }
  return bytes;
}

std::vector<AggQuery> FittedAugmenter::AllQueries() const {
  std::vector<AggQuery> out;
  out.reserve(feature_names_.size());
  for (const auto& per : sources_) {
    out.insert(out.end(), per->src.queries.begin(), per->src.queries.end());
  }
  return out;
}

Result<std::unique_ptr<FittedAugmenter>> MakeFittedAugmenter(
    AugmentationPlan plan, Table relevant) {
  FittedAugmenter::Source source;
  source.relevant = std::move(relevant);
  source.queries = std::move(plan.queries);
  source.feature_names = std::move(plan.feature_names);
  source.valid_metrics = std::move(plan.valid_metrics);
  FitDiagnostics diag;
  diag.qti_seconds = plan.qti_seconds;
  diag.warmup_seconds = plan.warmup_seconds;
  diag.generate_seconds = plan.generate_seconds;
  diag.templates_considered = plan.templates_considered;
  diag.model_evals = plan.model_evals;
  diag.proxy_evals = plan.proxy_evals;
  diag.qti_proxy_evals = plan.qti_proxy_evals;
  diag.qti_model_evals = plan.qti_model_evals;
  diag.warmup_proxy_evals = plan.warmup_proxy_evals;
  diag.warmup_model_evals = plan.warmup_model_evals;
  diag.generation_model_evals = plan.generation_model_evals;
  diag.proxy_cache_hits = plan.proxy_cache_hits;
  diag.model_cache_hits = plan.model_cache_hits;
  diag.compile_cache_hits = plan.compile_cache_hits;
  diag.compile_cache_misses = plan.compile_cache_misses;
  diag.failed_candidates = std::move(plan.failed_candidates);
  std::vector<FittedAugmenter::Source> sources;
  sources.push_back(std::move(source));
  return FittedAugmenter::Create(std::move(sources), diag);
}

namespace {

class FeatAugAdapter final : public Augmenter {
 public:
  FeatAugAdapter(FeatAugProblem problem, FeatAugOptions options)
      : impl_(std::move(problem), std::move(options)) {}
  const char* name() const override { return "feataug"; }
  Result<std::unique_ptr<FittedAugmenter>> Fit() override {
    return impl_.FitAugmenter();
  }
  FeatureEvaluator* evaluator() override { return impl_.evaluator(); }

 private:
  FeatAug impl_;
};

class MultiTableAdapter final : public Augmenter {
 public:
  MultiTableAdapter(MultiTableProblem problem, MultiTableOptions options)
      : impl_(std::move(problem), std::move(options)) {}
  const char* name() const override { return "multi_table"; }
  Result<std::unique_ptr<FittedAugmenter>> Fit() override {
    return impl_.FitAugmenter();
  }

 private:
  MultiTableFeatAug impl_;
};

}  // namespace

std::unique_ptr<Augmenter> MakeFeatAugAugmenter(FeatAugProblem problem,
                                                FeatAugOptions options) {
  return std::make_unique<FeatAugAdapter>(std::move(problem),
                                          std::move(options));
}

std::unique_ptr<Augmenter> MakeMultiTableAugmenter(MultiTableProblem problem,
                                                   MultiTableOptions options) {
  return std::make_unique<MultiTableAdapter>(std::move(problem),
                                             std::move(options));
}

}  // namespace featlib
