#include "core/feataug.h"

#include <algorithm>
#include <unordered_set>

#include "common/file_io.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/augmenter.h"
#include "core/checkpoint.h"
#include "query/query_planner.h"

namespace featlib {

namespace {

// Canonical text the fit signature hashes. Every field here changes the
// search trajectory (and therefore invalidates a checkpoint); hex double
// bits keep the encoding locale-independent and lossless.
void AppendField(std::string* out, const char* name, const std::string& v) {
  *out += name;
  *out += '=';
  *out += v;
  *out += '\n';
}
void AppendField(std::string* out, const char* name, uint64_t v) {
  AppendField(out, name, StrFormat("%llu", static_cast<unsigned long long>(v)));
}
void AppendField(std::string* out, const char* name, double v) {
  std::string hex;
  AppendDoubleBits(v, &hex);
  AppendField(out, name, hex);
}
void AppendField(std::string* out, const char* name,
                 const std::vector<std::string>& vs) {
  std::string joined;
  for (const std::string& v : vs) {
    joined += v;
    joined += '\x1f';
  }
  AppendField(out, name, joined);
}

}  // namespace

uint32_t FitSignature(const FeatAugProblem& problem,
                      const FeatAugOptions& options) {
  std::string canon;
  AppendField(&canon, "seed", options.seed);
  AppendField(&canon, "n_templates", static_cast<uint64_t>(options.n_templates));
  AppendField(&canon, "queries_per_template",
              static_cast<uint64_t>(options.queries_per_template));
  AppendField(&canon, "enable_qti", static_cast<uint64_t>(options.enable_qti));
  AppendField(&canon, "enable_warmup",
              static_cast<uint64_t>(options.enable_warmup));
  AppendField(&canon, "proxy", static_cast<uint64_t>(options.proxy));

  const GeneratorOptions& g = options.generator;
  AppendField(&canon, "gen.backend", static_cast<uint64_t>(g.backend));
  AppendField(&canon, "gen.warmup_iterations",
              static_cast<uint64_t>(g.warmup_iterations));
  AppendField(&canon, "gen.warmup_top_k", static_cast<uint64_t>(g.warmup_top_k));
  AppendField(&canon, "gen.generation_iterations",
              static_cast<uint64_t>(g.generation_iterations));
  AppendField(&canon, "gen.suggest_batch_size",
              static_cast<uint64_t>(g.suggest_batch_size));
  AppendField(&canon, "gen.tpe.gamma", g.tpe.gamma);
  AppendField(&canon, "gen.tpe.n_candidates",
              static_cast<uint64_t>(g.tpe.n_candidates));
  AppendField(&canon, "gen.tpe.n_startup", static_cast<uint64_t>(g.tpe.n_startup));
  AppendField(&canon, "gen.tpe.prior_weight", g.tpe.prior_weight);
  AppendField(&canon, "gen.tpe.exploration_fraction",
              g.tpe.exploration_fraction);
  AppendField(&canon, "gen.hb.eta", g.hyperband.eta);
  AppendField(&canon, "gen.hb.min_fidelity", g.hyperband.min_fidelity);
  AppendField(&canon, "gen.hb.random_fraction", g.hyperband.random_fraction);
  AppendField(&canon, "gen.hb.min_model_points",
              static_cast<uint64_t>(g.hyperband.min_model_points));

  const TemplateIdOptions& q = options.qti;
  AppendField(&canon, "qti.beam_width", static_cast<uint64_t>(q.beam_width));
  AppendField(&canon, "qti.max_depth", static_cast<uint64_t>(q.max_depth));
  AppendField(&canon, "qti.node_iterations",
              static_cast<uint64_t>(q.node_iterations));
  AppendField(&canon, "qti.suggest_batch_size",
              static_cast<uint64_t>(q.suggest_batch_size));
  AppendField(&canon, "qti.use_low_cost_proxy",
              static_cast<uint64_t>(q.use_low_cost_proxy));
  AppendField(&canon, "qti.use_predictor",
              static_cast<uint64_t>(q.use_predictor));
  AppendField(&canon, "qti.seed_from_parents",
              static_cast<uint64_t>(q.seed_from_parents));
  AppendField(&canon, "qti.seeds_per_node",
              static_cast<uint64_t>(q.seeds_per_node));

  const EvaluatorOptions& e = options.evaluator;
  AppendField(&canon, "eval.model", static_cast<uint64_t>(e.model));
  AppendField(&canon, "eval.metric", static_cast<uint64_t>(e.metric));
  AppendField(&canon, "eval.train_ratio", e.train_ratio);
  AppendField(&canon, "eval.valid_ratio", e.valid_ratio);
  AppendField(&canon, "eval.split_seed", e.split_seed);
  AppendField(&canon, "eval.model_seed", e.model_seed);

  AppendField(&canon, "problem.label", problem.label_col);
  AppendField(&canon, "problem.task", static_cast<uint64_t>(problem.task));
  AppendField(&canon, "problem.base_features", problem.base_feature_cols);
  std::vector<std::string> aggs;
  aggs.reserve(problem.agg_functions.size());
  for (AggFunction fn : problem.agg_functions) {
    aggs.push_back(AggFunctionName(fn));
  }
  AppendField(&canon, "problem.agg_functions", aggs);
  AppendField(&canon, "problem.agg_attrs", problem.agg_attrs);
  AppendField(&canon, "problem.fk_attrs", problem.fk_attrs);
  AppendField(&canon, "problem.where_attrs", problem.candidate_where_attrs);
  std::vector<std::string> schema;
  schema.reserve(problem.relevant.num_columns());
  for (size_t c = 0; c < problem.relevant.num_columns(); ++c) {
    schema.push_back(problem.relevant.NameAt(c));
  }
  AppendField(&canon, "problem.relevant_columns", schema);
  AppendField(&canon, "problem.relevant_rows",
              static_cast<uint64_t>(problem.relevant.num_rows()));
  AppendField(&canon, "problem.training_rows",
              static_cast<uint64_t>(problem.training.num_rows()));
  return Crc32(canon);
}

FeatAug::FeatAug(FeatAugProblem problem, FeatAugOptions options)
    : problem_(std::move(problem)), options_(std::move(options)) {}

Result<AugmentationPlan> FeatAug::Fit() {
  EvaluatorOptions eval_options = options_.evaluator;
  auto evaluator_result = FeatureEvaluator::Create(
      problem_.training, problem_.label_col, problem_.base_feature_cols,
      problem_.relevant, problem_.task, eval_options);
  if (!evaluator_result.ok()) return evaluator_result.status();
  evaluator_.emplace(std::move(evaluator_result).ValueOrDie());
  evaluator_->set_exec_context(options_.exec_context);

  AugmentationPlan plan;
  QueryTemplate base;
  base.agg_functions = problem_.agg_functions;
  base.agg_attrs = problem_.agg_attrs;
  base.fk_attrs = problem_.fk_attrs;
  FEAT_RETURN_NOT_OK(base.Validate(problem_.relevant));

  // One session spans the whole Fit: QTI nodes, warm-up rounds, and
  // generation rounds of every template share the proxy/model score caches
  // and accrue per-stage counters (template pools overlap heavily under
  // beam inheritance, so the cross-template reuse is substantial).
  SearchSession session(&*evaluator_);

  // ---- Durable fit: attach the checkpoint writer, restore on resume. ----
  // Resume is replay: the restored snapshot only refills the session's
  // content-keyed caches (plus the failure ledger and trajectory digests),
  // and the search below re-runs from the start. Already-paid evaluations
  // hit the caches, so replay costs surrogate/RNG arithmetic only and the
  // continuation is byte-identical to an uninterrupted same-seed run.
  std::unique_ptr<CheckpointWriter> checkpoint;
  bool resumed = false;
  if (!options_.checkpoint.dir.empty()) {
    const uint32_t signature = FitSignature(problem_, options_);
    const std::string path =
        options_.checkpoint.dir + "/" +
        (options_.checkpoint.tag.empty()
             ? std::string("fit.ckpt")
             : StrFormat("fit_%s.ckpt", options_.checkpoint.tag.c_str()));
    if (options_.checkpoint.resume) {
      Result<SearchSession::Snapshot> loaded = LoadCheckpoint(path, signature);
      if (loaded.ok()) {
        session.RestoreSnapshot(loaded.value());
        resumed = true;
      } else if (loaded.status().code() != StatusCode::kNotFound) {
        // Torn, bit-flipped, or foreign (signature-mismatched) checkpoint:
        // refuse loudly. Deleting the file is the operator's decision.
        return loaded.status();
      }
    }
    checkpoint = std::make_unique<CheckpointWriter>(
        path, signature, options_.checkpoint.every_rounds);
    session.set_checkpoint(checkpoint.get());
  }

  // ---- Stage 1: Query Template Identification (optional). ----
  std::vector<QueryTemplate> templates;
  if (options_.enable_qti && !problem_.candidate_where_attrs.empty()) {
    TemplateIdOptions qti_options = options_.qti;
    qti_options.n_templates = options_.n_templates;
    qti_options.proxy = options_.proxy;
    qti_options.seed = options_.seed;
    TemplateIdentifier identifier(&session, qti_options);
    FEAT_ASSIGN_OR_RETURN(TemplateIdResult qti,
                          identifier.Run(base, problem_.candidate_where_attrs));
    plan.qti_seconds = qti.seconds;
    for (auto& scored : qti.templates) templates.push_back(std::move(scored.tmpl));
  } else {
    // NoQTI: the single template formed by all provided attributes.
    QueryTemplate t = base;
    t.where_attrs = problem_.candidate_where_attrs;
    templates.push_back(std::move(t));
  }
  plan.templates_considered = templates.size();

  // ---- Stage 2: SQL Query Generation per template. ----
  GeneratorOptions gen_options = options_.generator;
  gen_options.enable_warmup = options_.enable_warmup;
  gen_options.proxy = options_.proxy;
  gen_options.n_queries = options_.queries_per_template;
  std::unordered_set<std::string> dedup;
  for (size_t t = 0; t < templates.size(); ++t) {
    gen_options.seed = options_.seed + 1000 * (t + 1);
    SqlQueryGenerator generator(&session, gen_options);
    FEAT_ASSIGN_OR_RETURN(GenerationResult gen, generator.Run(templates[t]));
    plan.warmup_seconds += gen.warmup_seconds;
    plan.generate_seconds += gen.generate_seconds;
    for (auto& gq : gen.queries) {
      if (!dedup.insert(gq.query.CacheKey()).second) continue;
      const size_t qi = plan.queries.size();
      plan.feature_names.push_back(
          StrFormat("feataug_%s_%s_t%zu_q%zu", AggFunctionName(gq.query.agg),
                    gq.query.agg_attr.c_str(), t, qi));
      plan.valid_metrics.push_back(gq.model_metric);
      plan.queries.push_back(std::move(gq.query));
    }
  }
  plan.model_evals = evaluator_->num_model_evals();
  plan.proxy_evals = evaluator_->num_proxy_evals();
  const SearchSession::StageCounters& qti_c = session.stage(SearchStage::kQti);
  const SearchSession::StageCounters& warm_c =
      session.stage(SearchStage::kWarmup);
  const SearchSession::StageCounters& gen_c =
      session.stage(SearchStage::kGeneration);
  plan.qti_proxy_evals = qti_c.proxy_evals;
  plan.qti_model_evals = qti_c.model_evals;
  plan.warmup_proxy_evals = warm_c.proxy_evals;
  plan.warmup_model_evals = warm_c.model_evals;
  plan.generation_model_evals = gen_c.model_evals;
  plan.proxy_cache_hits =
      qti_c.proxy_cache_hits + warm_c.proxy_cache_hits + gen_c.proxy_cache_hits;
  plan.model_cache_hits =
      qti_c.model_cache_hits + warm_c.model_cache_hits + gen_c.model_cache_hits;
  plan.failed_candidates = session.failed_candidates();
  plan.build_retries = evaluator_->planner().build_retries_total();
  plan.compile_cache_hits = evaluator_->planner().compile_cache_hits();
  plan.compile_cache_misses = evaluator_->planner().compile_cache_misses();
  plan.resumed_from_checkpoint = resumed;
  if (checkpoint != nullptr) {
    // The completed fit's state stays on disk (a no-op when the last
    // template's forced snapshot already wrote it): resuming a finished fit
    // is then a pure cache replay that re-emits the same plan. Flush makes
    // the background writer's freshest snapshot durable before returning,
    // so callers may read the checkpoint file immediately.
    FEAT_RETURN_NOT_OK(session.CheckpointNow());
    FEAT_RETURN_NOT_OK(checkpoint->Flush());
    plan.checkpoints_written = checkpoint->snapshots_written();
  }
  return plan;
}

Result<std::unique_ptr<FittedAugmenter>> FeatAug::FitAugmenter() {
  FEAT_ASSIGN_OR_RETURN(AugmentationPlan plan, Fit());
  return MakeFitted(plan);
}

Result<std::unique_ptr<FittedAugmenter>> FeatAug::MakeFitted(
    const AugmentationPlan& plan) const {
  return MakeFittedAugmenter(plan, problem_.relevant);
}

}  // namespace featlib
