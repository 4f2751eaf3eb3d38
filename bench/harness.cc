#include "bench/harness.h"

#include <cstdio>
#include <cstring>

#include "common/str_util.h"

namespace featlib {
namespace bench {

bool ParseBenchArgs(int argc, char** argv, BenchConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--rows=")) {
      config->rows = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--logs=")) {
      config->logs_per_entity = std::atof(v);
    } else if (const char* v = value_of("--repeats=")) {
      config->repeats = std::atoi(v);
    } else if (const char* v = value_of("--seed=")) {
      config->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value_of("--features=")) {
      config->n_features = std::atoi(v);
    } else if (arg == "--fast") {
      config->fast = true;
    } else if (const char* v = value_of("--datasets=")) {
      config->datasets = StrSplit(v, ',');
    } else if (const char* v = value_of("--models=")) {
      config->models.clear();
      for (const auto& name : StrSplit(v, ',')) {
        auto kind = ParseModelKind(name);
        if (!kind.ok()) {
          std::fprintf(stderr, "unknown model: %s\n", name.c_str());
          return false;
        }
        config->models.push_back(kind.value());
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rows=N] [--logs=X] [--repeats=N] [--seed=N]\n"
                   "          [--features=N] [--fast] [--datasets=a,b]\n"
                   "          [--models=LR,XGB,RF,DeepFM]\n"
                   "  --fast  smoke mode: at most 700 rows and a trimmed\n"
                   "          search. Every method scores near AUC 0.5 there,\n"
                   "          so it checks that a run completes, not the\n"
                   "          paper's result.\n",
                   argv[0]);
      return false;
    }
  }
  if (config->fast) {
    config->rows = std::min<size_t>(config->rows, 700);
    config->logs_per_entity = std::min(config->logs_per_entity, 8.0);
    config->n_features = std::min(config->n_features, 9);
  }
  return true;
}

MethodBudget MakeBudget(const BenchConfig& config, ModelKind model) {
  MethodBudget budget;
  budget.queries_per_template = 5;
  budget.n_templates =
      std::max(1, (config.n_features + budget.queries_per_template - 1) /
                      budget.queries_per_template);
  budget.warmup_iterations = 200;  // paper's warm-up budget; proxy evals are cheap
  if (config.fast) {
    budget.warmup_iterations = 40;
    budget.warmup_top_k = 6;
    budget.generation_iterations = 10;
    budget.qti_node_iterations = 10;
    budget.qti_max_depth = 2;
    budget.selector.max_wrapper_steps = 3;
    budget.autofeature_budget = 10;
  }
  // The deep model dominates runtime inside the search loop; trim the
  // model-evaluated budget (the proxy warm-up stays full size).
  if (model == ModelKind::kDeepFm) {
    budget.warmup_top_k = std::max(3, budget.warmup_top_k / 2);
    budget.generation_iterations = std::max(5, budget.generation_iterations / 2);
    budget.selector.max_wrapper_steps =
        std::max<size_t>(2, budget.selector.max_wrapper_steps / 3);
    budget.autofeature_budget = std::max(5, budget.autofeature_budget / 3);
  }
  return budget;
}

EvaluatorOptions MakeEvaluatorOptions(const DatasetBundle& bundle,
                                      ModelKind model, uint64_t seed) {
  EvaluatorOptions options;
  options.model = model;
  options.metric = DefaultMetricFor(bundle.task);
  options.split_seed = seed;
  options.model_seed = seed + 1;
  return options;
}

Result<FeatureEvaluator> MakeEvaluator(const DatasetBundle& bundle,
                                       ModelKind model, uint64_t seed) {
  return FeatureEvaluator::Create(bundle.training, bundle.label_col,
                                  bundle.base_features, bundle.relevant,
                                  bundle.task,
                                  MakeEvaluatorOptions(bundle, model, seed));
}

Result<CellResult> RunAugmenterCell(Augmenter* augmenter) {
  FEAT_ASSIGN_OR_RETURN(std::unique_ptr<FittedAugmenter> fitted,
                        augmenter->Fit());
  CellResult cell;
  FeatureEvaluator* evaluator = augmenter->evaluator();
  if (evaluator == nullptr) {
    return Status::Internal("augmenter exposes no evaluator for test scoring");
  }
  FEAT_ASSIGN_OR_RETURN(cell.metric, evaluator->TestScore(fitted->AllQueries()));
  const FitDiagnostics& diag = fitted->diagnostics();
  cell.qti_seconds = diag.qti_seconds;
  cell.warmup_seconds = diag.warmup_seconds;
  cell.generate_seconds = diag.generate_seconds;
  cell.n_features = fitted->num_features();
  cell.failed_candidates = diag.failed_candidates.size();
  if (cell.failed_candidates > 0) {
    // Loud, not fatal: the fit is still valid (isolation skipped the failed
    // candidates), but the cell explored a smaller space than its peers.
    std::fprintf(stderr,
                 "WARNING: %s fit skipped %zu failed candidate(s); first: %s\n",
                 augmenter->name(), cell.failed_candidates,
                 diag.failed_candidates.front().status.ToString().c_str());
  }
  return cell;
}

Result<CellResult> RunFeatAug(const DatasetBundle& bundle, ModelKind model,
                              FeatAugVariant variant, ProxyKind proxy,
                              const MethodBudget& budget, uint64_t seed) {
  FeatAugOptions options;
  options.n_templates = budget.n_templates;
  options.queries_per_template = budget.queries_per_template;
  options.enable_qti = variant != FeatAugVariant::kNoQti;
  options.enable_warmup = variant != FeatAugVariant::kNoWarmup;
  options.proxy = proxy;
  options.generator.warmup_iterations = budget.warmup_iterations;
  options.generator.warmup_top_k = budget.warmup_top_k;
  options.generator.generation_iterations = budget.generation_iterations;
  options.qti.node_iterations = budget.qti_node_iterations;
  options.qti.beam_width = budget.qti_beam_width;
  options.qti.max_depth = budget.qti_max_depth;
  options.evaluator.model = model;
  options.evaluator.metric = DefaultMetricFor(bundle.task);
  options.evaluator.split_seed = seed;
  options.evaluator.model_seed = seed + 1;
  options.seed = seed;

  std::unique_ptr<Augmenter> augmenter =
      MakeFeatAugAugmenter(bundle.ToProblem(), options);
  return RunAugmenterCell(augmenter.get());
}

Result<CellResult> RunFeaturetools(const DatasetBundle& bundle, ModelKind model,
                                   SelectorKind selector, const MethodBudget& budget,
                                   int n_features, uint64_t seed) {
  std::unique_ptr<Augmenter> augmenter = MakeFeaturetoolsAugmenter(
      bundle.ToProblem(), static_cast<size_t>(n_features), selector,
      budget.selector, MakeEvaluatorOptions(bundle, model, seed));
  return RunAugmenterCell(augmenter.get());
}

Result<CellResult> RunRandom(const DatasetBundle& bundle, ModelKind model,
                             const MethodBudget& budget, int n_features,
                             uint64_t seed) {
  RandomAugOptions options;
  options.n_templates = budget.n_templates;
  options.queries_per_template =
      (n_features + budget.n_templates - 1) / budget.n_templates;
  options.seed = seed;
  std::unique_ptr<Augmenter> augmenter = MakeRandomAugmenter(
      bundle.ToProblem(), options, static_cast<size_t>(n_features),
      MakeEvaluatorOptions(bundle, model, seed));
  return RunAugmenterCell(augmenter.get());
}

namespace {

// One identity query per aggregable attribute: the feature space ARDA and
// AutoFeature search over for one-to-one relationship tables.
std::vector<AggQuery> IdentityCandidates(const DatasetBundle& bundle) {
  std::vector<AggQuery> out;
  for (const auto& attr : bundle.agg_attrs) {
    AggQuery q;
    q.agg = AggFunction::kAvg;
    q.agg_attr = attr;
    q.group_keys = bundle.fk_attrs;
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

Result<CellResult> RunArda(const DatasetBundle& bundle, ModelKind model,
                           int n_features, uint64_t seed) {
  ArdaOptions options;
  options.seed = seed;
  std::unique_ptr<Augmenter> augmenter = MakeArdaAugmenter(
      bundle.ToProblem(), static_cast<size_t>(n_features), options,
      IdentityCandidates(bundle), MakeEvaluatorOptions(bundle, model, seed));
  return RunAugmenterCell(augmenter.get());
}

Result<CellResult> RunAutoFeature(const DatasetBundle& bundle, ModelKind model,
                                  AutoFeaturePolicy policy, int n_features,
                                  const MethodBudget& budget, uint64_t seed) {
  AutoFeatureOptions options;
  options.policy = policy;
  options.budget = budget.autofeature_budget;
  options.seed = seed;
  std::unique_ptr<Augmenter> augmenter = MakeAutoFeatureAugmenter(
      bundle.ToProblem(), static_cast<size_t>(n_features), options,
      IdentityCandidates(bundle), MakeEvaluatorOptions(bundle, model, seed));
  return RunAugmenterCell(augmenter.get());
}

double MeanMetric(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::string& label, const std::vector<std::string>& cells) {
  std::printf("%-16s", label.c_str());
  for (const auto& cell : cells) std::printf(" %12s", cell.c_str());
  std::printf("\n");
}

std::string FormatMetric(double value) { return StrFormat("%.4f", value); }

Result<ModelKind> ParseModelKind(const std::string& name) {
  const std::string upper = [&] {
    std::string s = name;
    for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
  }();
  if (upper == "LR") return ModelKind::kLogisticRegression;
  if (upper == "XGB") return ModelKind::kXgb;
  if (upper == "RF") return ModelKind::kRandomForest;
  if (upper == "DEEPFM") return ModelKind::kDeepFm;
  return Status::InvalidArgument("unknown model: " + name);
}

const char* MetricNameFor(const DatasetBundle& bundle) {
  return MetricKindToString(DefaultMetricFor(bundle.task));
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

JsonRecord& JsonRecord::Add(const std::string& key, double value) {
  fields_.emplace_back(key, StrFormat("%.9g", value));
  return *this;
}

JsonRecord& JsonRecord::Add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

JsonRecord& JsonRecord::Add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string JsonRecord::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "}";
  return out;
}

Status JsonRecord::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const std::string body = ToString() + "\n";
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<DatasetBundle> MakeBundle(const std::string& name, const BenchConfig& config,
                                 uint64_t seed_offset) {
  SyntheticOptions options;
  options.n_train = config.rows;
  options.avg_logs_per_entity = config.logs_per_entity;
  options.seed = config.seed + seed_offset;
  return MakeDatasetByName(name, options);
}

}  // namespace bench
}  // namespace featlib
