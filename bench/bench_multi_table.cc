/// \file bench_multi_table.cc
/// \brief Extension bench for the §III reductions: the "multiple relevant
/// tables" scenario and the deep-layer flatten, on the normalized
/// Instacart-style schema of data/multi_table_data.h.
///
/// Section 1 — budget allocation across two fact tables at a fixed total
/// feature budget: order_items only, browse_log only, both with an equal
/// split, both proxy-weighted. Expected shape: the facts carry
/// complementary signals (the predicate-gated price signal vs the
/// browse-count signal), so both-table runs track or beat the better
/// single table and hedge against committing to the wrong one;
/// order_items-only is high-variance because everything hinges on one
/// compound-predicate discovery. Proxy weighting is at or above the equal
/// split.
///
/// Section 2 — deep-layer necessity: FeatAug on the *raw* order_items fact
/// (no dimension columns) vs the flattened chain. Expected shape: the
/// flattened run wins decisively, because the golden predicate needs the
/// `department` attribute that only exists two lookups away.

#include <cstdio>

#include "bench/harness.h"
#include "common/str_util.h"
#include "core/augmenter.h"
#include "core/multi_table.h"
#include "data/multi_table_data.h"
#include "ml/evaluator.h"

namespace featlib {
namespace bench {
namespace {

/// Held-out test metric of base + plan features, 0.6/0.2/0.2 split.
Result<double> TestMetric(const Table& augmented, const std::string& label_col,
                          uint64_t seed) {
  std::vector<std::string> feature_cols;
  for (size_t c = 0; c < augmented.num_columns(); ++c) {
    const std::string& name = augmented.NameAt(c);
    if (name == label_col || name == "user_id") continue;
    feature_cols.push_back(name);
  }
  FEAT_ASSIGN_OR_RETURN(Dataset ds,
                        Dataset::FromTable(augmented, label_col, feature_cols,
                                           TaskKind::kBinaryClassification));
  const SplitIndices split = MakeSplit(augmented.num_rows(), 0.6, 0.2, 7);
  return TrainAndScore(ModelKind::kLogisticRegression, ds.GatherRows(split.train),
                       ds.GatherRows(split.test), MetricKind::kAuc, seed);
}

MultiTableOptions MakeOptions(const BenchConfig& config, int total_features) {
  MultiTableOptions options;
  options.total_features = total_features;
  options.queries_per_template = 4;
  // Paper-like search budgets (§V.C defaults): the planted compound
  // predicate sits in a ~10^4-query pool, so a thin warm-up mostly misses.
  options.per_table.generator.warmup_iterations = config.fast ? 30 : 200;
  options.per_table.generator.warmup_top_k = config.fast ? 6 : 15;
  options.per_table.generator.generation_iterations = config.fast ? 8 : 25;
  options.per_table.qti.beam_width = 2;
  options.per_table.qti.max_depth = 2;
  options.per_table.qti.node_iterations = config.fast ? 8 : 30;
  options.per_table.evaluator.model = ModelKind::kLogisticRegression;
  options.per_table.evaluator.metric = MetricKind::kAuc;
  options.seed = config.seed;
  return options;
}

Result<double> RunVariant(const BenchConfig& config, const MultiTableBundle& bundle,
                          const MultiTableProblem& problem_template,
                          BudgetAllocation allocation,
                          const std::string& only_table, int total_features,
                          uint64_t seed_offset) {
  MultiTableProblem problem = problem_template;
  if (!only_table.empty()) {
    std::vector<RelevantInput> keep;
    for (const RelevantInput& input : problem.relevants) {
      if (input.name == only_table) keep.push_back(input);
    }
    problem.relevants = std::move(keep);
  }
  MultiTableOptions options = MakeOptions(config, total_features);
  options.allocation = allocation;
  options.seed = config.seed + seed_offset;
  const Table training = problem.training;
  MultiTableFeatAug feataug(std::move(problem), options);
  FEAT_ASSIGN_OR_RETURN(MultiTablePlan plan, feataug.Fit());
  FEAT_ASSIGN_OR_RETURN(std::unique_ptr<FittedAugmenter> fitted,
                        feataug.MakeFitted(plan));
  FEAT_ASSIGN_OR_RETURN(Table augmented, fitted->Transform(training));
  return TestMetric(augmented, bundle.label_col, config.seed);
}

int Run(const BenchConfig& config) {
  const int total_features = config.fast ? 8 : 16;
  const int repeats = std::max(config.fast ? 1 : 2, config.repeats);
  std::printf("Multi-table reductions (extension; §III)\n");
  std::printf("rows=%zu features=%d repeats=%d\n\n", config.rows, total_features,
              repeats);

  // ---- Section 1: allocation across the two fact tables. ----
  struct Variant {
    const char* label;
    BudgetAllocation allocation;
    const char* only_table;
  };
  const Variant variants[] = {
      {"order_items only", BudgetAllocation::kEqual, "order_items"},
      {"browse_log only", BudgetAllocation::kEqual, "browse_log"},
      {"both, equal split", BudgetAllocation::kEqual, ""},
      {"both, proxy-weighted", BudgetAllocation::kProxyWeighted, ""},
  };
  PrintHeader("Multi-table allocation (test AUC, equal total budget)");
  PrintRow("variant", {"AUC"});
  for (const Variant& variant : variants) {
    double sum = 0.0;
    for (int r = 0; r < repeats; ++r) {
      SyntheticOptions data_options;
      data_options.n_train = config.rows;
      data_options.avg_logs_per_entity = config.logs_per_entity;
      data_options.seed = config.seed + 13 * static_cast<uint64_t>(r);
      const MultiTableBundle bundle = MakeInstacartMultiTable(data_options);
      auto graph = bundle.BuildGraph();
      if (!graph.ok()) return 1;
      auto problem = MultiTableProblem::FromGraph(
          graph.value(), "training", "label", TaskKind::kBinaryClassification);
      if (!problem.ok()) return 1;
      auto metric = RunVariant(config, bundle, problem.value(),
                               variant.allocation, variant.only_table,
                               total_features, 101 * static_cast<uint64_t>(r));
      if (!metric.ok()) {
        std::fprintf(stderr, "%s: %s\n", variant.label,
                     metric.status().ToString().c_str());
        return 1;
      }
      sum += metric.value();
    }
    PrintRow(variant.label, {FormatMetric(sum / repeats)});
  }

  // ---- Section 2: deep-layer flatten vs raw fact table. ----
  PrintHeader("Deep-layer flatten (test AUC)");
  PrintRow("relevant table", {"AUC"});
  for (const bool flatten : {false, true}) {
    double sum = 0.0;
    for (int r = 0; r < repeats; ++r) {
      SyntheticOptions data_options;
      data_options.n_train = config.rows;
      data_options.avg_logs_per_entity = config.logs_per_entity;
      data_options.seed = config.seed + 13 * static_cast<uint64_t>(r);
      const MultiTableBundle bundle = MakeInstacartMultiTable(data_options);

      Table relevant = bundle.order_items;
      if (flatten) {
        auto graph = bundle.BuildGraph();
        if (!graph.ok()) return 1;
        auto flat = graph.value().FlattenRelevant("order_items");
        if (!flat.ok()) return 1;
        relevant = std::move(flat).ValueOrDie();
      }

      FeatAugProblem problem;
      problem.training = bundle.training;
      problem.label_col = bundle.label_col;
      problem.base_feature_cols = bundle.base_features;
      problem.relevant = relevant;
      problem.task = bundle.task;
      problem.agg_functions = AllAggFunctions();
      problem.fk_attrs = bundle.fk_attrs;
      TemplateIngredients inferred =
          InferTemplateIngredients(relevant, bundle.fk_attrs);
      problem.agg_attrs = inferred.agg_attrs;
      problem.candidate_where_attrs = inferred.where_candidates;

      MultiTableOptions shared = MakeOptions(config, total_features);
      FeatAugOptions options = shared.per_table;
      options.n_templates = std::max(1, total_features / 4);
      options.queries_per_template = 4;
      options.seed = config.seed + 101 * static_cast<uint64_t>(r);
      const Table training = problem.training;
      FeatAug feataug(std::move(problem), options);
      auto plan = feataug.Fit();
      if (!plan.ok()) return 1;
      auto fitted = feataug.MakeFitted(plan.value());
      if (!fitted.ok()) return 1;
      auto augmented = fitted.value()->Transform(training);
      if (!augmented.ok()) return 1;
      auto metric = TestMetric(augmented.value(), bundle.label_col, config.seed);
      if (!metric.ok()) return 1;
      sum += metric.value();
    }
    PrintRow(flatten ? "flattened chain" : "raw fact (no dims)",
             {FormatMetric(sum / repeats)});
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace featlib

int main(int argc, char** argv) {
  featlib::bench::BenchConfig config;
  if (!featlib::bench::ParseBenchArgs(argc, argv, &config)) return 2;
  return featlib::bench::Run(config);
}
