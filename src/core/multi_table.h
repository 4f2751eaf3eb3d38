#pragma once

/// \file multi_table.h
/// \brief The "multiple relevant tables" scenario of §III: FeatAug run per
/// flattened relevant table, with the feature budget split across tables.
///
/// The paper reduces a schema with several relevant tables to several
/// (D, R) scenarios. MultiTableFeatAug owns that reduction end-to-end: it
/// infers missing template ingredients per table, allocates the total
/// feature budget (equally, or proportionally to a cheap per-table proxy
/// probe), fits one FeatAug per table, and merges the plans into a single
/// augmentation with table-qualified feature names.

#include <memory>
#include <string>
#include <vector>

#include "core/feataug.h"
#include "query/relation_graph.h"

namespace featlib {

/// Heuristically inferred (A, attr) template ingredients for one relevant
/// table (Table II's per-dataset configuration, derived from the schema).
struct TemplateIngredients {
  /// Aggregation attributes: non-FK numeric/bool columns.
  std::vector<std::string> agg_attrs;
  /// WHERE-clause candidates: non-FK columns, skipping string columns whose
  /// cardinality exceeds the cap (predicates on near-unique attributes
  /// carve out singleton groups and overfit).
  std::vector<std::string> where_candidates;
};

/// Infers ingredients from a relevant table's schema. `fk_attrs` are
/// excluded from both roles.
TemplateIngredients InferTemplateIngredients(
    const Table& relevant, const std::vector<std::string>& fk_attrs,
    size_t max_categorical_cardinality = 64);

/// One relevant table's inputs. Empty agg/where vectors are inferred; an
/// empty agg_functions defaults to all 15.
struct RelevantInput {
  std::string name;
  Table relevant;
  std::vector<std::string> fk_attrs;
  std::vector<AggFunction> agg_functions;
  std::vector<std::string> agg_attrs;
  std::vector<std::string> candidate_where_attrs;
};

/// Problem spec: one base table, several relevant tables.
struct MultiTableProblem {
  Table training;
  std::string label_col;
  std::vector<std::string> base_feature_cols;
  TaskKind task = TaskKind::kBinaryClassification;
  std::vector<RelevantInput> relevants;

  /// Builds the relevant inputs from a RelationGraph's scenarios for
  /// `base_name` (ingredients inferred per table).
  static Result<MultiTableProblem> FromGraph(const RelationGraph& graph,
                                             const std::string& base_name,
                                             const std::string& label_col,
                                             TaskKind task);
};

/// How the total feature budget is split across relevant tables.
enum class BudgetAllocation {
  /// total_features / n_tables each (remainder to the first tables).
  kEqual,
  /// Proportional to each table's best unpredicated-aggregate proxy score —
  /// a Featuretools-style probe (COUNT per FK plus AVG of each aggregation
  /// attribute) scored with the configured proxy. Tables whose logs carry
  /// no signal get the minimum share instead of wasting search budget.
  kProxyWeighted,
};

struct MultiTableOptions {
  /// Total features across all tables (paper default 40).
  int total_features = 40;
  /// Queries kept per template (paper default 5); per-table template counts
  /// are derived from the table's share.
  int queries_per_template = 5;
  BudgetAllocation allocation = BudgetAllocation::kEqual;
  /// Floor share per table under kProxyWeighted (features).
  int min_features_per_table = 5;
  /// Per-table FeatAug knobs (n_templates / queries_per_template are
  /// overwritten by the allocation).
  FeatAugOptions per_table;
  uint64_t seed = 42;
};

/// Merged result: per-table plans plus globally unique feature names.
struct MultiTablePlan {
  struct TablePlan {
    std::string name;
    AugmentationPlan plan;
    int budget_features = 0;
    double probe_score = 0.0;  // kProxyWeighted probe value (0 under kEqual)
  };
  std::vector<TablePlan> tables;
  /// Total features produced (== sum over tables of plan.queries.size()).
  size_t total_features = 0;
};

/// \brief FeatAug across several relevant tables.
class MultiTableFeatAug {
 public:
  MultiTableFeatAug(MultiTableProblem problem, MultiTableOptions options);

  /// Allocates the budget, fits one FeatAug per relevant table.
  Result<MultiTablePlan> Fit();

  /// Fit() + MakeFitted(): the Augmenter-interface path.
  Result<std::unique_ptr<FittedAugmenter>> FitAugmenter();

  /// Wraps a merged plan in a serving handle with one source per relevant
  /// table (features qualified "<table>__<feature>"); all tables' artifacts
  /// are compiled once and reused by every Transform.
  Result<std::unique_ptr<FittedAugmenter>> MakeFitted(
      const MultiTablePlan& plan) const;

 private:
  /// Probe for kProxyWeighted: best proxy score over the table's
  /// unpredicated aggregate queries.
  Result<double> ProbeTable(const RelevantInput& input) const;

  MultiTableProblem problem_;
  MultiTableOptions options_;
};

}  // namespace featlib
