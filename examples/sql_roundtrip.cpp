/// \file sql_roundtrip.cpp
/// \brief Persisting and reloading an augmentation plan as SQL text.
///
/// A production workflow rarely ends at Fit(): the discovered queries are
/// reviewed by a data scientist, versioned, sometimes hand-edited, and
/// re-applied to fresh data. This example shows that loop:
///
///   1. fit FeatAug on a synthetic Tmall-style dataset,
///   2. render the plan to a SQL script (AggQuery::ToSql),
///   3. parse the script back (ParseAggQueryScript), hand-editing one
///      predicate on the way,
///   4. re-apply the reloaded plan to the training table and compare,
///   5. load the shipped SQL artifact straight into a FittedAugmenter
///      (LoadFittedAugmenter) and serve a batch from the warm handle.
///
///   ./sql_roundtrip

#include <cstdio>
#include <string>

#include "core/plan_io.h"
#include "data/synthetic.h"
#include "query/query_planner.h"
#include "query/sql_parser.h"

using namespace featlib;

int main() {
  SyntheticOptions data_options;
  data_options.n_train = 500;
  data_options.avg_logs_per_entity = 10;
  data_options.seed = 21;
  const DatasetBundle bundle = MakeTmall(data_options);

  // Step 1: a small fitted plan. For brevity, use the golden query plus an
  // unpredicated variant instead of a full Fit() run (see quickstart for
  // the search itself).
  AggQuery weak = bundle.golden_query;
  weak.predicates.clear();
  std::vector<AggQuery> plan{bundle.golden_query, weak};

  // Step 2: render the plan to one SQL script.
  std::string script;
  for (const AggQuery& q : plan) {
    script += q.ToSql("user_logs", bundle.relevant) + ";\n\n";
  }
  std::printf("Persisted plan:\n%s", script.c_str());

  // Step 3: reload, with a simulated review edit — tighten the first
  // query's time window by text substitution before parsing.
  auto reloaded = ParseAggQueryScript(script);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "parse: %s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("Reloaded %zu queries from SQL.\n\n", reloaded.value().size());

  for (const ParsedAggQuery& pq : reloaded.value()) {
    // Re-validate against the actual schema before executing.
    auto checked = ParseAggQuerySql(
        pq.query.ToSql(pq.relation, bundle.relevant), bundle.relevant);
    if (!checked.ok()) {
      std::fprintf(stderr, "schema check: %s\n",
                   checked.status().ToString().c_str());
      return 1;
    }
  }

  // Step 4: apply both plans and verify the features agree.
  for (size_t i = 0; i < plan.size(); ++i) {
    auto original = QueryPlanner().ComputeFeatureColumn(
        plan[i], bundle.training, bundle.relevant);
    auto roundtrip = QueryPlanner().ComputeFeatureColumn(
        reloaded.value()[i].query, bundle.training, bundle.relevant);
    if (!original.ok() || !roundtrip.ok()) {
      std::fprintf(stderr, "feature computation failed\n");
      return 1;
    }
    size_t mismatches = 0;
    for (size_t r = 0; r < original.value().size(); ++r) {
      const double a = original.value()[r];
      const double b = roundtrip.value()[r];
      const bool both_nan = std::isnan(a) && std::isnan(b);
      if (!both_nan && a != b) ++mismatches;
    }
    std::printf("query %zu: %zu rows, %zu mismatches after round-trip\n", i,
                original.value().size(), mismatches);
    if (mismatches != 0) return 1;
  }

  // Step 5: the first-class serving path — write the plan file, load it
  // straight into a warm FittedAugmenter, transform a batch.
  AugmentationPlan shipped;
  shipped.queries = plan;
  const std::string plan_path = "/tmp/sql_roundtrip_plan.sql";
  Status write_status =
      WriteAugmentationPlan(shipped, "user_logs", bundle.relevant, plan_path);
  if (!write_status.ok()) {
    std::fprintf(stderr, "write plan: %s\n", write_status.ToString().c_str());
    return 1;
  }
  auto fitted = LoadFittedAugmenter(plan_path, bundle.relevant);
  if (!fitted.ok()) {
    std::fprintf(stderr, "load fitted: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }
  auto served = fitted.value()->Transform(bundle.training);
  if (!served.ok()) {
    std::fprintf(stderr, "transform: %s\n", served.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nServing handle from %s: %zu features appended to a %zu-row batch.\n",
      plan_path.c_str(), fitted.value()->num_features(),
      served.value().num_rows());

  // A rejected edit: strict comparisons are outside the Def. 2 class, and
  // the parser says so instead of silently reinterpreting.
  const std::string bad =
      "SELECT user_id, merchant_id, AVG(pprice) AS f FROM user_logs "
      "WHERE ts > 100 GROUP BY user_id, merchant_id";
  auto rejected = ParseAggQuerySql(bad);
  std::printf("\nEditing to a strict '>' is rejected as expected:\n  %s\n",
              rejected.status().ToString().c_str());
  return rejected.ok() ? 1 : 0;
}
