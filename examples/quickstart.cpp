/// \file quickstart.cpp
/// \brief Minimal end-to-end FeatAug walkthrough on the paper's running
/// example: a User_Info training table and a one-to-many User_Logs table.
///
/// Builds the two tables inline, fits through the unified Augmenter
/// interface (fit once), prints the best predicate-aware SQL queries it
/// finds, and materializes the augmented training table (Def. 3) through
/// the long-lived FittedAugmenter serving handle (transform many times).
///
/// Migration from the pre-Augmenter API (old call -> new call):
///
///   FeatAug(problem, opts) + Fit()      -> MakeFeatAugAugmenter(...)->Fit()
///
///   ./quickstart

#include <cstdio>

#include "core/augmenter.h"
#include "common/rng.h"

using namespace featlib;

namespace {

// User_Info: one row per customer. The label ("will buy a Kindle next
// month") depends on how much the customer recently spent on electronics —
// the signal FeatAug must discover via a predicate-aware query.
struct Scenario {
  Table user_info;
  Table user_logs;
};

Scenario BuildScenario() {
  Rng rng(7);
  const size_t n_users = 600;
  const int64_t t0 = 1690000000;          // log window start
  const int64_t t_recent = t0 + 60 * 86400;  // "recent" = last month of logs

  std::vector<int64_t> cname(n_users);
  std::vector<double> age(n_users);
  std::vector<int64_t> label(n_users);
  std::vector<double> latent(n_users);
  for (size_t u = 0; u < n_users; ++u) {
    cname[u] = static_cast<int64_t>(u);
    age[u] = 20 + 40 * rng.Uniform();
    latent[u] = rng.Normal();
  }

  Column l_cname(DataType::kInt64), l_price(DataType::kDouble);
  Column l_dept(DataType::kString), l_ts(DataType::kDatetime);
  const char* departments[] = {"Electronics", "Books", "Grocery", "Toys"};
  for (size_t u = 0; u < n_users; ++u) {
    const int64_t n_logs = 3 + rng.Poisson(8);
    for (int64_t i = 0; i < n_logs; ++i) {
      const char* dept = departments[rng.UniformInt(4)];
      const int64_t ts = rng.UniformRange(t0, t0 + 90 * 86400);
      const bool golden =
          std::string(dept) == "Electronics" && ts >= t_recent;
      l_cname.AppendInt(cname[u]);
      l_price.AppendDouble(golden ? 40 + 15 * latent[u] + rng.Normal(0, 3)
                                  : 40 + rng.Normal(0, 15));
      l_dept.AppendString(dept);
      l_ts.AppendInt(ts);
    }
    label[u] = latent[u] + 0.3 * rng.Normal() > 0 ? 1 : 0;
  }

  Scenario s;
  FEAT_CHECK(s.user_info.AddColumn("cname", Column::FromInts(DataType::kInt64, cname)).ok(), "");
  FEAT_CHECK(s.user_info.AddColumn("age", Column::FromDoubles(age)).ok(), "");
  FEAT_CHECK(s.user_info.AddColumn("label", Column::FromInts(DataType::kInt64, label)).ok(), "");
  FEAT_CHECK(s.user_logs.AddColumn("cname", std::move(l_cname)).ok(), "");
  FEAT_CHECK(s.user_logs.AddColumn("pprice", std::move(l_price)).ok(), "");
  FEAT_CHECK(s.user_logs.AddColumn("department", std::move(l_dept)).ok(), "");
  FEAT_CHECK(s.user_logs.AddColumn("timestamp", std::move(l_ts)).ok(), "");
  return s;
}

}  // namespace

int main() {
  Scenario s = BuildScenario();
  std::printf("User_Info: %zu rows  |  User_Logs: %zu rows\n",
              s.user_info.num_rows(), s.user_logs.num_rows());

  // Describe the problem: label, base features, template ingredients.
  FeatAugProblem problem;
  problem.training = s.user_info;
  problem.label_col = "label";
  problem.base_feature_cols = {"age"};
  problem.relevant = s.user_logs;
  problem.task = TaskKind::kBinaryClassification;
  problem.agg_functions = {AggFunction::kSum, AggFunction::kAvg,
                           AggFunction::kMax, AggFunction::kCount};
  problem.agg_attrs = {"pprice"};
  problem.fk_attrs = {"cname"};
  problem.candidate_where_attrs = {"department", "timestamp"};

  FeatAugOptions options;
  options.n_templates = 2;
  options.queries_per_template = 3;
  options.evaluator.model = ModelKind::kXgb;
  options.seed = 42;

  // Phase 1: fit once. The Augmenter interface is the same for FeatAug,
  // MultiTableFeatAug and every baseline (baselines/augmenters.h).
  std::unique_ptr<Augmenter> augmenter =
      MakeFeatAugAugmenter(std::move(problem), options);
  auto fitted = augmenter->Fit();
  if (!fitted.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n", fitted.status().ToString().c_str());
    return 1;
  }
  const FittedAugmenter& handle = *fitted.value();

  std::printf("\nDiscovered predicate-aware SQL queries:\n");
  const std::vector<AggQuery> queries = handle.AllQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    std::printf("\n-- feature %s (validation AUC %.4f)\n%s\n",
                handle.feature_names()[i].c_str(), handle.valid_metrics()[i],
                queries[i].ToSql("User_Logs", s.user_logs).c_str());
  }

  auto baseline = augmenter->evaluator()->BaselineModelScore();
  auto augmented_score = augmenter->evaluator()->TestScore(queries);
  std::printf("\nXGB AUC:  base features only %.4f  ->  augmented %.4f\n",
              baseline.value(), augmented_score.value());

  // Phase 2: transform many times. The handle holds the compiled plan
  // (group index, masks, materializations) warm across calls and is safe
  // to share between serving threads.
  auto augmented = handle.Transform(s.user_info);
  if (!augmented.ok()) {
    std::fprintf(stderr, "Transform failed: %s\n",
                 augmented.status().ToString().c_str());
    return 1;
  }
  std::printf("\nAugmented training table (first rows):\n%s",
              augmented.value().Head(5).ToString().c_str());
  return 0;
}
