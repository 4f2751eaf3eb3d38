#include "hpo/hyperband.h"

#include <cmath>
#include <gtest/gtest.h>

#include "core/generator.h"
#include "data/synthetic.h"

namespace featlib {
namespace {

SearchSpace QuadraticSpace() {
  SearchSpace space;
  space.Add(ParamDomain::Numeric("x", -5.0, 5.0));
  space.Add(ParamDomain::Numeric("y", -5.0, 5.0));
  space.Add(ParamDomain::Categorical("c", 4));
  return space;
}

/// Smooth test objective: paraboloid centered at (1, -2) with the right
/// category; low fidelity adds deterministic pseudo-noise shrinking as
/// fidelity grows (mimicking subsampled model evaluation).
double Quadratic(const ParamVector& v, double fidelity) {
  double loss = (v[0] - 1.0) * (v[0] - 1.0) + (v[1] + 2.0) * (v[1] + 2.0);
  if (static_cast<int>(v[2]) != 2) loss += 4.0;
  const double phase = std::sin(37.0 * v[0] + 53.0 * v[1]);
  loss += (1.0 - fidelity) * 1.5 * phase;
  return loss;
}

MultiFidelityObjective MakeObjective() {
  return [](const ParamVector& v, double fidelity) -> Result<double> {
    return Quadratic(v, fidelity);
  };
}

TEST(HyperbandTest, RungLadderFollowsEta) {
  HyperbandOptions options;
  options.eta = 3.0;
  options.min_fidelity = 1.0 / 9.0;
  Hyperband hb(QuadraticSpace(), options);
  EXPECT_EQ(hb.s_max(), 2);
  const std::vector<double> rungs = hb.RungFidelities();
  ASSERT_EQ(rungs.size(), 3u);
  EXPECT_NEAR(rungs[0], 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(rungs[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rungs[2], 1.0, 1e-12);
}

TEST(HyperbandTest, RungLadderWithEtaTwo) {
  HyperbandOptions options;
  options.eta = 2.0;
  options.min_fidelity = 1.0 / 8.0;
  Hyperband hb(QuadraticSpace(), options);
  EXPECT_EQ(hb.s_max(), 3);
  const std::vector<double> rungs = hb.RungFidelities();
  ASSERT_EQ(rungs.size(), 4u);
  EXPECT_NEAR(rungs[0], 0.125, 1e-12);
  EXPECT_NEAR(rungs[1], 0.25, 1e-12);
  EXPECT_NEAR(rungs[2], 0.5, 1e-12);
  EXPECT_NEAR(rungs[3], 1.0, 1e-12);
}

TEST(HyperbandTest, FullFidelityOnlyWhenMinFidelityIsOne) {
  HyperbandOptions options;
  options.min_fidelity = 1.0;
  options.max_total_cost = 12.0;
  Hyperband hb(QuadraticSpace(), options);
  EXPECT_EQ(hb.s_max(), 0);
  auto result = hb.Run(MakeObjective());
  ASSERT_TRUE(result.ok());
  for (const FidelityTrial& t : result.value().trials) {
    EXPECT_DOUBLE_EQ(t.fidelity, 1.0);
  }
  EXPECT_EQ(result.value().trials.size(), result.value().full_fidelity_trials.size());
}

TEST(HyperbandTest, EveryTrialFidelityIsARungValue) {
  HyperbandOptions options;
  options.max_total_cost = 25.0;
  Hyperband hb(QuadraticSpace(), options);
  const std::vector<double> rungs = hb.RungFidelities();
  auto result = hb.Run(MakeObjective());
  ASSERT_TRUE(result.ok());
  for (const FidelityTrial& t : result.value().trials) {
    bool is_rung = false;
    for (double r : rungs) is_rung |= std::abs(t.fidelity - r) < 1e-12;
    EXPECT_TRUE(is_rung) << t.fidelity;
  }
}

TEST(HyperbandTest, BudgetLedgerMatchesTrials) {
  HyperbandOptions options;
  options.max_total_cost = 20.0;
  Hyperband hb(QuadraticSpace(), options);
  auto result = hb.Run(MakeObjective());
  ASSERT_TRUE(result.ok());
  double recount = 0.0;
  for (const FidelityTrial& t : result.value().trials) recount += t.fidelity;
  EXPECT_NEAR(result.value().total_cost, recount, 1e-9);
  EXPECT_GE(result.value().total_cost, options.max_total_cost);
  // Overshoot is bounded by one bracket.
  EXPECT_LE(result.value().total_cost, options.max_total_cost + 30.0);
  EXPECT_EQ(result.value().n_evals, result.value().trials.size());
}

TEST(HyperbandTest, SuccessiveHalvingShrinksRungs) {
  // In the most aggressive bracket (s = s_max), the number of evaluations
  // per fidelity level must be non-increasing.
  HyperbandOptions options;
  options.eta = 3.0;
  options.min_fidelity = 1.0 / 9.0;
  options.max_total_cost = 8.0;  // roughly one bracket
  Hyperband hb(QuadraticSpace(), options);
  auto result = hb.Run(MakeObjective());
  ASSERT_TRUE(result.ok());
  size_t at_low = 0, at_mid = 0, at_full = 0;
  for (const FidelityTrial& t : result.value().trials) {
    if (t.fidelity < 0.2) {
      ++at_low;
    } else if (t.fidelity < 0.5) {
      ++at_mid;
    } else {
      ++at_full;
    }
  }
  EXPECT_GT(at_low, 0u);
  EXPECT_GE(at_low, at_mid);
  EXPECT_GE(at_mid, at_full);
}

TEST(HyperbandTest, BestComesFromFullFidelityPool) {
  HyperbandOptions options;
  options.max_total_cost = 30.0;
  Hyperband hb(QuadraticSpace(), options);
  auto result = hb.Run(MakeObjective());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().has_best);
  double best_full = 1e300;
  for (const Trial& t : result.value().full_fidelity_trials) {
    best_full = std::min(best_full, t.loss);
  }
  EXPECT_DOUBLE_EQ(result.value().best_loss, best_full);
}

TEST(HyperbandTest, BohbBeatsPlainHyperbandOnSmoothObjective) {
  // With equal budgets and matched seeds, model-based sampling should find
  // a lower (or equal) full-fidelity loss on a smooth landscape. Averaged
  // over seeds to keep the assertion robust.
  double bohb_sum = 0.0, hyper_sum = 0.0;
  const int kSeeds = 5;
  for (int s = 0; s < kSeeds; ++s) {
    HyperbandOptions options;
    options.max_total_cost = 40.0;
    options.seed = 100 + static_cast<uint64_t>(s);
    options.model_based = true;
    Hyperband bohb(QuadraticSpace(), options);
    auto bohb_result = bohb.Run(MakeObjective());
    ASSERT_TRUE(bohb_result.ok());
    bohb_sum += bohb_result.value().best_loss;

    options.model_based = false;
    Hyperband hyper(QuadraticSpace(), options);
    auto hyper_result = hyper.Run(MakeObjective());
    ASSERT_TRUE(hyper_result.ok());
    hyper_sum += hyper_result.value().best_loss;
  }
  EXPECT_LE(bohb_sum / kSeeds, hyper_sum / kSeeds + 0.25);
}

TEST(HyperbandTest, WarmStartSteersTheModel) {
  // Seeding the full-fidelity pool with points around the optimum should
  // not hurt, and on average helps: compare warm vs cold runs pairwise
  // across seeds at a small budget.
  double warm_sum = 0.0, cold_sum = 0.0;
  const int kSeeds = 5;
  for (int s = 0; s < kSeeds; ++s) {
    HyperbandOptions options;
    options.max_total_cost = 15.0;
    options.random_fraction = 0.1;
    options.seed = 5 + static_cast<uint64_t>(s);

    Hyperband warm(QuadraticSpace(), options);
    std::vector<Trial> seeds;
    Rng rng(99 + static_cast<uint64_t>(s));
    for (int i = 0; i < 20; ++i) {
      ParamVector v{1.0 + 0.1 * rng.Normal(), -2.0 + 0.1 * rng.Normal(), 2.0};
      seeds.push_back(Trial{v, Quadratic(v, 1.0)});
    }
    warm.WarmStart(seeds);
    auto warm_result = warm.Run(MakeObjective());
    ASSERT_TRUE(warm_result.ok());
    warm_sum += warm_result.value().best_loss;

    Hyperband cold(QuadraticSpace(), options);
    auto cold_result = cold.Run(MakeObjective());
    ASSERT_TRUE(cold_result.ok());
    cold_sum += cold_result.value().best_loss;
  }
  EXPECT_LE(warm_sum / kSeeds, cold_sum / kSeeds + 0.25);
}

TEST(HyperbandTest, ObjectiveErrorAbortsRun) {
  HyperbandOptions options;
  options.max_total_cost = 10.0;
  Hyperband hb(QuadraticSpace(), options);
  auto result = hb.Run([](const ParamVector&, double) -> Result<double> {
    return Status::InvalidArgument("boom");
  });
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("boom"), std::string::npos);
}

// --- Integration with the SQL Query Generation component -------------------

TEST(HyperbandGeneratorTest, BohbBackendGeneratesQueries) {
  SyntheticOptions data_options;
  data_options.n_train = 300;
  data_options.avg_logs_per_entity = 10;
  data_options.seed = 7;
  DatasetBundle bundle = MakeTmall(data_options);
  EvaluatorOptions eval_options;
  eval_options.model = ModelKind::kLogisticRegression;
  eval_options.metric = MetricKind::kAuc;
  auto evaluator = FeatureEvaluator::Create(bundle.training, bundle.label_col,
                                            bundle.base_features, bundle.relevant,
                                            bundle.task, eval_options);
  ASSERT_TRUE(evaluator.ok());

  for (HpoBackend backend : {HpoBackend::kBohb, HpoBackend::kHyperband}) {
    GeneratorOptions options;
    options.backend = backend;
    options.warmup_iterations = 30;
    options.warmup_top_k = 6;
    options.generation_iterations = 12;  // full-eval-equivalent budget
    options.n_queries = 5;
    options.seed = 11;
    SqlQueryGenerator generator(&evaluator.value(), options);
    auto result = generator.Run(bundle.golden_template);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const GenerationResult& gen = result.value();
    ASSERT_GT(gen.queries.size(), 0u) << HpoBackendToString(backend);
    ASSERT_LE(gen.queries.size(), 5u);
    for (size_t i = 1; i < gen.queries.size(); ++i) {
      EXPECT_LE(gen.queries[i - 1].loss, gen.queries[i].loss);
    }
    // The budget ledger means more raw model calls than iterations, but
    // bounded: every evaluation costs at least min_fidelity.
    EXPECT_GT(gen.model_evals, 0u);
    auto baseline = evaluator.value().BaselineModelScore();
    ASSERT_TRUE(baseline.ok());
    EXPECT_GT(gen.queries.front().model_metric, baseline.value() - 0.05)
        << HpoBackendToString(backend);
  }
}

TEST(HyperbandGeneratorTest, BackendNamesCoverNewBackends) {
  EXPECT_STREQ(HpoBackendToString(HpoBackend::kHyperband), "Hyperband");
  EXPECT_STREQ(HpoBackendToString(HpoBackend::kBohb), "BOHB");
}

TEST(HyperbandGeneratorTest, FullFidelityEqualsModelScore) {
  SyntheticOptions data_options;
  data_options.n_train = 200;
  data_options.seed = 3;
  DatasetBundle bundle = MakeTmall(data_options);
  EvaluatorOptions eval_options;
  eval_options.model = ModelKind::kLogisticRegression;
  auto evaluator = FeatureEvaluator::Create(bundle.training, bundle.label_col,
                                            bundle.base_features, bundle.relevant,
                                            bundle.task, eval_options);
  ASSERT_TRUE(evaluator.ok());
  auto full = evaluator.value().ModelScore({bundle.golden_query});
  auto at_one =
      evaluator.value().ModelScoreAtFidelity({bundle.golden_query}, 1.0);
  ASSERT_TRUE(full.ok() && at_one.ok());
  EXPECT_DOUBLE_EQ(full.value(), at_one.value());
  // Reduced fidelity is deterministic (prefix subsample, fixed model seed).
  auto lo_a = evaluator.value().ModelScoreAtFidelity({bundle.golden_query}, 0.4);
  auto lo_b = evaluator.value().ModelScoreAtFidelity({bundle.golden_query}, 0.4);
  ASSERT_TRUE(lo_a.ok() && lo_b.ok());
  EXPECT_DOUBLE_EQ(lo_a.value(), lo_b.value());
}

}  // namespace
}  // namespace featlib
