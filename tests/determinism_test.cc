/// \file determinism_test.cc
/// \brief DESIGN.md promises "every stochastic component takes an explicit
/// seed; no global RNG". These tests pin that down: run twice with the same
/// seed, demand bit-identical outcomes; run with a different seed, demand a
/// different trajectory (to catch seeds that are silently ignored).
/// The end-to-end FeatAug plan is also pinned to a recorded golden, so a
/// run at any FEATLIB_NUM_THREADS must reproduce the serial search's plan.

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "core/feataug.h"
#include "core/generator.h"
#include "data/multi_table_data.h"
#include "data/synthetic.h"
#include "golden_util.h"
#include "hpo/hyperband.h"
#include "hpo/tpe.h"

namespace featlib {
namespace {

// --- Synthetic data ---------------------------------------------------------

std::string TableFingerprint(const Table& t) {
  // Cheap structural + content digest; ToString renders values.
  return StrFormat("%zux%zu|", t.num_rows(), t.num_columns()) + t.ToString(50);
}

TEST(DeterminismTest, SyntheticGeneratorsReproduceBitwise) {
  for (const char* name :
       {"tmall", "instacart", "student", "merchant", "covtype", "household"}) {
    SyntheticOptions options;
    options.n_train = 200;
    options.avg_logs_per_entity = 6;
    options.seed = 99;
    auto a = MakeDatasetByName(name, options);
    auto b = MakeDatasetByName(name, options);
    ASSERT_TRUE(a.ok() && b.ok()) << name;
    EXPECT_EQ(TableFingerprint(a.value().training),
              TableFingerprint(b.value().training))
        << name;
    EXPECT_EQ(TableFingerprint(a.value().relevant),
              TableFingerprint(b.value().relevant))
        << name;
    options.seed = 100;
    auto c = MakeDatasetByName(name, options);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(TableFingerprint(a.value().relevant),
              TableFingerprint(c.value().relevant))
        << name << " ignores its seed";
  }
}

TEST(DeterminismTest, MultiTableBundleReproduces) {
  SyntheticOptions options;
  options.n_train = 150;
  options.seed = 7;
  MultiTableBundle a = MakeInstacartMultiTable(options);
  MultiTableBundle b = MakeInstacartMultiTable(options);
  EXPECT_EQ(TableFingerprint(a.order_items), TableFingerprint(b.order_items));
  EXPECT_EQ(TableFingerprint(a.browse_log), TableFingerprint(b.browse_log));
  EXPECT_EQ(TableFingerprint(a.training), TableFingerprint(b.training));
}

// --- Optimizers -------------------------------------------------------------

SearchSpace MixedSpace() {
  SearchSpace space;
  space.Add(ParamDomain::Numeric("x", -2.0, 2.0));
  space.Add(ParamDomain::OptionalNumeric("o", 0.0, 10.0));
  space.Add(ParamDomain::Categorical("c", 5));
  return space;
}

double ToyLoss(const ParamVector& v) {
  double loss = v[0] * v[0];
  if (!IsNone(v[1])) loss += 0.1 * v[1];
  loss += (static_cast<int>(v[2]) == 3) ? 0.0 : 0.5;
  return loss;
}

TEST(DeterminismTest, TpeTrajectoryReproduces) {
  auto run = [](uint64_t seed) {
    TpeOptions options;
    options.seed = seed;
    Tpe tpe(MixedSpace(), options);
    std::vector<double> losses;
    for (int i = 0; i < 40; ++i) {
      ParamVector v = tpe.Suggest();
      const double loss = ToyLoss(v);
      tpe.Observe(v, loss);
      losses.push_back(loss);
    }
    return losses;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(DeterminismTest, HyperbandRunReproduces) {
  auto run = [](uint64_t seed) {
    HyperbandOptions options;
    options.max_total_cost = 20.0;
    options.seed = seed;
    Hyperband hb(MixedSpace(), options);
    auto result = hb.Run([](const ParamVector& v, double f) -> Result<double> {
      return ToyLoss(v) + 0.01 * (1.0 - f);
    });
    EXPECT_TRUE(result.ok());
    std::vector<double> losses;
    for (const FidelityTrial& t : result.value().trials) losses.push_back(t.loss);
    return losses;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --- End-to-end FeatAug -----------------------------------------------------

std::vector<std::string> PlanKeys(const AugmentationPlan& plan) {
  std::vector<std::string> keys;
  for (const AggQuery& q : plan.queries) keys.push_back(q.CacheKey());
  return keys;
}

TEST(DeterminismTest, FeatAugPlanReproduces) {
  SyntheticOptions data_options;
  data_options.n_train = 250;
  data_options.avg_logs_per_entity = 8;
  data_options.seed = 31;
  DatasetBundle bundle = MakeTmall(data_options);

  auto fit = [&](uint64_t seed) {
    FeatAugOptions options;
    options.n_templates = 2;
    options.queries_per_template = 3;
    options.generator.warmup_iterations = 20;
    options.generator.warmup_top_k = 4;
    options.generator.generation_iterations = 6;
    options.qti.beam_width = 1;
    options.qti.max_depth = 2;
    options.qti.node_iterations = 6;
    options.evaluator.model = ModelKind::kLogisticRegression;
    options.seed = seed;
    FeatAug feataug(bundle.ToProblem(), options);
    auto plan = feataug.Fit();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan.value() : AugmentationPlan{};
  };
  const AugmentationPlan first = fit(3);
  const AugmentationPlan second = fit(3);
  EXPECT_EQ(PlanKeys(first), PlanKeys(second));
  ASSERT_FALSE(first.queries.empty());

  // The plan recorded from the serial search: pooled scoring may train on
  // any number of threads, but the chosen queries and their validation
  // metrics must match it bit for bit.
  ASSERT_EQ(first.valid_metrics.size(), first.queries.size());
  golden::GoldenFile golden("feataug_plan.golden");
  golden.Check("num_queries", std::to_string(first.queries.size()));
  for (size_t i = 0; i < first.queries.size(); ++i) {
    golden.Check(StrFormat("query%zu", i),
                 first.queries[i].CacheKey() + " " +
                     golden::HexDouble(first.valid_metrics[i]));
  }
}

}  // namespace
}  // namespace featlib
