#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/generator.h"
#include "data/synthetic.h"

namespace featlib {
namespace {

struct Fixture {
  DatasetBundle bundle;
  FeatureEvaluator evaluator;
};

Fixture MakeFixture(uint64_t seed = 7) {
  SyntheticOptions data_options;
  data_options.n_train = 300;
  data_options.avg_logs_per_entity = 10;
  data_options.seed = seed;
  DatasetBundle bundle = MakeTmall(data_options);
  EvaluatorOptions eval_options;
  eval_options.model = ModelKind::kLogisticRegression;
  eval_options.metric = MetricKind::kAuc;
  auto evaluator = FeatureEvaluator::Create(bundle.training, bundle.label_col,
                                            bundle.base_features, bundle.relevant,
                                            bundle.task, eval_options);
  EXPECT_TRUE(evaluator.ok());
  return Fixture{std::move(bundle), std::move(evaluator).ValueOrDie()};
}

GeneratorOptions FastOptions() {
  GeneratorOptions options;
  options.warmup_iterations = 30;
  options.warmup_top_k = 6;
  options.generation_iterations = 10;
  options.n_queries = 5;
  options.seed = 11;
  return options;
}

TEST(GeneratorTest, ProducesSortedDedupedQueries) {
  Fixture fx = MakeFixture();
  SqlQueryGenerator generator(&fx.evaluator, FastOptions());
  auto result = generator.Run(fx.bundle.golden_template);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GenerationResult& gen = result.value();
  ASSERT_GT(gen.queries.size(), 0u);
  ASSERT_LE(gen.queries.size(), 5u);
  for (size_t i = 1; i < gen.queries.size(); ++i) {
    EXPECT_LE(gen.queries[i - 1].loss, gen.queries[i].loss);
  }
  // Dedup by cache key.
  for (size_t i = 0; i < gen.queries.size(); ++i) {
    for (size_t j = i + 1; j < gen.queries.size(); ++j) {
      EXPECT_NE(gen.queries[i].query.CacheKey(), gen.queries[j].query.CacheKey());
    }
  }
}

TEST(GeneratorTest, BestQueryBeatsBaseline) {
  Fixture fx = MakeFixture();
  SqlQueryGenerator generator(&fx.evaluator, FastOptions());
  auto result = generator.Run(fx.bundle.golden_template);
  ASSERT_TRUE(result.ok());
  auto baseline = fx.evaluator.BaselineModelScore();
  ASSERT_TRUE(baseline.ok());
  // Searching the golden template's pool should find a feature that improves
  // on the no-augmentation baseline.
  EXPECT_GT(result.value().queries.front().model_metric, baseline.value());
}

TEST(GeneratorTest, WarmupSpendsProxyEvals) {
  Fixture fx = MakeFixture();
  GeneratorOptions options = FastOptions();
  SqlQueryGenerator generator(&fx.evaluator, options);
  auto result = generator.Run(fx.bundle.golden_template);
  ASSERT_TRUE(result.ok());
  // Every warm-up proposal is either a fresh proxy computation or a
  // session-cache hit (repeat proposal); together they account for the
  // full iteration budget.
  EXPECT_EQ(result.value().proxy_evals + result.value().proxy_cache_hits,
            static_cast<size_t>(options.warmup_iterations));
  EXPECT_GT(result.value().proxy_evals, 0u);
  // Model evals <= top_k + generation iterations (dedup may reduce).
  EXPECT_LE(result.value().model_evals,
            static_cast<size_t>(options.warmup_top_k +
                                options.generation_iterations));
  EXPECT_GT(result.value().model_evals, 0u);
  // The per-stage split decomposes the total.
  EXPECT_EQ(result.value().warmup_model_evals +
                result.value().generation_model_evals,
            result.value().model_evals);
}

TEST(GeneratorTest, NoWarmupUsesFairBudget) {
  Fixture fx = MakeFixture();
  GeneratorOptions options = FastOptions();
  options.enable_warmup = false;
  SqlQueryGenerator generator(&fx.evaluator, options);
  auto result = generator.Run(fx.bundle.golden_template);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().proxy_evals, 0u);
  EXPECT_DOUBLE_EQ(result.value().warmup_seconds, 0.0);
  EXPECT_LE(result.value().model_evals,
            static_cast<size_t>(options.warmup_top_k +
                                options.generation_iterations));
}

TEST(GeneratorTest, DeterministicBySeed) {
  Fixture fx1 = MakeFixture();
  Fixture fx2 = MakeFixture();
  SqlQueryGenerator g1(&fx1.evaluator, FastOptions());
  SqlQueryGenerator g2(&fx2.evaluator, FastOptions());
  auto r1 = g1.Run(fx1.bundle.golden_template);
  auto r2 = g2.Run(fx2.bundle.golden_template);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1.value().queries.size(), r2.value().queries.size());
  for (size_t i = 0; i < r1.value().queries.size(); ++i) {
    EXPECT_EQ(r1.value().queries[i].query.CacheKey(),
              r2.value().queries[i].query.CacheKey());
  }
}

// Reference implementation of the pre-batching search loop: one candidate
// per suggest/observe round-trip, evaluated through the evaluator's
// singleton entry points. Pins that suggest_batch_size=1 reproduces the
// sequential trajectory seed-for-seed.
Result<std::vector<GeneratedQuery>> RunSequentialReference(
    FeatureEvaluator* evaluator, const QueryTemplate& tmpl,
    const GeneratorOptions& options) {
  FEAT_ASSIGN_OR_RETURN(QueryVectorCodec codec,
                        QueryVectorCodec::Create(tmpl, evaluator->relevant()));
  std::vector<Trial> warm_trials;
  std::unordered_map<std::string, GeneratedQuery> evaluated;
  auto evaluate_with_model = [&](const ParamVector& v) -> Status {
    FEAT_ASSIGN_OR_RETURN(AggQuery q, codec.Decode(v));
    const std::string key = q.CacheKey();
    auto it = evaluated.find(key);
    double loss;
    if (it != evaluated.end()) {
      loss = it->second.loss;
    } else {
      FEAT_ASSIGN_OR_RETURN(double metric, evaluator->ModelScore({q}));
      loss = evaluator->ScoreToLoss(metric);
      evaluated.emplace(key, GeneratedQuery{std::move(q), metric, loss});
    }
    warm_trials.push_back(Trial{v, loss});
    return Status::OK();
  };

  TpeOptions proxy_tpe = options.tpe;
  proxy_tpe.seed = options.seed;
  Tpe proxy_search(codec.space(), proxy_tpe);
  std::vector<std::pair<ParamVector, double>> proxy_history;
  std::unordered_set<std::string> proxy_seen;
  for (int i = 0; i < options.warmup_iterations; ++i) {
    ParamVector v = proxy_search.Suggest();
    FEAT_ASSIGN_OR_RETURN(AggQuery q, codec.Decode(v));
    FEAT_ASSIGN_OR_RETURN(double score,
                          evaluator->ProxyScore(q, options.proxy));
    proxy_search.Observe(v, -score);
    if (proxy_seen.insert(q.CacheKey()).second) {
      proxy_history.emplace_back(std::move(v), -score);
    }
  }
  std::sort(proxy_history.begin(), proxy_history.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  const size_t top_k = std::min<size_t>(
      proxy_history.size(), static_cast<size_t>(options.warmup_top_k));
  for (size_t i = 0; i < top_k; ++i) {
    FEAT_RETURN_NOT_OK(evaluate_with_model(proxy_history[i].first));
  }

  TpeOptions gen_tpe = options.tpe;
  gen_tpe.seed = options.seed + 1;
  Tpe generation_search(codec.space(), gen_tpe);
  generation_search.WarmStart(warm_trials);
  for (int i = 0; i < options.generation_iterations; ++i) {
    ParamVector v = generation_search.Suggest();
    FEAT_ASSIGN_OR_RETURN(AggQuery q, codec.Decode(v));
    const std::string key = q.CacheKey();
    double loss;
    auto it = evaluated.find(key);
    if (it != evaluated.end()) {
      loss = it->second.loss;
    } else {
      FEAT_ASSIGN_OR_RETURN(double metric, evaluator->ModelScore({q}));
      loss = evaluator->ScoreToLoss(metric);
      evaluated.emplace(key, GeneratedQuery{std::move(q), metric, loss});
    }
    generation_search.Observe(v, loss);
  }

  std::vector<GeneratedQuery> queries;
  queries.reserve(evaluated.size());
  for (auto& [key, gq] : evaluated) queries.push_back(std::move(gq));
  std::sort(queries.begin(), queries.end(),
            [](const GeneratedQuery& a, const GeneratedQuery& b) {
              return a.loss < b.loss;
            });
  if (queries.size() > static_cast<size_t>(options.n_queries)) {
    queries.resize(static_cast<size_t>(options.n_queries));
  }
  return queries;
}

TEST(GeneratorTest, BatchOfOneReproducesSequentialTrajectory) {
  Fixture reference_fx = MakeFixture();
  Fixture batched_fx = MakeFixture();
  GeneratorOptions options = FastOptions();

  auto reference = RunSequentialReference(
      &reference_fx.evaluator, reference_fx.bundle.golden_template, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  options.suggest_batch_size = 1;
  SqlQueryGenerator generator(&batched_fx.evaluator, options);
  auto batched = generator.Run(batched_fx.bundle.golden_template);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  const std::vector<GeneratedQuery>& expected = reference.value();
  const std::vector<GeneratedQuery>& actual = batched.value().queries;
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].query.CacheKey(), expected[i].query.CacheKey())
        << "rank " << i;
    EXPECT_DOUBLE_EQ(actual[i].model_metric, expected[i].model_metric);
    EXPECT_DOUBLE_EQ(actual[i].loss, expected[i].loss);
  }
  // The reference loop spent one model training per distinct promoted /
  // generated query; the batched pipeline must match it exactly.
  EXPECT_EQ(batched.value().model_evals,
            reference_fx.evaluator.num_model_evals());
}

TEST(GeneratorTest, BatchSizesAgreeOnEvaluationBudget) {
  // Different pool sizes explore differently (the whole point of batching)
  // but must spend the same proposal budget and stay deterministic.
  for (int batch : {2, 8}) {
    Fixture fx = MakeFixture();
    GeneratorOptions options = FastOptions();
    options.suggest_batch_size = batch;
    SqlQueryGenerator generator(&fx.evaluator, options);
    auto result = generator.Run(fx.bundle.golden_template);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().proxy_evals + result.value().proxy_cache_hits,
              static_cast<size_t>(options.warmup_iterations))
        << "batch " << batch;
    EXPECT_GT(result.value().queries.size(), 0u);
  }
}

TEST(GeneratorTest, SpearmanProxyAlsoWorks) {
  Fixture fx = MakeFixture();
  GeneratorOptions options = FastOptions();
  options.proxy = ProxyKind::kSpearman;
  SqlQueryGenerator generator(&fx.evaluator, options);
  auto result = generator.Run(fx.bundle.golden_template);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().queries.size(), 0u);
}

TEST(GeneratorTest, EmptyWhereTemplateStillSearches) {
  // A template with no WHERE attributes degenerates to Featuretools' space
  // plus FK-subset choice; the generator must still work.
  Fixture fx = MakeFixture();
  QueryTemplate t = fx.bundle.golden_template;
  t.where_attrs.clear();
  SqlQueryGenerator generator(&fx.evaluator, FastOptions());
  auto result = generator.Run(t);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().queries.size(), 0u);
  for (const auto& gq : result.value().queries) {
    EXPECT_TRUE(gq.query.predicates.empty());
  }
}

TEST(GeneratorTest, InvalidTemplateRejected) {
  Fixture fx = MakeFixture();
  QueryTemplate t = fx.bundle.golden_template;
  t.agg_attrs = {"missing"};
  SqlQueryGenerator generator(&fx.evaluator, FastOptions());
  EXPECT_FALSE(generator.Run(t).ok());
}

}  // namespace
}  // namespace featlib
