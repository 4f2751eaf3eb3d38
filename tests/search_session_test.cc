/// \file search_session_test.cc
/// \brief Pins the SearchSession layer of the batched search pipeline:
/// pooled proxy/model scoring equals the singleton evaluator entry points
/// bit-for-bit, score caches absorb repeat proposals within and across
/// stages, per-stage counters attribute work correctly, and the evaluator's
/// byte-capped feature cache interplays with the planner's compile memo
/// (evicted columns re-materialize without re-compiling).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/search_session.h"
#include "data/synthetic.h"
#include "golden_util.h"

namespace featlib {
namespace {

SyntheticOptions SmallOptions() {
  SyntheticOptions options;
  options.n_train = 300;
  options.avg_logs_per_entity = 10;
  options.seed = 7;
  return options;
}

FeatureEvaluator MakeEvaluator(const DatasetBundle& bundle) {
  EvaluatorOptions options;
  options.model = ModelKind::kLogisticRegression;
  options.metric = MetricKind::kAuc;
  auto evaluator =
      FeatureEvaluator::Create(bundle.training, bundle.label_col,
                               bundle.base_features, bundle.relevant,
                               bundle.task, options);
  EXPECT_TRUE(evaluator.ok());
  return std::move(evaluator).ValueOrDie();
}

// A small pool of distinct valid queries over the Tmall bundle.
std::vector<AggQuery> MakePool(const DatasetBundle& bundle, size_t n) {
  std::vector<AggQuery> pool;
  for (AggFunction fn : AllAggFunctions()) {
    if (pool.size() == n) break;
    AggQuery q = bundle.golden_query;
    q.agg = fn;
    if (q.Validate(bundle.relevant).ok()) pool.push_back(std::move(q));
  }
  EXPECT_EQ(pool.size(), n);
  return pool;
}

TEST(SearchSessionTest, PooledProxyScoresMatchSingletonPath) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator pooled_eval = MakeEvaluator(bundle);
  FeatureEvaluator singleton_eval = MakeEvaluator(bundle);
  SearchSession session(&pooled_eval);
  const std::vector<AggQuery> pool = MakePool(bundle, 6);

  auto pooled = session.ProxyScores(pool, ProxyKind::kMutualInformation);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(pooled.value().size(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    auto single =
        singleton_eval.ProxyScore(pool[i], ProxyKind::kMutualInformation);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ(pooled.value()[i], single.value()) << "query " << i;
  }
}

TEST(SearchSessionTest, PooledModelScoresMatchSingletonPath) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator pooled_eval = MakeEvaluator(bundle);
  FeatureEvaluator singleton_eval = MakeEvaluator(bundle);
  SearchSession session(&pooled_eval);
  const std::vector<AggQuery> pool = MakePool(bundle, 4);

  auto pooled = session.ModelScores(pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  for (size_t i = 0; i < pool.size(); ++i) {
    auto single = singleton_eval.ModelScore({pool[i]});
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ(pooled.value()[i].metric, single.value()) << "query " << i;
    EXPECT_DOUBLE_EQ(pooled.value()[i].loss,
                     singleton_eval.ScoreToLoss(single.value()));
  }
}

// One pool with an in-pool duplicate, an already-cached member and failing
// members in the middle publishes exactly as a serial per-member loop does:
// outcomes equal ModelScore({q}) bit for bit, failures are recorded in pool
// order, and revision() advances once per new cache entry and new failure.
TEST(SearchSessionTest, MixedPoolPublishesLikeASerialLoop) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator pooled_eval = MakeEvaluator(bundle);
  FeatureEvaluator singleton_eval = MakeEvaluator(bundle);
  SearchSession session(&pooled_eval);
  session.BeginStage(SearchStage::kGeneration);
  const std::vector<AggQuery> members = MakePool(bundle, 4);
  auto failing = [&](const char* column) {
    AggQuery q = bundle.golden_query;
    q.agg_attr = column;
    return q;
  };
  const AggQuery bad_a = failing("no_such_column");
  const AggQuery bad_b = failing("missing_too");

  ASSERT_TRUE(session.ModelScores({members[1]}).ok());  // cached beforehand
  const uint64_t revision_before = session.revision();
  const size_t evals_before = pooled_eval.num_model_evals();
  const std::vector<AggQuery> pool = {members[0], bad_b,      members[1],
                                      members[0], members[2], bad_a,
                                      members[3], bad_a};
  auto pooled = session.ModelScores(pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(pooled.value().size(), pool.size());

  for (size_t i = 0; i < pool.size(); ++i) {
    const SearchSession::ModelOutcome& got = pooled.value()[i];
    auto single = singleton_eval.ModelScore({pool[i]});
    if (!single.ok()) {
      EXPECT_TRUE(std::isnan(got.metric)) << "member " << i;
      EXPECT_TRUE(std::isinf(got.loss) && got.loss > 0.0) << "member " << i;
      continue;
    }
    EXPECT_TRUE(golden::SameBits(got.metric, single.value())) << "member " << i;
    EXPECT_TRUE(golden::SameBits(got.loss,
                                 singleton_eval.ScoreToLoss(single.value())))
        << "member " << i;
  }
  // Failures in first-failure pool order, each distinct key once.
  ASSERT_EQ(session.failed_candidates().size(), 2u);
  EXPECT_EQ(session.failed_candidates()[0].key, bad_b.CacheKey());
  EXPECT_EQ(session.failed_candidates()[1].key, bad_a.CacheKey());
  // Three new cache entries (members 0, 2, 3) and two new failures.
  EXPECT_EQ(session.revision(), revision_before + 5);
  // The in-pool duplicate trains once and counts as a cache hit, like the
  // pre-cached member.
  EXPECT_EQ(pooled_eval.num_model_evals(), evals_before + 3);
  EXPECT_EQ(session.stage(SearchStage::kGeneration).model_cache_hits, 2u);
}

TEST(SearchSessionTest, ScoreCachesAbsorbRepeatProposals) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  SearchSession session(&evaluator);
  session.BeginStage(SearchStage::kWarmup);
  const std::vector<AggQuery> pool = MakePool(bundle, 5);

  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  const size_t proxy_after_first = evaluator.num_proxy_evals();
  EXPECT_EQ(proxy_after_first, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_evals, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_cache_hits, 0u);

  // Re-proposing the same pool computes nothing new.
  auto again = session.ProxyScores(pool, ProxyKind::kMutualInformation);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(evaluator.num_proxy_evals(), proxy_after_first);
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_cache_hits, pool.size());

  // Duplicates *within* one pool are scored once.
  std::vector<AggQuery> with_dups = {pool[0], pool[0], pool[1]};
  AggQuery fresh = bundle.golden_query;
  fresh.agg_attr = "discount";
  ASSERT_TRUE(fresh.Validate(bundle.relevant).ok());
  with_dups.push_back(fresh);
  const size_t before = evaluator.num_proxy_evals();
  auto mixed = session.ProxyScores(with_dups, ProxyKind::kMutualInformation);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(evaluator.num_proxy_evals(), before + 1);  // only `fresh`
  EXPECT_DOUBLE_EQ(mixed.value()[0], mixed.value()[1]);

  // Model outcomes cache the same way.
  session.BeginStage(SearchStage::kGeneration);
  ASSERT_TRUE(session.ModelScores(pool).ok());
  const size_t model_after_first = evaluator.num_model_evals();
  EXPECT_EQ(model_after_first, pool.size());
  ASSERT_TRUE(session.ModelScores(pool).ok());
  EXPECT_EQ(evaluator.num_model_evals(), model_after_first);
  EXPECT_EQ(session.stage(SearchStage::kGeneration).model_cache_hits,
            pool.size());
}

TEST(SearchSessionTest, StageCountersAttributeWorkToTheActiveStage) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  SearchSession session(&evaluator);
  const std::vector<AggQuery> pool = MakePool(bundle, 3);

  session.BeginStage(SearchStage::kQti);
  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  session.BeginStage(SearchStage::kGeneration);
  ASSERT_TRUE(session.ModelScores(pool).ok());

  EXPECT_EQ(session.stage(SearchStage::kQti).proxy_evals, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kQti).model_evals, 0u);
  EXPECT_EQ(session.stage(SearchStage::kGeneration).model_evals, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_evals, 0u);
  EXPECT_EQ(session.stage(SearchStage::kWarmup).model_evals, 0u);
}

TEST(SearchSessionTest, FidelityLossesMatchSingletonsAndAreNotCached) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator pooled_eval = MakeEvaluator(bundle);
  FeatureEvaluator singleton_eval = MakeEvaluator(bundle);
  SearchSession session(&pooled_eval);
  const std::vector<AggQuery> pool = MakePool(bundle, 3);

  auto losses = session.FidelityLosses(pool, 0.5);
  ASSERT_TRUE(losses.ok()) << losses.status().ToString();
  for (size_t i = 0; i < pool.size(); ++i) {
    auto single = singleton_eval.ModelScoreAtFidelity({pool[i]}, 0.5);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ(losses.value()[i],
                     singleton_eval.ScoreToLoss(single.value()));
  }
  // Reduced-fidelity evaluations are never cached (the cost ledger must
  // reflect every subsample training).
  const size_t evals = pooled_eval.num_model_evals();
  ASSERT_TRUE(session.FidelityLosses(pool, 0.5).ok());
  EXPECT_EQ(pooled_eval.num_model_evals(), evals + pool.size());
}

TEST(SearchSessionTest, EvictedFeaturesRecomputeThroughTheCompileMemo) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  SearchSession session(&evaluator);
  const std::vector<AggQuery> pool = MakePool(bundle, 6);

  // Cap the feature cache below one column: any later insert evicts the
  // previous epochs' entries (in-batch entries stay pinned).
  evaluator.set_feature_cache_cap_bytes(1);
  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  const size_t materializations = evaluator.num_feature_materializations();
  EXPECT_EQ(materializations, pool.size());
  EXPECT_EQ(evaluator.planner().compile_cache_misses(), pool.size());
  EXPECT_EQ(evaluator.num_feature_cache_evictions(), 0u);

  // The proxy cache answers the repeat pool without re-materializing.
  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  EXPECT_EQ(evaluator.num_feature_materializations(), materializations);

  // A fresh query's insert pushes the over-cap pool columns out.
  AggQuery fresh = bundle.golden_query;
  fresh.agg_attr = "discount";
  ASSERT_TRUE(fresh.Validate(bundle.relevant).ok());
  ASSERT_TRUE(evaluator.Feature(fresh).ok());
  EXPECT_GE(evaluator.num_feature_cache_evictions(), pool.size());

  // A model pass needs the evicted columns again: they re-materialize, but
  // planning is served from the compile memo — no fresh compiles.
  ASSERT_TRUE(session.ModelScores(pool).ok());
  EXPECT_EQ(evaluator.num_feature_materializations(),
            materializations + 1 + pool.size());
  EXPECT_GE(evaluator.planner().compile_cache_hits(), pool.size());
  EXPECT_EQ(evaluator.planner().compile_cache_misses(), pool.size() + 1);
}

}  // namespace
}  // namespace featlib
