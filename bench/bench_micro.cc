/// \file bench_micro.cc
/// \brief google-benchmark micro-benchmarks for the substrate primitives on
/// FeatAug's hot path: predicate filtering, group-by aggregation, the full
/// feature materialization (filter + group + aggregate + join), mutual
/// information, and one TPE suggest/observe step.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/harness.h"
#include "common/exec_context.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/augmenter.h"
#include "core/codec.h"
#include "core/feataug.h"
#include "core/generator.h"
#include "core/plan_io.h"
#include "data/synthetic.h"
#include "data/multi_table_data.h"
#include "hpo/tpe.h"
#include "query/query_planner.h"
#include "query/bitset.h"
#include "query/kernel_dispatch.h"
#include "query/sql_parser.h"
#include "stats/stats.h"

// The executor speedup record lands at the repo root (set by CMake) so it is
// found in one place regardless of where the binary runs.
#ifndef FEATLIB_REPO_ROOT
#define FEATLIB_REPO_ROOT "."
#endif

namespace featlib {
namespace {

const DatasetBundle& SharedBundle() {
  static const DatasetBundle* bundle = [] {
    SyntheticOptions options;
    options.n_train = 2000;
    options.avg_logs_per_entity = 15;
    options.seed = 42;
    return new DatasetBundle(MakeTmall(options));
  }();
  return *bundle;
}

void BM_PredicateFilter(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  const auto filter =
      CompiledFilter::Compile(SharedBundle().golden_query.predicates, b.relevant);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.value().Apply());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(b.relevant.num_rows()));
}
BENCHMARK(BM_PredicateFilter);

void BM_GroupByAggregate(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  AggQuery q = b.golden_query;
  q.predicates.clear();
  q.agg = static_cast<AggFunction>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueryPlanner().ExecuteAggQuery(q, b.relevant));
  }
  state.SetLabel(AggFunctionName(q.agg));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(b.relevant.num_rows()));
}
BENCHMARK(BM_GroupByAggregate)
    ->Arg(static_cast<int>(AggFunction::kSum))
    ->Arg(static_cast<int>(AggFunction::kAvg))
    ->Arg(static_cast<int>(AggFunction::kCountDistinct))
    ->Arg(static_cast<int>(AggFunction::kMedian))
    ->Arg(static_cast<int>(AggFunction::kEntropy));

void BM_FeatureMaterialization(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueryPlanner().ComputeFeatureColumn(
        b.golden_query, b.training, b.relevant));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(b.relevant.num_rows()));
}
BENCHMARK(BM_FeatureMaterialization);

// The candidate pool of a template search: every agg function crossed with
// predicate variants of the golden query, all sharing one set of group keys
// — the repeated-template workload the QueryPlanner amortizes.
std::vector<AggQuery> TemplateCandidates(const DatasetBundle& b) {
  std::vector<std::vector<Predicate>> pred_sets;
  pred_sets.push_back({});
  if (!b.golden_query.predicates.empty()) {
    pred_sets.push_back(b.golden_query.predicates);
    pred_sets.push_back({b.golden_query.predicates.front()});
  }
  std::vector<AggQuery> out;
  for (AggFunction fn : AllAggFunctions()) {
    for (const auto& preds : pred_sets) {
      AggQuery q = b.golden_query;
      q.agg = fn;
      q.predicates = preds;
      if (q.Validate(b.relevant).ok()) out.push_back(std::move(q));
    }
  }
  return out;
}

// Unamortized baseline: a fresh planner per candidate pays the full group
// index / mask / view build cost every time, like the retired legacy
// per-candidate executor did.
void BM_PerCandidateEvaluation(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  const std::vector<AggQuery> candidates = TemplateCandidates(b);
  for (auto _ : state) {
    for (const AggQuery& q : candidates) {
      QueryPlanner fresh;
      benchmark::DoNotOptimize(
          fresh.ComputeFeatureColumn(q, b.training, b.relevant));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_PerCandidateEvaluation);

void BM_BatchedCandidateEvaluation(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  const std::vector<AggQuery> candidates = TemplateCandidates(b);
  for (auto _ : state) {
    // Fresh executor per iteration: the group-index build is charged to the
    // batch, as in a real search over a new template.
    QueryPlanner executor;
    benchmark::DoNotOptimize(
        executor.EvaluateMany(candidates, b.training, b.relevant));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_BatchedCandidateEvaluation);

// The same batch fanned out over a pool of Arg(0) threads.
void BM_ParallelCandidateEvaluation(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  const std::vector<AggQuery> candidates = TemplateCandidates(b);
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    QueryPlanner executor;
    executor.set_thread_pool(&pool);
    benchmark::DoNotOptimize(
        executor.EvaluateMany(candidates, b.training, b.relevant));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_ParallelCandidateEvaluation)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Slices the training table into `n_batches` contiguous row ranges — the
// serving workload: the same plan applied to successive incoming batches.
std::vector<Table> MakeServingBatches(const Table& training, size_t n_batches) {
  std::vector<Table> out;
  const size_t rows = training.num_rows();
  for (size_t b = 0; b < n_batches; ++b) {
    std::vector<uint32_t> indices;
    const size_t begin = b * rows / n_batches;
    const size_t end = (b + 1) * rows / n_batches;
    indices.reserve(end - begin);
    for (size_t r = begin; r < end; ++r) {
      indices.push_back(static_cast<uint32_t>(r));
    }
    out.push_back(training.Take(indices));
  }
  return out;
}

std::unique_ptr<FittedAugmenter> MakeWarmHandle(
    const DatasetBundle& b, const std::vector<AggQuery>& candidates) {
  FittedAugmenter::Source source;
  source.relevant = b.relevant;
  source.queries = candidates;
  std::vector<FittedAugmenter::Source> sources;
  sources.push_back(std::move(source));
  auto fitted = FittedAugmenter::Create(std::move(sources));
  if (!fitted.ok()) {
    std::fprintf(stderr, "FittedAugmenter::Create failed: %s\n",
                 fitted.status().ToString().c_str());
    return nullptr;
  }
  std::unique_ptr<FittedAugmenter> handle = std::move(fitted).ValueOrDie();
  // Isolate plan-cache reuse: both arms of the comparison run serial.
  handle->set_thread_pool(nullptr);
  return handle;
}

// The cross-batch plan-cache comparison: a fresh planner per batch re-pays
// every group-index / mask / view / materialization build (the cost model
// of the pre-handle Apply path), while the warm FittedAugmenter only binds
// the batch's training-row maps and runs kernels. Arg(0): 0 = cold, 1 = warm.
void BM_TransformWarmVsCold(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  const std::vector<AggQuery> candidates = TemplateCandidates(b);
  const std::vector<Table> batches = MakeServingBatches(b.training, 8);
  const bool warm = state.range(0) == 1;
  std::unique_ptr<FittedAugmenter> handle =
      warm ? MakeWarmHandle(b, candidates) : nullptr;
  if (warm && handle == nullptr) {
    state.SkipWithError("handle creation failed");
    return;
  }
  for (auto _ : state) {
    for (const Table& batch : batches) {
      if (warm) {
        benchmark::DoNotOptimize(handle->ComputeFeatureColumns(batch));
      } else {
        QueryPlanner fresh;
        benchmark::DoNotOptimize(
            fresh.EvaluateMany(candidates, batch, b.relevant));
      }
    }
  }
  state.SetLabel(warm ? "warm" : "cold");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batches.size() *
                                               candidates.size()));
}
BENCHMARK(BM_TransformWarmVsCold)->Arg(0)->Arg(1);

// ---- The search-pipeline comparison -----------------------------------------
//
// Both arms run the same seed-pinned TPE trajectory over the golden
// template: suggest_batch_size=1 reproduces the retired sequential loop
// proposal-for-proposal (pinned by generator_test), so the arms differ only
// in the *pipeline* — singleton ProxyScore / ModelScore({q}) calls with
// every repeat proposal recomputed (the pre-batching search side) vs the
// SearchSession pipeline (pooled Features evaluation + proxy/model score
// caches). TPE's exploitation phase re-proposes heavily, so the session
// caches absorb a large share of the warm-up's proxy computations. This is
// the conservative single-thread lower bound: larger batch sizes change the
// trajectory (they explore more distinct candidates per budget), and the
// pooled EvaluateMany fan-out adds multi-core scaling on top.

GeneratorOptions SearchArmOptions() {
  GeneratorOptions options;
  options.backend = HpoBackend::kTpe;
  options.warmup_iterations = 400;
  options.warmup_top_k = 3;
  options.generation_iterations = 3;
  options.n_queries = 5;
  options.seed = 17;
  options.suggest_batch_size = 1;  // trajectory-identical to the reference
  return options;
}

Result<FeatureEvaluator> MakeSearchEvaluator(const DatasetBundle& b) {
  EvaluatorOptions options;
  options.model = ModelKind::kLogisticRegression;
  options.metric = MetricKind::kAuc;
  return FeatureEvaluator::Create(b.training, b.label_col, b.base_features,
                                  b.relevant, b.task, options);
}

// The retired per-candidate search loop: one suggest/evaluate/observe
// round-trip at a time through the evaluator's singleton entry points.
Status RunSequentialSearchReference(FeatureEvaluator* evaluator,
                                    const QueryTemplate& tmpl,
                                    const GeneratorOptions& options) {
  FEAT_ASSIGN_OR_RETURN(QueryVectorCodec codec,
                        QueryVectorCodec::Create(tmpl, evaluator->relevant()));
  std::vector<Trial> warm_trials;
  std::unordered_map<std::string, double> evaluated;
  auto model_eval = [&](const ParamVector& v, bool warm) -> Status {
    FEAT_ASSIGN_OR_RETURN(AggQuery q, codec.Decode(v));
    const std::string key = q.CacheKey();
    auto it = evaluated.find(key);
    double loss;
    if (it != evaluated.end()) {
      loss = it->second;
    } else {
      FEAT_ASSIGN_OR_RETURN(double metric, evaluator->ModelScore({q}));
      loss = evaluator->ScoreToLoss(metric);
      evaluated.emplace(key, loss);
    }
    if (warm) warm_trials.push_back(Trial{v, loss});
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
    FEAT_RETURN_NOT_OK(model_eval(proxy_history[i].first, /*warm=*/true));
  }

  TpeOptions gen_tpe = options.tpe;
  gen_tpe.seed = options.seed + 1;
  Tpe generation_search(codec.space(), gen_tpe);
  generation_search.WarmStart(warm_trials);
  for (int i = 0; i < options.generation_iterations; ++i) {
    ParamVector v = generation_search.Suggest();
    FEAT_RETURN_NOT_OK(model_eval(v, /*warm=*/false));
    FEAT_ASSIGN_OR_RETURN(AggQuery q, codec.Decode(v));
    generation_search.Observe(v, evaluated.at(q.CacheKey()));
  }
  return Status::OK();
}

void BM_SearchBatchedVsSequential(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  const bool batched = state.range(0) == 1;
  GeneratorOptions options = SearchArmOptions();
  options.warmup_iterations = 120;  // keep the registered benchmark light
  for (auto _ : state) {
    state.PauseTiming();
    auto evaluator = MakeSearchEvaluator(b);
    if (!evaluator.ok()) {
      state.SkipWithError("evaluator creation failed");
      return;
    }
    FeatureEvaluator eval = std::move(evaluator).ValueOrDie();
    state.ResumeTiming();
    if (batched) {
      SqlQueryGenerator generator(&eval, options);
      benchmark::DoNotOptimize(generator.Run(b.golden_template));
    } else {
      Status st = RunSequentialSearchReference(&eval, b.golden_template, options);
      benchmark::DoNotOptimize(st);
    }
  }
  state.SetLabel(batched ? "batched" : "sequential");
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(options.warmup_iterations +
                           options.warmup_top_k +
                           options.generation_iterations));
}
BENCHMARK(BM_SearchBatchedVsSequential)->Arg(0)->Arg(1);

// Word-packed predicate-mask AND (the per-candidate conjunction step).
void BM_BitsetAnd(benchmark::State& state) {
  const size_t n = SharedBundle().relevant.num_rows();
  Bitset a(n), mask(n);
  for (size_t i = 0; i < n; i += 3) a.Set(i);
  for (size_t i = 0; i < n; i += 2) mask.Set(i);
  for (auto _ : state) {
    a.AndWith(mask);
    benchmark::DoNotOptimize(const_cast<uint64_t*>(a.words()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BitsetAnd);

void BM_MutualInformation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = x[i] > 0 ? 1.0 : 0.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutualInformation(x, y, true));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MutualInformation)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TpeSuggestObserve(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  auto codec = QueryVectorCodec::Create(b.golden_template, b.relevant);
  TpeOptions options;
  options.seed = 3;
  Tpe tpe(codec.value().space(), options);
  Rng rng(4);
  // Pre-populate history so Suggest exercises the surrogate path.
  for (int i = 0; i < 64; ++i) {
    ParamVector v = codec.value().space().Sample(&rng);
    tpe.Observe(v, rng.Normal());
  }
  for (auto _ : state) {
    ParamVector v = tpe.Suggest();
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_TpeSuggestObserve);

void BM_QueryVectorDecode(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  auto codec = QueryVectorCodec::Create(b.golden_template, b.relevant);
  Rng rng(5);
  ParamVector v = codec.value().space().Sample(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.value().Decode(v));
  }
}
BENCHMARK(BM_QueryVectorDecode);

void BM_SqlParse(benchmark::State& state) {
  const DatasetBundle& b = SharedBundle();
  const std::string sql = b.golden_query.ToSql("relevant", b.relevant);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseAggQuerySql(sql));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sql.size()));
}
BENCHMARK(BM_SqlParse);

void BM_FlattenRelevant(benchmark::State& state) {
  SyntheticOptions options;
  options.n_train = static_cast<size_t>(state.range(0));
  options.avg_logs_per_entity = 10;
  options.seed = 11;
  const MultiTableBundle bundle = MakeInstacartMultiTable(options);
  auto graph = bundle.BuildGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.value().FlattenRelevant("order_items"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bundle.order_items.num_rows()));
}
BENCHMARK(BM_FlattenRelevant)->Arg(1000)->Arg(5000);

// Shared inputs of the kernel-backend comparison (BM_KernelScalarVsSimd and
// the speedup record's kernel_* fields): the golden template's group index
// and compiled filter, a dense ~95% row mask, and the agg attribute's
// numeric view — the dense-mask shapes the vectorized backend targets
// (compare+movemask predicate evaluation, run-decoded streaming
// aggregation, aligned bucket materialization + slice MIN/MAX).
struct KernelBenchInputs {
  const GroupIndex* index = nullptr;         // golden keys: many small groups
  const GroupIndex* coarse_index = nullptr;  // coarse key: few long slices
  const CompiledFilter* filter = nullptr;
  Bitset dense_mask;
  std::vector<double> view;
  size_t n_rows = 0;
};

// Picks a low-cardinality group key for the long-slice materialized shape:
// the golden keys give entity-grained groups (slices of ~avg_logs rows),
// while template pools also group by coarse attributes whose slices span
// thousands of rows — where the aligned slice MIN/MAX vector loop engages.
std::vector<std::string> CoarseGroupKeys(const DatasetBundle& b) {
  for (const char* name : {"weekday", "order_dow", "hour"}) {
    if (b.relevant.HasColumn(name)) return {name};
  }
  return b.golden_query.group_keys;
}

const KernelBenchInputs& KernelBenchFixture() {
  static const KernelBenchInputs* inputs = [] {
    const DatasetBundle& b = SharedBundle();
    auto* in = new KernelBenchInputs();
    auto index = GroupIndex::Build(b.relevant, b.golden_query.group_keys);
    auto coarse = GroupIndex::Build(b.relevant, CoarseGroupKeys(b));
    auto filter =
        CompiledFilter::Compile(b.golden_query.predicates, b.relevant);
    auto view_col = b.relevant.GetColumn(b.golden_query.agg_attr);
    if (!index.ok() || !coarse.ok() || !filter.ok() || !view_col.ok()) {
      std::fprintf(stderr, "kernel bench fixture construction failed\n");
      std::abort();
    }
    in->index = new GroupIndex(std::move(index).ValueOrDie());
    in->coarse_index = new GroupIndex(std::move(coarse).ValueOrDie());
    in->filter = new CompiledFilter(std::move(filter).ValueOrDie());
    in->n_rows = b.relevant.num_rows();
    in->dense_mask = Bitset(in->n_rows);
    for (size_t i = 0; i < in->n_rows; ++i) {
      if (i % 19 != 7) in->dense_mask.Set(i);  // ~95% selected
    }
    in->view.resize(in->n_rows);
    for (size_t row = 0; row < in->n_rows; ++row) {
      in->view[row] = view_col.value()->AsDouble(row);
    }
    return in;
  }();
  return *inputs;
}

// Everything one composite pass produces — returned so the bit-identity
// check can compare backends output-for-output.
struct KernelCompositeOut {
  Bitset mask;
  std::vector<uint32_t> first_selected;
  std::vector<double> count, sum;
  MaterializedValues mat;
  std::vector<double> mn, mx;
};

// One pass of the dense-mask kernel workload through a backend table:
// fused predicate->mask evaluation, streaming COUNT (first-selected-row
// tracking) and SUM, bucket materialization, and slice MIN/MAX — every
// entry point the planner dispatches through except the training-row
// scatter (timed end-to-end by the EvaluateMany arms above).
KernelCompositeOut RunKernelComposite(const KernelOps& ops) {
  const KernelBenchInputs& in = KernelBenchFixture();
  KernelCompositeOut out;
  out.mask = Bitset(in.n_rows);
  ops.build_filter_mask(*in.filter, &out.mask);
  out.count = ops.aggregate_streaming(AggFunction::kCount, *in.index,
                                      &in.dense_mask, nullptr,
                                      &out.first_selected);
  out.sum = ops.aggregate_streaming(AggFunction::kSum, *in.index,
                                    &in.dense_mask, in.view.data(), nullptr);
  out.mat = BuildMaterializedValues(ops, *in.coarse_index, &in.dense_mask,
                                    in.view.data());
  const size_t n_groups = out.mat.present.size();
  out.mn.resize(n_groups);
  out.mx.resize(n_groups);
  ops.aggregate_from_materialized(AggFunction::kMin, out.mat, 0, n_groups,
                                  out.mn.data());
  ops.aggregate_from_materialized(AggFunction::kMax, out.mat, 0, n_groups,
                                  out.mx.data());
  return out;
}

void BM_KernelScalarVsSimd(benchmark::State& state) {
  const KernelOps& ops =
      state.range(0) == 0 ? ScalarKernelOps() : SimdKernelOps();
  KernelBenchFixture();  // build outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKernelComposite(ops));
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "scalar" : "simd/") +
                 (state.range(0) == 0 ? "" : SimdLevelName(ops.level)));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(KernelBenchFixture().n_rows));
}
BENCHMARK(BM_KernelScalarVsSimd)->Arg(0)->Arg(1);

}  // namespace

// True when every (row, candidate) cell matches bit for bit (NaN == NaN).
static bool ColumnsBitIdentical(const std::vector<double>& a,
                                const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (std::isnan(a[r]) && std::isnan(b[r])) continue;
    if (std::memcmp(&a[r], &b[r], sizeof(double)) != 0) return false;
  }
  return true;
}

// True when two composite kernel passes agree output-for-output at the byte
// level — the backend bit-identity contract, checked on the exact workload
// the kernel_* timing fields compare.
static bool KernelOutputsBitIdentical(const KernelCompositeOut& a,
                                      const KernelCompositeOut& b) {
  if (a.mask.num_words() != b.mask.num_words() ||
      std::memcmp(a.mask.words(), b.mask.words(),
                  a.mask.num_words() * sizeof(uint64_t)) != 0) {
    return false;
  }
  if (a.first_selected != b.first_selected) return false;
  if (a.mat.present != b.mat.present || a.mat.offsets != b.mat.offsets)
    return false;
  if (a.mat.flat.size() != b.mat.flat.size() ||
      std::memcmp(a.mat.flat.data(), b.mat.flat.data(),
                  a.mat.flat.size() * sizeof(double)) != 0) {
    return false;
  }
  return ColumnsBitIdentical(a.count, b.count) &&
         ColumnsBitIdentical(a.sum, b.sum) && ColumnsBitIdentical(a.mn, b.mn) &&
         ColumnsBitIdentical(a.mx, b.mx);
}

// Times the repeated-template candidate-evaluation workload on the
// unamortized per-candidate baseline (fresh planner each call — the cost
// model of the retired legacy executor) vs the batched planner at every
// thread count of the sweep, verifies the feature columns are bit-identical
// at each count, and emits a machine-readable speedup record with per-phase
// (prepare vs fan-out) timings — prepare now runs on the pool too — and the
// word-packed vs byte-per-row mask-AND micro-timing.
int WriteExecutorSpeedupRecord(const char* path,
                               const std::vector<int>& thread_counts) {
  const DatasetBundle& b = SharedBundle();
  const std::vector<AggQuery> candidates = TemplateCandidates(b);
  constexpr int kRepeats = 3;

  // Per-candidate reference columns, reused for the per-thread-count
  // equivalence checks (all outside the timed sections; also warms the
  // allocator).
  std::vector<std::vector<double>> reference_columns;
  reference_columns.reserve(candidates.size());
  for (const AggQuery& q : candidates) {
    QueryPlanner fresh;
    auto reference = fresh.ComputeFeatureColumn(q, b.training, b.relevant);
    if (!reference.ok()) {
      std::fprintf(stderr, "per-candidate evaluation failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    reference_columns.push_back(std::move(reference).ValueOrDie());
  }
  bool bit_identical = true;
  for (int threads : thread_counts) {
    ThreadPool pool(threads);
    QueryPlanner executor;
    executor.set_thread_pool(&pool);
    auto batched = executor.EvaluateMany(candidates, b.training, b.relevant);
    if (!batched.ok()) {
      std::fprintf(stderr, "batched evaluation (%d threads) failed: %s\n",
                   threads, batched.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!ColumnsBitIdentical(reference_columns[i], batched.value()[i])) {
        std::fprintf(stderr, "divergence at %d threads, candidate %zu (%s)\n",
                     threads, i, candidates[i].CacheKey().c_str());
        bit_identical = false;
        break;
      }
    }
  }

  WallTimer timer;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const AggQuery& q : candidates) {
      QueryPlanner fresh;
      benchmark::DoNotOptimize(
          fresh.ComputeFeatureColumn(q, b.training, b.relevant));
    }
  }
  const double per_candidate_seconds = timer.Seconds();

  // Thread sweep. A fresh executor per repeat charges the group-index and
  // mask builds to every batch, as in a real search over a new template.
  std::vector<double> sweep_seconds(thread_counts.size(), 0.0);
  std::vector<double> sweep_prepare(thread_counts.size(), 0.0);
  std::vector<double> sweep_aggregate(thread_counts.size(), 0.0);
  for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
    ThreadPool pool(thread_counts[ti]);
    timer.Restart();
    for (int rep = 0; rep < kRepeats; ++rep) {
      QueryPlanner executor;
      executor.set_thread_pool(&pool);
      benchmark::DoNotOptimize(
          executor.EvaluateMany(candidates, b.training, b.relevant));
      // Summed over repeats so the phase fields decompose threads_N_seconds.
      sweep_prepare[ti] += executor.last_prepare_seconds();
      sweep_aggregate[ti] += executor.last_aggregate_seconds();
    }
    sweep_seconds[ti] = timer.Seconds();
  }

  // Word-packed vs byte-per-row mask AND over the relevant table's rows.
  const size_t n_rows = b.relevant.num_rows();
  constexpr int kAndReps = 4000;
  Bitset bits_a(n_rows), bits_b(n_rows);
  std::vector<uint8_t> bytes_a(n_rows, 0), bytes_b(n_rows, 0);
  for (size_t i = 0; i < n_rows; i += 3) {
    bits_a.Set(i);
    bytes_a[i] = 1;
  }
  for (size_t i = 0; i < n_rows; i += 2) {
    bits_b.Set(i);
    bytes_b[i] = 1;
  }
  timer.Restart();
  for (int rep = 0; rep < kAndReps; ++rep) {
    bits_a.AndWith(bits_b);
    benchmark::DoNotOptimize(const_cast<uint64_t*>(bits_a.words()));
  }
  const double bitset_and_seconds = timer.Seconds() / kAndReps;
  timer.Restart();
  for (int rep = 0; rep < kAndReps; ++rep) {
    for (size_t i = 0; i < n_rows; ++i) bytes_a[i] &= bytes_b[i];
    benchmark::DoNotOptimize(bytes_a.data());
  }
  const double bytemask_and_seconds = timer.Seconds() / kAndReps;

  // Scalar vs simd kernel backend on the dense-mask composite workload
  // (fused predicate->mask, run-decoded streaming aggregation, aligned
  // bucket materialization + slice MIN/MAX). Outputs are verified
  // byte-identical first — the backend contract — then best-of-k
  // interleaved repeats cancel drift, exactly as the ExecContext arms.
  double kernel_scalar_seconds = 0.0, kernel_simd_seconds = 0.0;
  bool kernel_simd_bit_identical = false;
  {
    const KernelOps& scalar_ops = ScalarKernelOps();
    const KernelOps& simd_ops = SimdKernelOps();
    kernel_simd_bit_identical = KernelOutputsBitIdentical(
        RunKernelComposite(scalar_ops), RunKernelComposite(simd_ops));
    constexpr int kKernelReps = 7;
    constexpr int kKernelCallsPerRep = 10;
    double scalar_best = 0.0, simd_best = 0.0;
    for (int rep = 0; rep < kKernelReps; ++rep) {
      timer.Restart();
      for (int c = 0; c < kKernelCallsPerRep; ++c) {
        benchmark::DoNotOptimize(RunKernelComposite(scalar_ops));
      }
      const double s = timer.Seconds();
      timer.Restart();
      for (int c = 0; c < kKernelCallsPerRep; ++c) {
        benchmark::DoNotOptimize(RunKernelComposite(simd_ops));
      }
      const double v = timer.Seconds();
      if (rep == 0 || s < scalar_best) scalar_best = s;
      if (rep == 0 || v < simd_best) simd_best = v;
    }
    kernel_scalar_seconds = scalar_best / kKernelCallsPerRep;
    kernel_simd_seconds = simd_best / kKernelCallsPerRep;
  }
  const double kernel_simd_speedup =
      kernel_simd_seconds > 0.0 ? kernel_scalar_seconds / kernel_simd_seconds
                                : 0.0;

  // Serving: the same plan applied to successive batches, cold (fresh
  // planner per batch, the pre-handle Apply cost model) vs warm (one
  // FittedAugmenter compiled once — the cross-batch plan cache). Outputs
  // are verified bit-identical before timing; both arms run serial.
  constexpr size_t kServingBatches = 8;
  constexpr int kServingRepeats = 3;
  const std::vector<Table> batches =
      MakeServingBatches(b.training, kServingBatches);
  std::unique_ptr<FittedAugmenter> handle = MakeWarmHandle(b, candidates);
  if (handle == nullptr) return 1;
  bool transform_bit_identical = true;
  for (const Table& batch : batches) {
    QueryPlanner fresh;
    auto cold = fresh.EvaluateMany(candidates, batch, b.relevant);
    auto warm = handle->ComputeFeatureColumns(batch);
    if (!cold.ok() || !warm.ok()) {
      std::fprintf(stderr, "serving comparison failed: %s\n",
                   (!cold.ok() ? cold : warm).status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!ColumnsBitIdentical(cold.value()[i], warm.value()[i])) {
        std::fprintf(stderr, "warm/cold divergence on candidate %zu (%s)\n", i,
                     candidates[i].CacheKey().c_str());
        transform_bit_identical = false;
        break;
      }
    }
  }
  timer.Restart();
  for (int rep = 0; rep < kServingRepeats; ++rep) {
    for (const Table& batch : batches) {
      QueryPlanner fresh;
      benchmark::DoNotOptimize(fresh.EvaluateMany(candidates, batch, b.relevant));
    }
  }
  const double transform_cold_seconds = timer.Seconds();
  timer.Restart();
  for (int rep = 0; rep < kServingRepeats; ++rep) {
    for (const Table& batch : batches) {
      benchmark::DoNotOptimize(handle->ComputeFeatureColumns(batch));
    }
  }
  const double transform_warm_seconds = timer.Seconds();

  // Search side: the retired sequential per-candidate loop vs the batched
  // suggest -> pooled-evaluate -> observe-all pipeline, on the same
  // seed-pinned trajectory (see BM_SearchBatchedVsSequential).
  constexpr int kSearchRepeats = 3;
  const GeneratorOptions search_options = SearchArmOptions();
  std::vector<FeatureEvaluator> sequential_evals, batched_evals;
  for (int rep = 0; rep < 2 * kSearchRepeats; ++rep) {
    auto evaluator = MakeSearchEvaluator(b);
    if (!evaluator.ok()) {
      std::fprintf(stderr, "search evaluator creation failed: %s\n",
                   evaluator.status().ToString().c_str());
      return 1;
    }
    (rep < kSearchRepeats ? sequential_evals : batched_evals)
        .push_back(std::move(evaluator).ValueOrDie());
  }
  timer.Restart();
  for (FeatureEvaluator& eval : sequential_evals) {
    Status st =
        RunSequentialSearchReference(&eval, b.golden_template, search_options);
    if (!st.ok()) {
      std::fprintf(stderr, "sequential search failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  const double search_sequential_seconds = timer.Seconds();
  size_t search_proxy_cache_hits = 0;
  timer.Restart();
  for (FeatureEvaluator& eval : batched_evals) {
    SqlQueryGenerator generator(&eval, search_options);
    auto gen = generator.Run(b.golden_template);
    if (!gen.ok()) {
      std::fprintf(stderr, "batched search failed: %s\n",
                   gen.status().ToString().c_str());
      return 1;
    }
    // A search that silently skipped candidates (partial-failure isolation)
    // would time a smaller workload than the sequential arm — refuse to
    // write a record comparing different search spaces.
    if (gen.value().failed_candidates > 0) {
      std::fprintf(stderr,
                   "batched search skipped %zu failed candidate(s); "
                   "refusing to write a biased record\n",
                   gen.value().failed_candidates);
      return 1;
    }
    search_proxy_cache_hits = gen.value().proxy_cache_hits;
  }
  const double search_batched_seconds = timer.Seconds();

  // The repeated-pool compile-memoization workload: successive HPO rounds
  // re-plan heavily overlapping pools through one warm planner; the overlap
  // resolves from the compile memo instead of re-validating and re-deriving
  // artifact keys.
  QueryPlanner repeated_pool_planner;
  constexpr size_t kMemoRounds = 6;
  const size_t window = (candidates.size() * 2) / 3;
  const size_t stride = std::max<size_t>(1, candidates.size() / 4);
  for (size_t round = 0; round < kMemoRounds; ++round) {
    std::vector<AggQuery> pool;
    pool.reserve(window);
    for (size_t k = 0; k < window; ++k) {
      pool.push_back(candidates[(round * stride + k) % candidates.size()]);
    }
    auto result =
        repeated_pool_planner.EvaluateMany(pool, b.training, b.relevant);
    if (!result.ok()) {
      std::fprintf(stderr, "repeated-pool round %zu failed: %s\n", round,
                   result.status().ToString().c_str());
      return 1;
    }
  }
  const size_t compile_hits = repeated_pool_planner.compile_cache_hits();
  const size_t compile_misses = repeated_pool_planner.compile_cache_misses();
  const double plan_compile_hit_rate =
      compile_hits + compile_misses > 0
          ? static_cast<double>(compile_hits) /
                static_cast<double>(compile_hits + compile_misses)
          : 0.0;

  // ExecContext overhead: the cooperative limit checks (cancellation /
  // deadline probes at chunk and stage boundaries, budget CAS charges) must
  // be invisible when no limit is set. Both arms run the same batch on one
  // warm planner (so they share every artifact and its memory layout) back
  // to back within each rep, in alternating order, and the reported
  // overhead is the median of the per-rep on/off ratios: pairing cancels
  // drift between reps and the median discards reps a neighbor disturbed.
  // The CI gate (scripts/ci.sh) asserts it stays under 2%.
  constexpr int kCtxReps = 61;
  constexpr int kCtxCallsPerRep = 3;
  double ctx_off_seconds = 0.0, ctx_on_seconds = 0.0;
  double exec_context_overhead = 1.0;
  {
    QueryPlanner warm;
    ExecContext unlimited;  // no deadline, no budget: checks always pass
    // Warm the store outside the timed region.
    benchmark::DoNotOptimize(warm.EvaluateMany(candidates, b.training, b.relevant));
    auto time_arm = [&](bool with_context) {
      timer.Restart();
      for (int c = 0; c < kCtxCallsPerRep; ++c) {
        benchmark::DoNotOptimize(
            warm.EvaluateMany(candidates, b.training, b.relevant,
                              with_context ? &unlimited : nullptr));
      }
      return timer.Seconds();
    };
    std::vector<double> off_times, on_times, ratios;
    for (int rep = 0; rep < kCtxReps; ++rep) {
      double off = 0.0, on = 0.0;
      if (rep % 2 == 0) {
        off = time_arm(false);
        on = time_arm(true);
      } else {
        on = time_arm(true);
        off = time_arm(false);
      }
      off_times.push_back(off);
      on_times.push_back(on);
      if (off > 0.0) ratios.push_back(on / off);
    }
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    ctx_off_seconds = median(off_times);
    ctx_on_seconds = median(on_times);
    if (!ratios.empty()) exec_context_overhead = median(ratios);
  }

  // Durable-fit overhead: the same small fit with checkpointing off vs on
  // (atomic snapshot writes at round boundaries). The gated ratio compares
  // process CPU time (CLOCK_PROCESS_CPUTIME_ID): it counts all the work
  // checkpointing adds — snapshot serialization on the fit thread and the
  // background writer thread — and the model trainings the fit runs on pool
  // workers, so the denominator is the whole fit, not the share of it that
  // stays on the fit thread. CPU time is also immune to the
  // scheduler/neighbor jitter that drowns a 2% effect in wall-clock on a
  // shared machine. Wall-clock medians are kept in the record for
  // observability (they include the one bounded Flush fsync at fit end);
  // the arms alternate order within each rep so drift cannot favor one
  // side. The CI gate (scripts/ci.sh) asserts the CPU ratio stays under 2%
  // and that the durable fit's plan is byte-identical.
  constexpr int kCkptReps = 61;
  double checkpoint_off_seconds = 0.0, checkpoint_on_seconds = 0.0;
  double checkpoint_snapshots = 0.0;
  double checkpoint_overhead = 1.0;
  bool checkpoint_plan_identical = true;
  {
    FeatAugOptions fit_options;
    fit_options.n_templates = 4;
    fit_options.queries_per_template = 3;
    fit_options.generator.warmup_iterations = 20;
    fit_options.generator.warmup_top_k = 5;
    fit_options.generator.generation_iterations = 16;
    fit_options.qti.beam_width = 2;
    fit_options.qti.max_depth = 2;
    fit_options.qti.node_iterations = 10;
    fit_options.evaluator.model = ModelKind::kLogisticRegression;
    fit_options.evaluator.metric = MetricKind::kAuc;
    fit_options.seed = 11;
    FeatAugOptions durable_options = fit_options;
    durable_options.checkpoint.dir = ".";
    durable_options.checkpoint.tag = "bench";
    // The production cadence: snapshot every few rounds, not every round —
    // each snapshot is an fsync'd file write, so the rate limit is what
    // amortizes durability to noise on a realistically sized fit.
    durable_options.checkpoint.every_rounds = 96;
    const std::string ckpt_path = "./fit_bench.ckpt";
    const FeatAugProblem problem = b.ToProblem();
    std::string off_plan_bytes, on_plan_bytes;
    std::vector<double> off_times, on_times;      // wall, for the record
    std::vector<double> off_cpu, on_cpu;          // process CPU, gated
    auto process_cpu_seconds = []() {
      timespec ts;
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    };
    auto run_off = [&]() -> bool {
      const double cpu0 = process_cpu_seconds();
      timer.Restart();
      FeatAug fit(problem, fit_options);
      auto plan = fit.Fit();
      off_times.push_back(timer.Seconds());
      off_cpu.push_back(process_cpu_seconds() - cpu0);
      if (!plan.ok()) {
        std::fprintf(stderr, "checkpoint-overhead fit failed: %s\n",
                     plan.status().ToString().c_str());
        return false;
      }
      off_plan_bytes =
          SerializeAugmentationPlan(plan.value(), "R", b.relevant);
      return true;
    };
    auto run_on = [&]() -> bool {
      std::remove(ckpt_path.c_str());  // each durable rep starts cold
      const double cpu0 = process_cpu_seconds();
      timer.Restart();
      FeatAug fit(problem, durable_options);
      auto plan = fit.Fit();
      on_times.push_back(timer.Seconds());
      on_cpu.push_back(process_cpu_seconds() - cpu0);
      if (!plan.ok()) {
        std::fprintf(stderr, "checkpoint-overhead durable fit failed: %s\n",
                     plan.status().ToString().c_str());
        return false;
      }
      on_plan_bytes =
          SerializeAugmentationPlan(plan.value(), "R", b.relevant);
      checkpoint_snapshots =
          static_cast<double>(plan.value().checkpoints_written);
      return true;
    };
    // Steady state: drain pending writeback first (a prior build's dirty
    // pages otherwise bill their flush to this bench's first fsyncs) and
    // absorb cold-start effects with one untimed pair.
    ::sync();
    if (!run_off() || !run_on()) return 1;
    checkpoint_plan_identical &= off_plan_bytes == on_plan_bytes;
    off_times.clear();
    on_times.clear();
    off_cpu.clear();
    on_cpu.clear();
    for (int rep = 0; rep < kCkptReps; ++rep) {
      const bool ok = (rep % 2 == 0) ? run_off() && run_on()
                                     : run_on() && run_off();
      if (!ok) return 1;
      checkpoint_plan_identical &= off_plan_bytes == on_plan_bytes;
    }
    std::remove(ckpt_path.c_str());
    if (std::getenv("FEATLIB_CKPT_DEBUG") != nullptr) {
      for (int rep = 0; rep < kCkptReps; ++rep) {
        std::fprintf(stderr,
                     "rep %d: wall off %.4f on %.4f | cpu off %.4f on %.4f "
                     "(%s first)\n",
                     rep, off_times[rep], on_times[rep], off_cpu[rep],
                     on_cpu[rep], rep % 2 == 0 ? "off" : "on");
      }
    }
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    checkpoint_off_seconds = median(off_times);
    checkpoint_on_seconds = median(on_times);
    // Gate on process CPU (median of per-rep ratios): deterministic work is
    // what checkpointing adds, and CPU time does not see the machine jitter
    // that wall-clock does.
    std::vector<double> cpu_ratios;
    for (int rep = 0; rep < kCkptReps; ++rep) {
      if (off_cpu[rep] > 0.0) cpu_ratios.push_back(on_cpu[rep] / off_cpu[rep]);
    }
    checkpoint_overhead = cpu_ratios.empty() ? 1.0 : median(cpu_ratios);
  }

  // ---- Out-of-core morsel execution (query/morsel.h): a 10× table where
  // whole-table artifacts dominate memory. Measures the peak ExecContext
  // charge of the single-pass path vs the morsel pipeline (the bounded-
  // memory claim, gated < 0.5 by scripts/ci.sh) and byte-identity of every
  // column. ----
  size_t morsel_peak_bytes = 0;
  size_t morsel_single_pass_peak_bytes = 0;
  bool morsel_bit_identical = true;
  double morsel_rows_used = 0.0;
  {
    SyntheticOptions big_options;
    big_options.n_train = 20000;  // 10× the shared bundle's training rows
    big_options.avg_logs_per_entity = 15;
    big_options.seed = 42;
    const DatasetBundle big = MakeTmall(big_options);
    // Streaming + two-sweep aggregates: the peak under test is the artifact
    // bound, not MEDIAN-style value buffering (which is O(selected rows) by
    // definition).
    std::vector<AggQuery> morsel_queries;
    for (AggFunction fn :
         {AggFunction::kCount, AggFunction::kSum, AggFunction::kAvg,
          AggFunction::kMin, AggFunction::kVar}) {
      AggQuery q = big.golden_query;
      q.agg = fn;
      q.predicates.clear();
      if (q.Validate(big.relevant).ok()) morsel_queries.push_back(std::move(q));
    }
    const size_t morsel_rows =
        std::max<size_t>(1, big.relevant.num_rows() / 24);
    morsel_rows_used = static_cast<double>(morsel_rows);

    ExecContext single_pass_ctx;
    QueryPlanner single_pass;
    auto single_out = single_pass.EvaluateMany(morsel_queries, big.training,
                                               big.relevant, &single_pass_ctx);
    if (!single_out.ok()) {
      std::fprintf(stderr, "morsel single-pass baseline failed: %s\n",
                   single_out.status().ToString().c_str());
      return 1;
    }
    morsel_single_pass_peak_bytes = single_pass_ctx.peak_charged_bytes();

    ExecContext morsel_ctx;
    QueryPlanner morsel_planner;
    morsel_planner.set_morsel_rows(morsel_rows);
    auto morsel_out = morsel_planner.EvaluateMany(
        morsel_queries, big.training, big.relevant, &morsel_ctx);
    if (!morsel_out.ok()) {
      std::fprintf(stderr, "morsel evaluation failed: %s\n",
                   morsel_out.status().ToString().c_str());
      return 1;
    }
    morsel_peak_bytes = morsel_ctx.peak_charged_bytes();
    for (size_t i = 0; i < morsel_queries.size(); ++i) {
      if (!ColumnsBitIdentical(single_out.value()[i], morsel_out.value()[i])) {
        std::fprintf(stderr, "morsel divergence at candidate %zu (%s)\n", i,
                     morsel_queries[i].CacheKey().c_str());
        morsel_bit_identical = false;
      }
    }
  }

  const double batched_seconds = sweep_seconds.front();  // 1-thread batched
  const double best_seconds =
      *std::min_element(sweep_seconds.begin(), sweep_seconds.end());
  const double max_threads_seconds = sweep_seconds.back();
  const double prepare_1 = sweep_prepare.front();
  const double prepare_max = sweep_prepare.back();
  bench::JsonRecord record;
  record.Add("bench", std::string("executor_batch_vs_per_candidate"))
      .Add("dataset", b.name)
      .Add("relevant_rows", static_cast<double>(b.relevant.num_rows()))
      .Add("training_rows", static_cast<double>(b.training.num_rows()))
      .Add("candidates", static_cast<double>(candidates.size()))
      .Add("repeats", static_cast<double>(kRepeats))
      .Add("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()))
      .Add("per_candidate_seconds", per_candidate_seconds)
      .Add("batched_seconds", batched_seconds)
      .Add("speedup", batched_seconds > 0.0
                          ? per_candidate_seconds / batched_seconds
                          : 0.0);
  std::string threads_list;
  for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
    if (ti > 0) threads_list += ",";
    threads_list += std::to_string(thread_counts[ti]);
    const std::string prefix = "threads_" + std::to_string(thread_counts[ti]);
    record.Add(prefix + "_seconds", sweep_seconds[ti])
        .Add(prefix + "_prepare_seconds", sweep_prepare[ti])
        .Add(prefix + "_aggregate_seconds", sweep_aggregate[ti]);
  }
  record.Add("threads", threads_list)
      .Add("parallel_speedup_max_threads_vs_1",
           max_threads_seconds > 0.0 ? batched_seconds / max_threads_seconds
                                     : 0.0)
      // Artifact builds (group index, masks, views, materializations) now
      // fan out on the pool too; this isolates the prepare-phase scaling.
      .Add("prepare_parallel", true)
      .Add("prepare_parallel_speedup_max_threads_vs_1",
           prepare_max > 0.0 ? prepare_1 / prepare_max : 0.0)
      .Add("speedup_at_max_threads",
           max_threads_seconds > 0.0
               ? per_candidate_seconds / max_threads_seconds
               : 0.0)
      .Add("speedup_at_best",
           best_seconds > 0.0 ? per_candidate_seconds / best_seconds : 0.0)
      .Add("bitset_and_seconds", bitset_and_seconds)
      .Add("bytemask_and_seconds", bytemask_and_seconds)
      // Scalar vs simd kernel backend on the dense-mask composite workload;
      // dispatch_level records the ISA the simd table engaged on this host
      // ("scalar" on machines without one — speedup then sits near 1.0).
      .Add("kernel_scalar_seconds", kernel_scalar_seconds)
      .Add("kernel_simd_seconds", kernel_simd_seconds)
      .Add("kernel_simd_speedup", kernel_simd_speedup)
      .Add("kernel_dispatch_level", std::string(SimdLevelName(DetectedSimdLevel())))
      .Add("kernel_simd_bit_identical", kernel_simd_bit_identical)
      // The serving comparison: warm FittedAugmenter (plan compiled once,
      // per-batch work = train maps + kernels) vs a fresh planner per batch.
      .Add("transform_batches", static_cast<double>(kServingBatches))
      .Add("transform_repeats", static_cast<double>(kServingRepeats))
      .Add("transform_cold_seconds", transform_cold_seconds)
      .Add("transform_warm_seconds", transform_warm_seconds)
      .Add("transform_warm_vs_cold",
           transform_warm_seconds > 0.0
               ? transform_cold_seconds / transform_warm_seconds
               : 0.0)
      .Add("transform_bit_identical", transform_bit_identical)
      // The search-pipeline comparison: identical seed-pinned TPE
      // trajectories, sequential per-candidate loop vs the SearchSession
      // pipeline (pooled evaluation + score caches) at batch size 1.
      .Add("search_repeats", static_cast<double>(kSearchRepeats))
      .Add("search_sequential_seconds", search_sequential_seconds)
      .Add("search_batched_seconds", search_batched_seconds)
      .Add("search_batched_speedup",
           search_batched_seconds > 0.0
               ? search_sequential_seconds / search_batched_seconds
               : 0.0)
      .Add("search_proxy_cache_hits",
           static_cast<double>(search_proxy_cache_hits))
      // The repeated-pool benchmark: overlapping pools re-planned through
      // one warm planner resolve from the compile memo.
      .Add("plan_compile_hits", static_cast<double>(compile_hits))
      .Add("plan_compile_misses", static_cast<double>(compile_misses))
      .Add("plan_compile_hit_rate", plan_compile_hit_rate)
      // Cost of the cooperative execution-limit checks when no limit is set
      // (ratio of the with-context arm over the no-context arm; 1.0 = free).
      .Add("exec_context_off_seconds", ctx_off_seconds)
      .Add("exec_context_on_seconds", ctx_on_seconds)
      .Add("exec_context_overhead", exec_context_overhead)
      // Cost of durable fit: atomic checksummed snapshots at round
      // boundaries (ratio of checkpointed over plain fit; 1.0 = free).
      .Add("checkpoint_off_seconds", checkpoint_off_seconds)
      .Add("checkpoint_on_seconds", checkpoint_on_seconds)
      .Add("checkpoint_overhead", checkpoint_overhead)
      .Add("checkpoint_snapshots", checkpoint_snapshots)
      .Add("checkpoint_plan_identical", checkpoint_plan_identical)
      // Out-of-core morsel execution on the 10× table: peak artifact memory
      // of the bounded pipeline vs the whole-table single pass and
      // byte-identity of every column.
      .Add("morsel_rows", morsel_rows_used)
      .Add("morsel_peak_bytes", static_cast<double>(morsel_peak_bytes))
      .Add("morsel_single_pass_peak_bytes",
           static_cast<double>(morsel_single_pass_peak_bytes))
      .Add("morsel_bit_identical", morsel_bit_identical)
      .Add("bit_identical", bit_identical);
  Status write_status = record.WriteTo(path);
  if (!write_status.ok()) {
    std::fprintf(stderr, "%s\n", write_status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", record.ToString().c_str());
  return bit_identical && transform_bit_identical &&
                 checkpoint_plan_identical && kernel_simd_bit_identical &&
                 morsel_bit_identical
             ? 0
             : 1;
}

}  // namespace featlib

int main(int argc, char** argv) {
  // Listing runs must not execute (or overwrite the record of) the speedup
  // comparison; tooling wraps --benchmark_list_tests around every binary.
  bool list_only = false;
  // --threads=a,b,c sets the EvaluateMany sweep of the speedup record
  // (ascending; the last entry is reported as "max threads").
  std::vector<int> thread_counts = {1, 2, 4, 8};
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark_list_tests") == 0 ||
        std::strcmp(argv[i], "--benchmark_list_tests=true") == 0) {
      list_only = true;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts.clear();
      const char* p = argv[i] + 10;
      while (*p != '\0') {
        char* end = nullptr;
        const long t = std::strtol(p, &end, 10);
        if (end == p || t <= 0) {
          std::fprintf(stderr, "bad --threads list: %s\n", argv[i]);
          return 1;
        }
        thread_counts.push_back(static_cast<int>(t));
        p = (*end == ',') ? end + 1 : end;
      }
      if (thread_counts.empty()) {
        std::fprintf(stderr, "bad --threads list: %s\n", argv[i]);
        return 1;
      }
      // The record's baseline and "max threads" fields assume a sorted,
      // deduplicated sweep that starts at the 1-thread batched path.
      thread_counts.push_back(1);
      std::sort(thread_counts.begin(), thread_counts.end());
      thread_counts.erase(
          std::unique(thread_counts.begin(), thread_counts.end()),
          thread_counts.end());
      continue;  // strip the flag: google-benchmark would reject it
    }
    argv[out_argc++] = argv[i];
  }
  argc = out_argc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (list_only) return 0;
  return featlib::WriteExecutorSpeedupRecord(
      FEATLIB_REPO_ROOT "/BENCH_executor.json", thread_counts);
}
