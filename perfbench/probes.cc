/// \file probes.cc
/// \brief Per-layer probes of a traced run.
///
/// Every probe calls one layer through its public entry point, inside a span
/// named after the layer, on dataset 0 of the workload. The fit itself is
/// re-run decomposed (TemplateIdentifier + SqlQueryGenerator on one
/// SearchSession, exactly as FeatAug::Fit drives them) so the core stages
/// get their own spans; its plan must equal the one the main loop produced.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <future>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/checkpoint.h"
#include "core/codec.h"
#include "core/generator.h"
#include "core/plan_io.h"
#include "core/search_session.h"
#include "core/template_id.h"
#include "hpo/tpe.h"
#include "ml/evaluator.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/plan_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "table/csv.h"
#include "trace.h"

namespace perfbench {

using featlib::AggQuery;
using featlib::FittedAugmenter;
using featlib::Result;
using featlib::Status;
using featlib::Table;

namespace {

constexpr int kRepeats = 3;
constexpr size_t kBatches = 64;
constexpr size_t kBatchRows = 32;
constexpr size_t kPoolSize = 64;
constexpr int kRequestsPerSubmitter = 50;

// Runs `f` inside a span and returns its wall seconds.
template <class F>
double Timed(const char* span, F&& f) {
  ScopedSpan s(span);
  const int64_t t0 = NowNs();
  f();
  return SecondsSince(t0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The decomposed fit: FeatAug::Fit's search loop with a span per stage.
struct DecomposedFit {
  featlib::AugmentationPlan plan;
  std::vector<featlib::QueryTemplate> templates;
  double seconds = 0.0;
  double qti_s = 0.0;
  double warmup_s = 0.0;
  double generate_s = 0.0;
  size_t checkpoints_written = 0;
};

Status RunDecomposedFit(const featlib::FeatAugProblem& problem,
                        const featlib::FeatAugOptions& options,
                        featlib::SearchSession* session,
                        const std::string& checkpoint_path, DecomposedFit* out) {
  ScopedSpan fit_span("core.fit_decomposed", 1);
  const int64_t start = NowNs();
  featlib::QueryTemplate base;
  base.agg_functions = problem.agg_functions;
  base.agg_attrs = problem.agg_attrs;
  base.fk_attrs = problem.fk_attrs;
  std::unique_ptr<featlib::CheckpointWriter> writer;
  if (!checkpoint_path.empty()) {
    writer = std::make_unique<featlib::CheckpointWriter>(
        checkpoint_path, featlib::FitSignature(problem, options),
        options.checkpoint.every_rounds);
    session->set_checkpoint(writer.get());
  }
  {
    ScopedSpan span("core.qti");
    const int64_t t0 = NowNs();
    featlib::TemplateIdOptions qti = options.qti;
    qti.n_templates = options.n_templates;
    qti.proxy = options.proxy;
    qti.seed = options.seed;
    featlib::TemplateIdentifier identifier(session, qti);
    FEAT_ASSIGN_OR_RETURN(featlib::TemplateIdResult result,
                          identifier.Run(base, problem.candidate_where_attrs));
    for (auto& scored : result.templates) out->templates.push_back(scored.tmpl);
    out->qti_s = SecondsSince(t0);
  }
  featlib::GeneratorOptions gen = options.generator;
  gen.enable_warmup = options.enable_warmup;
  gen.proxy = options.proxy;
  gen.n_queries = options.queries_per_template;
  std::unordered_set<std::string> dedup;
  double generator_s = 0.0;
  for (size_t t = 0; t < out->templates.size(); ++t) {
    ScopedSpan span("core.generate");
    const int64_t t0 = NowNs();
    gen.seed = options.seed + 1000 * (t + 1);
    featlib::SqlQueryGenerator generator(session, gen);
    FEAT_ASSIGN_OR_RETURN(featlib::GenerationResult result,
                          generator.Run(out->templates[t]));
    out->warmup_s += result.warmup_seconds;
    for (auto& gq : result.queries) {
      if (!dedup.insert(gq.query.CacheKey()).second) continue;
      out->plan.feature_names.push_back(featlib::StrFormat(
          "feataug_%s_%s_t%zu_q%zu", featlib::AggFunctionName(gq.query.agg),
          gq.query.agg_attr.c_str(), t, out->plan.queries.size()));
      out->plan.valid_metrics.push_back(gq.model_metric);
      out->plan.queries.push_back(gq.query);
    }
    generator_s += SecondsSince(t0);
  }
  out->generate_s = generator_s - out->warmup_s;
  if (writer != nullptr) {
    ScopedSpan span("core.checkpoint_flush");
    FEAT_RETURN_NOT_OK(session->CheckpointNow());
    FEAT_RETURN_NOT_OK(writer->Flush());
    out->checkpoints_written = writer->snapshots_written();
    session->set_checkpoint(nullptr);
  }
  out->seconds = SecondsSince(start);
  return Status::OK();
}

void CoreMetrics(const featlib::FeatureEvaluator& evaluator,
                 const featlib::SearchSession& session, const DecomposedFit& fit,
                 Outcome* out) {
  size_t proxy_hits = 0, model_hits = 0;
  for (featlib::SearchStage s :
       {featlib::SearchStage::kQti, featlib::SearchStage::kWarmup,
        featlib::SearchStage::kGeneration, featlib::SearchStage::kOther}) {
    proxy_hits += session.stage(s).proxy_cache_hits;
    model_hits += session.stage(s).model_cache_hits;
  }
  const double proxy_evals = static_cast<double>(evaluator.num_proxy_evals());
  const double model_evals = static_cast<double>(evaluator.num_model_evals());
  out->Add("core.qti_s", fit.qti_s, "s");
  out->Add("core.warmup_s", fit.warmup_s, "s");
  out->Add("core.generate_s", fit.generate_s, "s");
  out->Add("core.fit_s", fit.seconds, "s");
  out->Add("core.proxy_evals", proxy_evals, "count");
  out->Add("core.model_evals", model_evals, "count");
  out->Add("core.proxy_cache_hit_rate",
           Ratio(static_cast<double>(proxy_hits), proxy_hits + proxy_evals), "ratio");
  out->Add("core.model_cache_hit_rate",
           Ratio(static_cast<double>(model_hits), model_hits + model_evals), "ratio");
  out->Add("core.failed_candidates",
           static_cast<double>(session.failed_candidates().size()), "count");
  out->Add("core.feature_cache_evictions",
           static_cast<double>(evaluator.num_feature_cache_evictions()), "count");
  out->Add("core.checkpoints_written", static_cast<double>(fit.checkpoints_written),
           "count");
  const featlib::QueryPlanner& planner = evaluator.planner();
  const double hits = static_cast<double>(planner.compile_cache_hits());
  out->Add("query.compile_hit_rate",
           Ratio(hits, hits + static_cast<double>(planner.compile_cache_misses())),
           "ratio");
}

void CheckpointMetrics(const featlib::FeatAugProblem& problem,
                       const featlib::SearchSession& session,
                       const std::string& path, Outcome* out) {
  std::vector<double> seconds;
  const uint32_t signature = featlib::FitSignature(problem, FitOptions());
  for (int r = 0; r < kRepeats; ++r) {
    seconds.push_back(Timed("core.checkpoint_save", [&] {
      if (!featlib::SaveCheckpoint(path, session.ExportSnapshot(), signature).ok()) {
        out->Wrong("checkpoint save failed");
      }
    }));
  }
  struct stat st;
  const double bytes = ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  out->Add("core.checkpoint_write_s", Median(seconds), "s");
  out->Add("core.checkpoint_bytes", bytes, "bytes");
}

// Model and proxy scoring per call, with every plan feature already cached.
void ScoringMetrics(featlib::FeatureEvaluator* evaluator,
                    const std::vector<AggQuery>& queries, double model_evals,
                    double fit_seconds, Outcome* out) {
  if (!evaluator->Features(queries).ok()) {
    out->Wrong("feature materialization failed");
    return;
  }
  std::vector<double> model_s, train_s, proxy_s;
  const featlib::Dataset& base = evaluator->base_dataset();
  const featlib::SplitIndices& split = evaluator->split();
  for (const AggQuery& q : queries) {
    model_s.push_back(Timed("ml.model_score", [&] {
      if (!evaluator->ModelScore({q}).ok()) out->Wrong("ModelScore failed");
    }));
    proxy_s.push_back(Timed("stats.proxy_score", [&] {
      if (!evaluator->ProxyScore(q, featlib::ProxyKind::kMutualInformation).ok()) {
        out->Wrong("ProxyScore failed");
      }
    }));
    Result<const std::vector<double>*> column = evaluator->Feature(q);
    if (!column.ok()) {
      out->Wrong("Feature failed");
      continue;
    }
    featlib::Dataset full = base;
    if (!full.AddFeature("q", *column.value()).ok()) continue;
    const featlib::Dataset train = full.GatherRows(split.train);
    const featlib::Dataset valid = full.GatherRows(split.valid);
    train_s.push_back(Timed("ml.train_and_score", [&] {
      if (!featlib::TrainAndScore(evaluator->options().model, train, valid,
                                  evaluator->options().metric,
                                  evaluator->options().model_seed)
               .ok()) {
        out->Wrong("TrainAndScore failed");
      }
    }));
  }
  out->Add("ml.model_score_s", Median(model_s), "s");
  out->Add("ml.train_and_score_s", Median(train_s), "s");
  out->Add("stats.proxy_score_s", Median(proxy_s), "s");
  out->Add("split.model_share_of_fit",
           Ratio(Median(model_s) * model_evals, fit_seconds), "ratio");
}

// TPE over the first template's space with a history the size of one
// generator run (warm-up + generation proposals).
void HpoMetrics(const featlib::QueryVectorCodec& codec, uint64_t seed,
                Outcome* out) {
  featlib::TpeOptions tpe_options;
  tpe_options.seed = seed;
  featlib::Tpe tpe(codec.space(), tpe_options);
  featlib::Rng rng(seed);
  const featlib::GeneratorOptions defaults;
  for (int i = 0; i < defaults.warmup_iterations + defaults.generation_iterations; ++i) {
    tpe.Observe(codec.space().Sample(&rng), rng.Uniform());
  }
  std::vector<double> suggest_s, observe_s;
  for (int round = 0; round < 10; ++round) {
    std::vector<featlib::ParamVector> pool;
    suggest_s.push_back(Timed("hpo.suggest_batch", [&] {
      pool = tpe.SuggestBatch(defaults.suggest_batch_size);
    }));
    for (const featlib::ParamVector& v : pool) {
      const double loss = rng.Uniform();
      observe_s.push_back(Timed("hpo.observe", [&] { tpe.Observe(v, loss); }));
    }
  }
  out->Add("hpo.suggest_s", Median(suggest_s), "s");
  out->Add("hpo.observe_s", Median(observe_s), "s");
}

// EvaluateMany on a fresh planner over a seeded pool of the template.
void QueryMetrics(const featlib::QueryVectorCodec& codec, const Table& training,
                  const Table& relevant, uint64_t seed, Outcome* out) {
  featlib::Rng rng(seed);
  std::vector<featlib::ParamVector> vectors;
  for (size_t i = 0; i < kPoolSize; ++i) vectors.push_back(codec.space().Sample(&rng));
  Result<std::vector<AggQuery>> pool = codec.DecodeAll(vectors);
  if (!pool.ok()) {
    out->Wrong("pool decode failed");
    return;
  }
  std::vector<double> total, prepare, aggregate;
  for (int r = 0; r < kRepeats; ++r) {
    featlib::QueryPlanner planner;
    total.push_back(Timed("query.evaluate_many", [&] {
      if (!planner.EvaluateMany(pool.value(), training, relevant).ok()) {
        out->Wrong("EvaluateMany failed");
      }
    }));
    prepare.push_back(planner.last_prepare_seconds());
    aggregate.push_back(planner.last_aggregate_seconds());
    if (r > 0) continue;
    out->Add("query.builds_run",
             static_cast<double>(planner.last_plan_stats().builds_run), "count");
    out->Add("query.group_index_builds",
             static_cast<double>(planner.num_group_index_builds()), "count");
    out->Add("query.mask_builds", static_cast<double>(planner.num_mask_builds()),
             "count");
    out->Add("query.materializations",
             static_cast<double>(planner.num_materializations()), "count");
  }
  out->Add("query.evaluate_many_s", Median(total), "s");
  out->Add("query.prepare_s", Median(prepare), "s");
  out->Add("query.aggregate_s", Median(aggregate), "s");
}

// Client latencies of `requests` (plan, batch index) pairs over one
// connection, or of a closed loop of `clients` connections for `seconds`.
std::vector<double> DaemonLatencies(const std::string& socket,
                                    const std::vector<Table>& batches,
                                    size_t clients, double seconds,
                                    Outcome* out) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<int> errors(clients, 0);
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result<featlib::serve::ServeClient> client =
          featlib::serve::ServeClient::ConnectUnix(socket);
      if (!client.ok()) {
        ++errors[c];
        return;
      }
      for (size_t k = c; seconds <= 0 ? k < batches.size() : NowNs() < stop;
           k += seconds <= 0 ? 1 : clients) {
        const Table& batch = batches[k % batches.size()];
        lat[c].push_back(Timed("serve.request", [&] {
          if (!client.value().Transform("probe", batch).ok()) ++errors[c];
        }));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (size_t c = 0; c < clients; ++c) {
    all.insert(all.end(), lat[c].begin(), lat[c].end());
    if (errors[c] > 0) out->Wrong("probe daemon request failed");
  }
  return all;
}

void ServeMetrics(const RunOptions& options, const featlib::AugmentationPlan& plan,
                  const Table& training, const Table& relevant, Outcome* out) {
  // Compile the serving handle, as a serving process start does.
  std::shared_ptr<const FittedAugmenter> handle;
  std::vector<double> compile_s;
  for (int r = 0; r < kRepeats; ++r) {
    handle.reset();
    compile_s.push_back(Timed("query.compile_serving", [&] {
      Result<std::unique_ptr<FittedAugmenter>> made =
          featlib::MakeFittedAugmenter(plan, relevant);
      if (made.ok()) handle = std::move(made).ValueOrDie();
    }));
    if (handle == nullptr) {
      out->Wrong("MakeFittedAugmenter failed");
      return;
    }
  }
  out->Add("query.compile_serving_s", Median(compile_s), "s");

  const std::vector<Table> batches =
      DrawBatches(training, kBatches, kBatchRows, DatasetSeed(options.seed, 7));
  std::vector<double> exec_s, encode_s, decode_s;
  for (size_t b = 0; b < batches.size(); ++b) {
    exec_s.push_back(Timed("query.serving_exec", [&] {
      if (!handle->ComputeFeatureColumns(batches[b]).ok()) out->Wrong("serving exec failed");
    }));
    Result<Table> augmented = handle->Transform(batches[b]);
    if (!augmented.ok()) {
      out->Wrong("Transform failed");
      return;
    }
    featlib::serve::TransformRequest req;
    req.request_id = b + 1;
    req.plan = "probe";
    req.batch = batches[b];
    featlib::serve::TransformResponse resp;
    resp.request_id = b + 1;
    resp.table = std::move(augmented).ValueOrDie();
    std::string req_bytes, resp_bytes;
    encode_s.push_back(Timed("serve.encode", [&] {
      req_bytes = featlib::serve::EncodeTransformRequest(req);
      resp_bytes = featlib::serve::EncodeTransformResponse(resp);
    }));
    decode_s.push_back(Timed("serve.decode", [&] {
      if (!featlib::serve::DecodeTransformRequest(req_bytes).ok() ||
          !featlib::serve::DecodeTransformResponse(resp_bytes).ok()) {
        out->Wrong("codec round trip failed");
      }
    }));
  }
  const double exec_median = Median(exec_s);
  out->Add("query.serving_exec_s", exec_median, "s");
  out->Add("serve.encode_s", Median(encode_s), "s");
  out->Add("serve.decode_s", Median(decode_s), "s");

  // The plan as a serving process finds it on disk.
  const std::string sql = options.dir + "/probe.sql";
  const std::string csv = RelevantCsv(options, 0);
  if (!featlib::WriteAugmentationPlan(plan, "relevant", relevant, sql).ok()) {
    out->Wrong("plan write failed");
    return;
  }
  std::vector<double> acquire_s;
  double warm_bytes = 0.0;
  std::unique_ptr<featlib::serve::PlanRegistry> registry;
  for (int r = 0; r < kRepeats; ++r) {
    registry = std::make_unique<featlib::serve::PlanRegistry>();
    if (!registry->AddPlan("probe", sql, csv).ok()) {
      out->Wrong("AddPlan failed");
      return;
    }
    acquire_s.push_back(Timed("serve.registry_acquire", [&] {
      if (!registry->Acquire("probe").ok()) out->Wrong("Acquire failed");
    }));
    warm_bytes = static_cast<double>(registry->warm_bytes());
  }
  out->Add("serve.registry_acquire_s", Median(acquire_s), "s");
  out->Add("serve.registry_warm_bytes", warm_bytes, "bytes");

  featlib::serve::ServerOptions server_options;
  server_options.unix_socket_path = options.dir + "/probe.sock";
  featlib::serve::Server server(registry.get(), server_options);
  if (!server.Start().ok()) {
    out->Wrong("probe daemon start failed");
    return;
  }
  // One connection, one request per batch: latency minus the same batch's
  // in-process execution is the daemon's own share.
  const std::vector<double> single = DaemonLatencies(
      server_options.unix_socket_path, batches, 1, 0.0, out);
  std::vector<double> overhead;
  for (size_t b = 0; b < single.size() && b < exec_s.size(); ++b) {
    overhead.push_back(single[b] - exec_s[b]);
  }
  out->Add("serve.round_trip_overhead_s", Median(overhead), "s");
  out->Add("split.serving_exec_share_of_single_request",
           Ratio(exec_median, Median(single)), "ratio");
  // Under nproc closed-loop connections, where the batcher coalesces.
  const std::vector<double> loaded = DaemonLatencies(
      server_options.unix_socket_path, batches, NumCpus(), 2.0, out);
  out->Add("split.serving_exec_share_of_nproc_p50", Ratio(exec_median, Median(loaded)),
           "ratio");
  server.Shutdown();

  // The batcher alone, driven by nproc submitters.
  featlib::serve::Batcher batcher;
  std::vector<std::vector<double>> waits(NumCpus());
  std::vector<int> refused(waits.size(), 0);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < waits.size(); ++t) {
    submitters.emplace_back([&, t] {
      for (int k = 0; k < kRequestsPerSubmitter; ++k) {
        std::promise<Status> done;
        std::future<Status> result = done.get_future();
        featlib::serve::Batcher::Request req;
        req.handle = handle;
        req.batch = batches[(t * kRequestsPerSubmitter + k) % batches.size()];
        req.done = [&done](Status st, Table) { done.set_value(st); };
        waits[t].push_back(Timed("serve.batcher_submit", [&] {
          Status st = batcher.Submit("probe", std::move(req));
          if (st.ok()) st = result.get();
          if (!st.ok()) ++refused[t];
        }));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (int r : refused) {
    if (r > 0) out->Wrong("batcher request failed");
  }
  const double flushes = static_cast<double>(batcher.num_flushes());
  const double mean_flush = Ratio(static_cast<double>(batcher.num_requests()), flushes);
  const double coalesced = Ratio(static_cast<double>(batcher.num_coalesced_flushes()), flushes);
  batcher.Shutdown();
  // The same group size run directly, without the queue.
  const size_t group = std::max<size_t>(1, static_cast<size_t>(std::lround(mean_flush)));
  std::vector<double> direct;
  for (size_t r = 0; r < 16; ++r) {
    std::vector<Table> members;
    for (size_t m = 0; m < group; ++m) members.push_back(batches[(r * group + m) % batches.size()]);
    direct.push_back(Timed("core.transform_many", [&] {
      if (!handle->TransformManyIsolated(members).ok()) out->Wrong("direct group failed");
    }));
  }
  std::vector<double> all_waits;
  for (const auto& w : waits) all_waits.insert(all_waits.end(), w.begin(), w.end());
  out->Add("serve.batcher_queue_wait_s", Median(all_waits) - Median(direct), "s");
  out->Add("serve.mean_flush_size", mean_flush, "count");
  out->Add("serve.coalesced_flush_share", coalesced, "ratio");
}

}  // namespace

void RunProbes(const RunOptions& options, const std::vector<std::string>& plan_keys,
               Outcome* out) {
  const WorkloadSpec& spec = *options.workload;
  std::vector<double> read_s;
  for (int r = 0; r < kRepeats; ++r) {
    read_s.push_back(Timed("table.read_csv", [&] {
      if (!featlib::ReadCsv(RelevantCsv(options, 0)).ok()) out->Wrong("ReadCsv failed");
    }));
  }
  out->Add("table.csv_read_s", Median(read_s), "s");

  Result<featlib::FeatAugProblem> loaded = spec.kind == WorkloadSpec::kFit
                                               ? LoadProblem(options, 0)
                                               : PlanProblem(spec, 0);
  if (!loaded.ok()) {
    out->Wrong("probe inputs: " + loaded.status().ToString());
    return;
  }
  const featlib::FeatAugProblem problem = std::move(loaded).ValueOrDie();
  const featlib::FeatAugOptions fit_options = FitOptions();
  Result<featlib::FeatureEvaluator> created = featlib::FeatureEvaluator::Create(
      problem.training, problem.label_col, problem.base_feature_cols,
      problem.relevant, problem.task, fit_options.evaluator);
  if (!created.ok()) {
    out->Wrong("evaluator: " + created.status().ToString());
    return;
  }
  featlib::FeatureEvaluator evaluator = std::move(created).ValueOrDie();
  featlib::SearchSession session(&evaluator);
  DecomposedFit fit;
  const std::string ckpt = options.dir + "/probe.ckpt";
  Status st = RunDecomposedFit(problem, fit_options, &session,
                               spec.checkpoint ? ckpt : std::string(), &fit);
  if (!st.ok() || fit.templates.empty()) {
    out->Wrong("decomposed fit: " + st.ToString());
    return;
  }
  if (QueryKeys(fit.plan.queries) != plan_keys) {
    out->Wrong("the decomposed fit's plan differs from the workload's plan");
  }
  CoreMetrics(evaluator, session, fit, out);
  CheckpointMetrics(problem, session, ckpt, out);
  ScoringMetrics(&evaluator, fit.plan.queries,
                 static_cast<double>(evaluator.num_model_evals()), fit.seconds, out);

  Result<featlib::QueryVectorCodec> codec =
      featlib::QueryVectorCodec::Create(fit.templates[0], problem.relevant);
  if (!codec.ok()) {
    out->Wrong("codec: " + codec.status().ToString());
    return;
  }
  HpoMetrics(codec.value(), options.seed, out);
  QueryMetrics(codec.value(), problem.training, problem.relevant, options.seed, out);
  ServeMetrics(options, fit.plan, problem.training, problem.relevant, out);
}

}  // namespace perfbench
