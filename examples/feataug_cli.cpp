/// \file feataug_cli.cpp
/// \brief Command-line FeatAug: fit offline, ship the SQL artifact, serve
/// online — the two phases are two subcommands.
///
/// Fit (the default subcommand): search for an augmentation plan and write
/// the augmented CSV plus, optionally, the serialized plan:
///
///   feataug_cli [fit] --train=D.csv --relevant=R.csv --label=label
///               --fk=user_id[,merchant_id] --out=augmented.csv
///               [--plan-out=plan.sql]
///               [--task=binary|multiclass|regression] [--model=LR|XGB|RF|DeepFM]
///               [--features=20] [--templates=4] [--seed=42]
///               [--agg-attrs=a,b] [--where-attrs=p,q] [--base-features=x,y]
///               [--checkpoint-dir=DIR] [--resume] [--morsel-rows=N]
///
/// --checkpoint-dir makes the fit durable: the search snapshots its state
/// to DIR/fit.ckpt (atomic, checksummed) at round boundaries. A fit killed
/// at any point is re-run with the same flags plus --resume and produces a
/// plan byte-identical to an uninterrupted run, paying only the work past
/// the last snapshot.
///
/// Transform (the serving phase): load a serialized plan into a warm
/// FittedAugmenter and stream one or more CSV batches through the serving
/// batcher — no search, no model, no re-planning between batches:
///
///   feataug_cli transform --plan=plan.sql --relevant=R.csv
///               --in=batch.csv[,batch2.csv] --out=augmented.csv
///               [--deadline-ms=N] [--memory-budget-mb=N] [--morsel-rows=N]
///
/// Batches go through the same serve::Batcher the daemon uses: one warm
/// handle, concurrent submissions coalesced into TransformManyIsolated
/// fan-outs, per-batch failure isolation (a failing batch reports its own
/// error; siblings still write their outputs).
///
/// With --socket the transform forwards to a running `feataug_serve`
/// daemon instead of loading the plan locally — no --plan/--relevant
/// needed, the daemon owns both:
///
///   feataug_cli transform --socket=/tmp/feataug_serve.sock
///               --plan-name=NAME --in=batch.csv[,batch2.csv]
///               [--out=augmented.csv] [--deadline-ms=N]
///
/// --deadline-ms / --memory-budget-mb impose cooperative execution limits
/// (ExecContext) on the transform: past the deadline (or over the budget)
/// the run stops within one chunk of work and exits with a clean
/// DeadlineExceeded / ResourceExhausted error instead of running away.
/// In socket mode the deadline travels with each request and is enforced
/// by the daemon.
///
/// --morsel-rows=N streams artifact builds in N-row morsels (query/morsel.h)
/// instead of whole-table passes: bounded peak memory, bit-identical
/// features. 0 forces the single-pass path; unset defers to the
/// FEATLIB_MORSEL_ROWS env var, then the config default (single-pass).
///
/// Column roles default sensibly (InferTemplateIngredients): aggregation
/// attributes = R's numeric/bool/datetime columns (minus FKs), WHERE
/// candidates = those plus low-cardinality string columns (minus FKs), base
/// features = D's numeric columns (minus label and FKs).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "common/config.h"
#include "common/exec_context.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/feataug.h"
#include "core/multi_table.h"
#include "core/plan_io.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "table/csv.h"

using namespace featlib;

namespace {

struct CliArgs {
  std::string train_path;
  std::string relevant_path;
  std::string out_path = "augmented.csv";
  std::string plan_out_path;
  std::string label;
  std::vector<std::string> fk;
  std::string task = "binary";
  std::string model = "XGB";
  int features = 20;
  int templates = 4;
  uint64_t seed = 42;
  std::vector<std::string> agg_attrs;
  std::vector<std::string> where_attrs;
  std::vector<std::string> base_features;
  std::string checkpoint_dir;
  bool resume = false;
  long long morsel_rows = -1;  // <0 = keep config / FEATLIB_MORSEL_ROWS
};

bool Parse(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--train=")) args->train_path = v;
    else if (const char* v = value_of("--relevant=")) args->relevant_path = v;
    else if (const char* v = value_of("--out=")) args->out_path = v;
    else if (const char* v = value_of("--plan-out=")) args->plan_out_path = v;
    else if (const char* v = value_of("--label=")) args->label = v;
    else if (const char* v = value_of("--fk=")) args->fk = StrSplit(v, ',');
    else if (const char* v = value_of("--task=")) args->task = v;
    else if (const char* v = value_of("--model=")) args->model = v;
    else if (const char* v = value_of("--features=")) args->features = std::atoi(v);
    else if (const char* v = value_of("--templates=")) args->templates = std::atoi(v);
    else if (const char* v = value_of("--seed=")) args->seed = std::atoll(v);
    else if (const char* v = value_of("--agg-attrs=")) args->agg_attrs = StrSplit(v, ',');
    else if (const char* v = value_of("--where-attrs=")) args->where_attrs = StrSplit(v, ',');
    else if (const char* v = value_of("--base-features=")) args->base_features = StrSplit(v, ',');
    else if (const char* v = value_of("--checkpoint-dir=")) args->checkpoint_dir = v;
    else if (const char* v = value_of("--morsel-rows=")) args->morsel_rows = std::atoll(v);
    else if (arg == "--resume") args->resume = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->train_path.empty() || args->relevant_path.empty() ||
      args->label.empty() || args->fk.empty()) {
    std::fprintf(stderr,
                 "required: --train=D.csv --relevant=R.csv --label=col "
                 "--fk=key[,key2]\n");
    return false;
  }
  return true;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

int RunCli(const CliArgs& args) {
  auto train = ReadCsv(args.train_path);
  if (!train.ok()) {
    std::fprintf(stderr, "reading %s: %s\n", args.train_path.c_str(),
                 train.status().ToString().c_str());
    return 1;
  }
  auto relevant = ReadCsv(args.relevant_path);
  if (!relevant.ok()) {
    std::fprintf(stderr, "reading %s: %s\n", args.relevant_path.c_str(),
                 relevant.status().ToString().c_str());
    return 1;
  }

  FeatAugProblem problem;
  problem.training = std::move(train).ValueOrDie();
  problem.relevant = std::move(relevant).ValueOrDie();
  problem.label_col = args.label;
  problem.fk_attrs = args.fk;
  if (args.task == "binary") {
    problem.task = TaskKind::kBinaryClassification;
  } else if (args.task == "multiclass") {
    problem.task = TaskKind::kMultiClassification;
  } else if (args.task == "regression") {
    problem.task = TaskKind::kRegression;
  } else {
    std::fprintf(stderr, "unknown task: %s\n", args.task.c_str());
    return 1;
  }
  problem.agg_functions = AllAggFunctions();

  // Infer column roles that were not given explicitly (shared heuristic
  // with MultiTableFeatAug: numeric/bool/datetime aggregate, near-unique
  // string columns are dropped from the WHERE candidates).
  problem.agg_attrs = args.agg_attrs;
  problem.candidate_where_attrs = args.where_attrs;
  if (args.agg_attrs.empty() || args.where_attrs.empty()) {
    TemplateIngredients inferred =
        InferTemplateIngredients(problem.relevant, args.fk);
    if (args.agg_attrs.empty()) problem.agg_attrs = std::move(inferred.agg_attrs);
    if (args.where_attrs.empty()) {
      problem.candidate_where_attrs = std::move(inferred.where_candidates);
    }
  }
  problem.base_feature_cols = args.base_features;
  if (args.base_features.empty()) {
    for (size_t c = 0; c < problem.training.num_columns(); ++c) {
      const std::string& name = problem.training.NameAt(c);
      if (name == args.label || Contains(args.fk, name)) continue;
      problem.base_feature_cols.push_back(name);
    }
  }

  FeatAugOptions options;
  options.n_templates = args.templates;
  options.queries_per_template =
      std::max(1, args.features / std::max(1, args.templates));
  auto model = [&]() -> Result<ModelKind> {
    const std::string upper = [&] {
      std::string s = args.model;
      for (char& ch : s) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      return s;
    }();
    if (upper == "LR") return ModelKind::kLogisticRegression;
    if (upper == "XGB") return ModelKind::kXgb;
    if (upper == "RF") return ModelKind::kRandomForest;
    if (upper == "DEEPFM") return ModelKind::kDeepFm;
    return Status::InvalidArgument("unknown model " + args.model);
  }();
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  options.evaluator.model = model.value();
  options.evaluator.metric = DefaultMetricFor(problem.task);
  options.seed = args.seed;
  if (args.resume && args.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 1;
  }
  options.checkpoint.dir = args.checkpoint_dir;
  options.checkpoint.resume = args.resume;
  // --morsel-rows beats the FEATLIB_MORSEL_ROWS env / config default; 0
  // explicitly forces the single-pass in-RAM path.
  if (args.morsel_rows >= 0) {
    FeatAugConfig::Global().morsel_rows =
        static_cast<size_t>(args.morsel_rows);
  }

  std::printf("FeatAug: D=%zu rows, R=%zu rows, %zu agg attrs, %zu WHERE candidates\n",
              problem.training.num_rows(), problem.relevant.num_rows(),
              problem.agg_attrs.size(), problem.candidate_where_attrs.size());

  const Table relevant_copy = problem.relevant;
  const Table training_copy = problem.training;
  FeatAug feataug(std::move(problem), options);
  auto plan = feataug.Fit();
  if (!plan.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nDiscovered %zu queries:\n", plan.value().queries.size());
  for (size_t i = 0; i < plan.value().queries.size(); ++i) {
    std::printf("-- %s  [validation %s %.4f]\n%s\n\n",
                plan.value().feature_names[i].c_str(),
                MetricKindToString(options.evaluator.metric),
                plan.value().valid_metrics[i],
                plan.value().queries[i].ToSql("R", relevant_copy).c_str());
  }

  // Fit-health summary: how much of the search was absorbed by caches and
  // how much friction (skipped candidates) it ran into.
  {
    const AugmentationPlan& p = plan.value();
    const size_t compile_total = p.compile_cache_hits + p.compile_cache_misses;
    std::printf(
        "fit diagnostics: %zu model evals, %zu proxy evals, "
        "%zu model / %zu proxy cache hits\n",
        p.model_evals, p.proxy_evals, p.model_cache_hits, p.proxy_cache_hits);
    std::printf(
        "                 %zu failed candidates, "
        "plan-compile hit rate %.1f%% (%zu/%zu)\n",
        p.failed_candidates.size(),
        compile_total == 0 ? 0.0
                           : 100.0 * static_cast<double>(p.compile_cache_hits) /
                                 static_cast<double>(compile_total),
        p.compile_cache_hits, compile_total);
    if (!p.failed_candidates.empty()) {
      std::printf("                 first failure: %s\n",
                  p.failed_candidates.front().status.ToString().c_str());
    }
    if (!args.checkpoint_dir.empty()) {
      std::printf("                 %zu checkpoint snapshot(s)%s\n",
                  p.checkpoints_written,
                  p.resumed_from_checkpoint ? ", resumed from checkpoint" : "");
    }
  }

  // Serving handle: compiled once here, then applied to the training CSV.
  // The same plan can be shipped and served later via `transform`.
  auto fitted = feataug.MakeFitted(plan.value());
  if (!fitted.ok()) {
    std::fprintf(stderr, "MakeFitted failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }
  auto augmented = fitted.value()->Transform(training_copy);
  if (!augmented.ok()) {
    std::fprintf(stderr, "Transform failed: %s\n",
                 augmented.status().ToString().c_str());
    return 1;
  }
  Status st = WriteCsv(augmented.value(), args.out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "writing %s: %s\n", args.out_path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("augmented table (%zu columns) -> %s\n",
              augmented.value().num_columns(), args.out_path.c_str());
  if (!args.plan_out_path.empty()) {
    st = WriteAugmentationPlan(plan.value(), "R", relevant_copy,
                               args.plan_out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", args.plan_out_path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("serialized plan (%zu queries) -> %s\n",
                plan.value().queries.size(), args.plan_out_path.c_str());
  }
  return 0;
}

// ---- The serving phase: `feataug_cli transform` ---------------------------

struct TransformArgs {
  std::string plan_path;
  std::string relevant_path;
  std::vector<std::string> in_paths;
  std::string out_path = "augmented.csv";
  long long deadline_ms = 0;       // 0 = no deadline
  long long memory_budget_mb = 0;  // 0 = unlimited
  std::string socket_path;         // non-empty: forward to a daemon
  std::string plan_name;           // daemon-side plan name (socket mode)
  long long morsel_rows = -1;      // <0 = keep config / FEATLIB_MORSEL_ROWS
};

bool ParseTransform(int argc, char** argv, TransformArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--plan=")) args->plan_path = v;
    else if (const char* v = value_of("--relevant=")) args->relevant_path = v;
    else if (const char* v = value_of("--in=")) args->in_paths = StrSplit(v, ',');
    else if (const char* v = value_of("--out=")) args->out_path = v;
    else if (const char* v = value_of("--deadline-ms=")) args->deadline_ms = std::atoll(v);
    else if (const char* v = value_of("--memory-budget-mb=")) args->memory_budget_mb = std::atoll(v);
    else if (const char* v = value_of("--socket=")) args->socket_path = v;
    else if (const char* v = value_of("--plan-name=")) args->plan_name = v;
    else if (const char* v = value_of("--morsel-rows=")) args->morsel_rows = std::atoll(v);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (!args->socket_path.empty()) {
    if (args->plan_name.empty() || args->in_paths.empty()) {
      std::fprintf(stderr,
                   "required: transform --socket=daemon.sock --plan-name=NAME "
                   "--in=batch.csv[,batch2.csv]\n");
      return false;
    }
    return true;
  }
  if (args->plan_path.empty() || args->relevant_path.empty() ||
      args->in_paths.empty()) {
    std::fprintf(stderr,
                 "required: transform --plan=plan.sql --relevant=R.csv "
                 "--in=batch.csv[,batch2.csv]\n");
    return false;
  }
  return true;
}

// Derives the per-batch output path: "out.csv" -> "out.1.csv", ... when
// several inputs are transformed (the first keeps the plain name).
std::string BatchOutPath(const std::string& out, size_t index) {
  if (index == 0) return out;
  const size_t dot = out.find_last_of('.');
  const size_t slash = out.find_last_of('/');
  const std::string suffix = "." + std::to_string(index);
  // A dot inside a directory component is not an extension separator.
  const bool has_extension =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  if (!has_extension) return out + suffix;
  return out.substr(0, dot) + suffix + out.substr(dot);
}

// Writes each successful batch output to its derived path; failed batches
// report their own error without blocking siblings (partial-failure
// isolation, matching the daemon's per-slot semantics).
int WriteBatchOutputs(const std::vector<Status>& statuses,
                      std::vector<Table>& outputs,
                      const TransformArgs& args) {
  int failures = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (!statuses[i].ok()) {
      std::fprintf(stderr, "batch %zu (%s): %s\n", i, args.in_paths[i].c_str(),
                   statuses[i].ToString().c_str());
      ++failures;
      continue;
    }
    const std::string out_path = BatchOutPath(args.out_path, i);
    Status st = WriteCsv(outputs[i], out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", out_path.c_str(),
                   st.ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("augmented table (%zu rows x %zu columns) -> %s\n",
                outputs[i].num_rows(), outputs[i].num_columns(),
                out_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

// Socket mode: forward every batch to a running daemon, one connection per
// in-flight batch (capped), so the daemon's batcher can coalesce them.
int RunTransformSocket(const TransformArgs& args) {
  std::vector<Table> batches;
  for (const std::string& path : args.in_paths) {
    auto batch = ReadCsv(path);
    if (!batch.ok()) {
      std::fprintf(stderr, "reading %s: %s\n", path.c_str(),
                   batch.status().ToString().c_str());
      return 1;
    }
    batches.push_back(std::move(batch).ValueOrDie());
  }
  const uint64_t deadline_us =
      args.deadline_ms > 0 ? static_cast<uint64_t>(args.deadline_ms) * 1000 : 0;

  WallTimer timer;
  const size_t n = batches.size();
  std::vector<Status> statuses(n, Status::OK());
  std::vector<Table> outputs(n);
  const size_t parallel = std::min<size_t>(n, 8);
  std::atomic<size_t> next{0};
  std::vector<std::thread> senders;
  senders.reserve(parallel);
  for (size_t t = 0; t < parallel; ++t) {
    senders.emplace_back([&] {
      auto client = serve::ServeClient::ConnectUnix(args.socket_path);
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        if (!client.ok()) {
          statuses[i] = client.status();
          continue;
        }
        auto out = client.value().Transform(args.plan_name, batches[i],
                                            deadline_us);
        if (out.ok()) {
          outputs[i] = std::move(out).ValueOrDie();
        } else {
          statuses[i] = out.status();
        }
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  std::printf("transformed %zu batch(es) via %s in %.3fs\n", n,
              args.socket_path.c_str(), timer.Seconds());
  return WriteBatchOutputs(statuses, outputs, args);
}

int RunTransform(const TransformArgs& args) {
  if (!args.socket_path.empty()) return RunTransformSocket(args);
  // Applies to the plan compile below (the planner resolves the morsel size
  // when the serving plan is compiled); beats FEATLIB_MORSEL_ROWS.
  if (args.morsel_rows >= 0) {
    FeatAugConfig::Global().morsel_rows =
        static_cast<size_t>(args.morsel_rows);
  }
  auto relevant = ReadCsv(args.relevant_path);
  if (!relevant.ok()) {
    std::fprintf(stderr, "reading %s: %s\n", args.relevant_path.c_str(),
                 relevant.status().ToString().c_str());
    return 1;
  }

  // Load + validate + compile: the plan's artifacts (group index, masks,
  // materializations) are built exactly once, before the first batch.
  WallTimer timer;
  auto fitted = LoadFittedAugmenter(args.plan_path, relevant.value());
  if (!fitted.ok()) {
    std::fprintf(stderr, "loading %s: %s\n", args.plan_path.c_str(),
                 fitted.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded plan %s: %zu features, compiled in %.3fs\n",
              args.plan_path.c_str(), fitted.value()->num_features(),
              timer.Seconds());

  std::vector<Table> batches;
  for (const std::string& path : args.in_paths) {
    auto batch = ReadCsv(path);
    if (!batch.ok()) {
      std::fprintf(stderr, "reading %s: %s\n", path.c_str(),
                   batch.status().ToString().c_str());
      return 1;
    }
    batches.push_back(std::move(batch).ValueOrDie());
  }

  // Stream the batches through the serving batcher on the one warm handle
  // — the same admission path the daemon uses: submissions that queue
  // while the workers are busy coalesce into TransformManyIsolated
  // fan-outs with per-batch failure isolation. The
  // deadline rides on each request; the memory budget applies per fan-out.
  std::shared_ptr<const FittedAugmenter> handle(std::move(fitted).ValueOrDie());
  serve::BatcherOptions batcher_options;
  batcher_options.max_batch_size = 16;
  if (args.memory_budget_mb > 0) {
    batcher_options.memory_budget_bytes =
        static_cast<size_t>(args.memory_budget_mb) << 20;
  }
  serve::Batcher batcher(batcher_options);

  timer.Restart();
  const size_t n = batches.size();
  std::vector<Status> statuses(n, Status::OK());
  std::vector<Table> outputs(n);
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t done_count = 0;
  const serve::Batcher::Clock::time_point deadline =
      args.deadline_ms > 0
          ? serve::Batcher::Clock::now() +
                std::chrono::milliseconds(args.deadline_ms)
          : serve::Batcher::Clock::time_point::max();
  for (size_t i = 0; i < n; ++i) {
    serve::Batcher::Request request;
    request.handle = handle;
    request.batch = batches[i];
    request.deadline = deadline;
    request.done = [&, i](Status status, Table table) {
      std::lock_guard<std::mutex> lock(done_mu);
      statuses[i] = std::move(status);
      outputs[i] = std::move(table);
      ++done_count;
      done_cv.notify_one();
    };
    Status admitted = batcher.Submit("cli", std::move(request));
    if (!admitted.ok()) {
      std::lock_guard<std::mutex> lock(done_mu);
      statuses[i] = admitted;
      ++done_count;
    }
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done_count == n; });
  }
  batcher.Shutdown();
  std::printf(
      "transformed %zu batch(es) in %.3fs (warm handle, %zu fan-out(s))\n",
      n, timer.Seconds(), batcher.num_flushes());
  return WriteBatchOutputs(statuses, outputs, args);
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch: "transform" serves a shipped plan; "fit" (or no
  // subcommand, for backwards compatibility) runs the search.
  if (argc > 1 && std::strcmp(argv[1], "transform") == 0) {
    TransformArgs args;
    if (!ParseTransform(argc - 1, argv + 1, &args)) return 2;
    return RunTransform(args);
  }
  int offset = (argc > 1 && std::strcmp(argv[1], "fit") == 0) ? 1 : 0;
  CliArgs args;
  if (!Parse(argc - offset, argv + offset, &args)) return 2;
  return RunCli(args);
}
