/// \file workloads.cc
/// \brief Input preparation and the timed main loop of each workload.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/plan_io.h"
#include "data/synthetic.h"
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

// Datasets per run: fits report the mean over 5 datasets (one pass takes
// about 15 s on a 4-core host); the serving workloads serve 2 plans, each for
// half the run.
const WorkloadSpec kWorkloads[] = {
    {"fit_model_bound", "tmall", 6000, 15.0, 5, true, WorkloadSpec::kFit},
    {"fit_scan_bound", "instacart", 600, 500.0, 5, false, WorkloadSpec::kFit},
    {"transform_bulk", "tmall", 6000, 15.0, 2, false, WorkloadSpec::kTransform},
    {"serve_point", "tmall", 6000, 15.0, 2, false, WorkloadSpec::kServe},
};

// Reference datasets are the datasets of this seed, whatever the run's seed.
// A fit's cost follows its search trajectory (model trainings vary by ~±10%
// between datasets, peak memory by up to 1.8x) and a plan's serving cost
// follows its aggregate mix (MEDIAN, ENTROPY and COUNT_DISTINCT cost ~10x
// SUM; 10.6-20.8 ms per request over six seeds). Fixing most of that keeps it
// out of the run-to-run spread:
//   - fit workloads fit every dataset but the last from the reference set;
//     the last is drawn from the run's seed;
//   - serving workloads serve plans fitted on reference datasets 0 and 1
//     (together AVG, COUNT, COUNT_DISTINCT, ENTROPY, MAX, MEDIAN, MODE, SUM)
//     over tables and requests drawn from the run's seed.
constexpr uint64_t kReferenceSeed = 0;

constexpr size_t kServeBatchRows = 32;
constexpr size_t kServeBatchesPerPlan = 32;
constexpr int kTransformSetupsPerPlan = 2;
constexpr int kDaemonSetups = 3;

std::string DatasetDir(const RunOptions& options, size_t i) {
  return options.dir + "/data" + std::to_string(i);
}

std::string TrainingCsv(const RunOptions& options, size_t i) {
  return DatasetDir(options, i) + "/training.csv";
}

std::string PlanSql(const RunOptions& options, size_t i) {
  return DatasetDir(options, i) + "/plan.sql";
}

featlib::FeatAugProblem ProblemWith(const WorkloadSpec& spec, Table training,
                                    Table relevant) {
  // The roles are part of the generator's schema, not of the drawn data: a
  // tiny bundle supplies them.
  auto roles = [](bool tmall) {
    featlib::SyntheticOptions tiny;
    tiny.n_train = 8;
    tiny.avg_logs_per_entity = 2.0;
    featlib::FeatAugProblem p =
        (tmall ? featlib::MakeTmall(tiny) : featlib::MakeInstacart(tiny)).ToProblem();
    p.training = Table();
    p.relevant = Table();
    return p;
  };
  static const featlib::FeatAugProblem kTmall = roles(true);
  static const featlib::FeatAugProblem kInstacart = roles(false);
  featlib::FeatAugProblem p = std::string(spec.dataset) == "tmall" ? kTmall : kInstacart;
  p.training = std::move(training);
  p.relevant = std::move(relevant);
  return p;
}

Result<std::string> OracleEncoding(const std::vector<AggQuery>& queries,
                                   const std::vector<std::string>& feature_names,
                                   const Table& batch, const Table& relevant) {
  // A fresh planner per call: one reused across training tables of equal row
  // count keeps the first table's training-row map.
  featlib::QueryPlanner planner;
  FEAT_ASSIGN_OR_RETURN(std::vector<std::vector<double>> columns,
                        planner.EvaluateMany(queries, batch, relevant));
  if (columns.size() != feature_names.size()) {
    return Status::Internal("oracle column count differs from the plan");
  }
  Table expected = batch;
  for (size_t f = 0; f < columns.size(); ++f) {
    const std::string name = featlib::UniquifyName(
        feature_names[f], [&](const std::string& n) { return expected.HasColumn(n); });
    FEAT_RETURN_NOT_OK(
        expected.AddColumn(name, featlib::Column::FromDoubles(columns[f])));
  }
  return featlib::serve::EncodeTable(expected);
}

// Nearest-rank quantile of `v` (q in [0, 1]); NaN when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return NAN;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Peak resident set size since the process started or the last ResetPeakRss.
double PeakRssMb() {
  // VmHWM honours ResetPeakRss; ru_maxrss is the fallback without procfs.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return kb / 1024.0;
  }
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void ResetPeakRss() {
  // "5" resets the peak RSS to the current RSS (Linux >= 4.0). Where it is
  // refused the peak stays process-wide.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// User + system CPU time of the whole process.
double ProcessCpuSeconds() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

featlib::DatasetBundle Generate(const WorkloadSpec& spec, uint64_t seed) {
  featlib::SyntheticOptions so;
  so.n_train = spec.n_train;
  so.avg_logs_per_entity = spec.logs_per_entity;
  so.seed = seed;
  return std::string(spec.dataset) == "tmall" ? featlib::MakeTmall(so)
                                              : featlib::MakeInstacart(so);
}

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create " + path);
  }
  return Status::OK();
}

std::string PlanName(size_t i) { return "plan" + std::to_string(i); }

// Held-out AUC of `queries` and of the base features alone, on the same
// split and model the fit scores with.
Status ScorePlan(const WorkloadSpec& spec, const Table& training,
                 const Table& relevant, const std::vector<AggQuery>& queries,
                 double* auc, double* base_auc) {
  ScopedSpan span("ml.test_score");
  const featlib::FeatAugProblem p = ProblemWith(spec, training, relevant);
  FEAT_ASSIGN_OR_RETURN(
      featlib::FeatureEvaluator evaluator,
      featlib::FeatureEvaluator::Create(p.training, p.label_col,
                                        p.base_feature_cols, p.relevant, p.task,
                                        FitOptions().evaluator));
  FEAT_ASSIGN_OR_RETURN(*auc, evaluator.TestScore(queries));
  FEAT_ASSIGN_OR_RETURN(*base_auc, evaluator.TestScore({}));
  return Status::OK();
}

void CheckAuc(double auc, double base_auc, size_t i, Outcome* out) {
  if (!(auc > base_auc)) {
    out->Wrong(featlib::StrFormat(
        "dataset %zu: test AUC %.4f does not beat base features %.4f", i, auc,
        base_auc));
  }
}

// What every workload reports; see README.md for the per-workload meaning.
struct EndToEnd {
  std::vector<double> setups;     // seconds, one per set-up
  double peak_rss_mb = 0.0;
  double op_p50_s = 0.0;
  double cpu_s = 0.0;             // process CPU time spent in operations
  double rows_per_s = 0.0;
  double test_auc = 0.0;
  std::vector<double> latencies;  // seconds, every operation (failed = inf)
};

void Report(const EndToEnd& e, Outcome* out) {
  const double ops = static_cast<double>(e.latencies.size());
  out->Add("setup_s", Median(e.setups), "s");
  out->Add("peak_rss_mb", e.peak_rss_mb, "MB");
  out->Add("op_p50_ms", e.op_p50_s * 1e3, "ms");
  out->Add("cpu_ms_per_op", ops > 0 ? e.cpu_s / ops * 1e3 : NAN, "ms");
  out->Add("rows_per_s", e.rows_per_s, "1/s");
  out->Add("test_auc", e.test_auc, "auc");
  // Tails swing with hypervisor steal on small hosts; they are reported
  // beside the result, not gated. A percentile is given only when at least
  // ten operations lie beyond it.
  out->detail.push_back({"ops", ops, "count"});
  out->detail.push_back({"op_max_ms", Quantile(e.latencies, 1.0) * 1e3, "ms"});
  if (ops >= 100) out->detail.push_back({"op_p90_ms", Quantile(e.latencies, 0.9) * 1e3, "ms"});
  if (ops >= 1000) out->detail.push_back({"op_p99_ms", Quantile(e.latencies, 0.99) * 1e3, "ms"});
}

// ---------------------------------------------------------------------------
// fit_model_bound / fit_scan_bound: whole Fits over the run's datasets.

Outcome RunFit(const RunOptions& options, std::vector<std::string>* plan_keys) {
  const WorkloadSpec& spec = *options.workload;
  Outcome out;
  EndToEnd e;
  std::vector<double> aucs;
  std::vector<std::vector<double>> fits(spec.datasets), peaks(spec.datasets);
  std::vector<std::vector<std::string>> first_keys(spec.datasets);
  double rows = 0.0, fit_seconds = 0.0;
  uint64_t fit_id = 0;
  const int64_t start = NowNs();
  // Datasets in turn, each at least once, until the run time is used.
  for (size_t visit = 0; visit < spec.datasets || SecondsSince(start) < options.seconds;
       ++visit) {
    const size_t i = visit % spec.datasets;
    ++fit_id;
    ++out.attempted;
    const int64_t setup_start = NowNs();
    Result<featlib::FeatAugProblem> problem = LoadProblem(options, i);
    if (!problem.ok()) {
      ++out.failed;
      out.problems.push_back(problem.status().ToString());
      continue;
    }
    featlib::FeatAugOptions fit_options = FitOptions();
    if (spec.checkpoint) {
      fit_options.checkpoint.dir =
          featlib::StrFormat("%s/ckpt_%llu", options.dir.c_str(),
                             static_cast<unsigned long long>(fit_id));
      if (!MakeDir(fit_options.checkpoint.dir).ok()) {
        ++out.failed;
        continue;
      }
    }
    std::unique_ptr<featlib::Augmenter> augmenter;
    {
      ScopedSpan span("core.make_augmenter", fit_id);
      augmenter = featlib::MakeFeatAugAugmenter(std::move(problem).ValueOrDie(),
                                                fit_options);
    }
    e.setups.push_back(SecondsSince(setup_start));

    ResetPeakRss();
    const double cpu_start = ProcessCpuSeconds();
    const int64_t fit_start = NowNs();
    Result<std::unique_ptr<FittedAugmenter>> fitted = [&] {
      ScopedSpan span("core.fit", fit_id);
      return augmenter->Fit();
    }();
    const double seconds = SecondsSince(fit_start);
    e.cpu_s += ProcessCpuSeconds() - cpu_start;
    if (!fitted.ok()) {
      ++out.failed;
      e.latencies.push_back(INFINITY);
      out.problems.push_back(fitted.status().ToString());
      continue;
    }
    peaks[i].push_back(PeakRssMb());
    fits[i].push_back(seconds);
    e.latencies.push_back(seconds);
    fit_seconds += seconds;
    rows += static_cast<double>(spec.n_train);

    const FittedAugmenter& handle = *fitted.value();
    const std::vector<std::string> keys = QueryKeys(handle.AllQueries());
    if (!first_keys[i].empty()) {
      if (keys != first_keys[i]) {
        out.Wrong(featlib::StrFormat("dataset %zu: refit gave another plan", i));
      }
      continue;
    }
    first_keys[i] = keys;
    if (handle.num_features() == 0) out.Wrong("empty plan");
    if (!handle.diagnostics().failed_candidates.empty()) {
      out.Wrong(featlib::StrFormat(
          "dataset %zu: %zu failed candidates", i,
          handle.diagnostics().failed_candidates.size()));
    }
    featlib::FeatureEvaluator* evaluator = augmenter->evaluator();
    double auc = 0.0, base_auc = 0.0;
    {
      ScopedSpan span("ml.test_score", fit_id);
      Result<double> a = evaluator->TestScore(handle.AllQueries());
      Result<double> b = evaluator->TestScore({});
      if (!a.ok() || !b.ok()) {
        out.Wrong("test scoring failed");
        continue;
      }
      auc = a.value();
      base_auc = b.value();
    }
    CheckAuc(auc, base_auc, i, &out);
    aucs.push_back(auc);
  }
  // Per dataset first (median over its fits), then the mean over datasets.
  std::vector<double> per_dataset, per_dataset_peak;
  for (size_t i = 0; i < spec.datasets; ++i) {
    if (fits[i].empty()) continue;
    per_dataset.push_back(Median(fits[i]));
    per_dataset_peak.push_back(Median(peaks[i]));
  }
  if (per_dataset.size() != spec.datasets) out.Wrong("a dataset never fitted");
  *plan_keys = first_keys[0];
  e.op_p50_s = Mean(per_dataset);
  e.peak_rss_mb = Mean(per_dataset_peak);
  e.rows_per_s = fit_seconds > 0 ? rows / fit_seconds : 0.0;
  e.test_auc = Mean(aucs);
  Report(e, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Serving inputs shared by transform_bulk and serve_point.

struct ServedDataset {
  Table training;
  Table relevant;
  std::shared_ptr<const FittedAugmenter> handle;
};

Status ReadTraining(const RunOptions& options, size_t i, Table* out) {
  FEAT_ASSIGN_OR_RETURN(*out, featlib::ReadCsv(TrainingCsv(options, i)));
  return Status::OK();
}

// Test AUC of each served plan (the plan's own quality, measured from the
// handle's queries).
double ServedAuc(const RunOptions& options, const std::vector<ServedDataset>& ds,
                 Outcome* out) {
  std::vector<double> aucs;
  for (size_t i = 0; i < ds.size(); ++i) {
    double auc = 0.0, base_auc = 0.0;
    Status st = ScorePlan(*options.workload, ds[i].training, ds[i].relevant,
                          ds[i].handle->AllQueries(), &auc, &base_auc);
    if (!st.ok()) {
      out->Wrong("test scoring failed: " + st.ToString());
      continue;
    }
    CheckAuc(auc, base_auc, i, out);
    aucs.push_back(auc);
  }
  return Mean(aucs);
}

// ---------------------------------------------------------------------------
// transform_bulk: one warm handle per plan; each call augments all of D.

Outcome RunTransform(const RunOptions& options,
                     std::vector<std::string>* plan_keys) {
  const WorkloadSpec& spec = *options.workload;
  Outcome out;
  std::vector<ServedDataset> ds(spec.datasets);
  EndToEnd e;
  for (size_t i = 0; i < spec.datasets; ++i) {
    Status st = ReadTraining(options, i, &ds[i].training);
    if (!st.ok()) {
      out.Wrong(st.ToString());
      return out;
    }
    // A serving process start: read the relevant table and the plan, compile
    // the handle, warm it with one call. Repeated; the last handle serves.
    const Table warm_batch = ds[i].training.Head(kServeBatchRows);
    for (int rep = 0; rep < kTransformSetupsPerPlan; ++rep) {
      ds[i].handle.reset();
      const int64_t setup_start = NowNs();
      Result<Table> relevant = [&] {
        ScopedSpan span("table.read_csv");
        return featlib::ReadCsv(RelevantCsv(options, i));
      }();
      if (!relevant.ok()) {
        out.Wrong(relevant.status().ToString());
        return out;
      }
      ds[i].relevant = std::move(relevant).ValueOrDie();
      Result<std::unique_ptr<FittedAugmenter>> handle = [&] {
        ScopedSpan span("core.load_plan");
        return featlib::LoadFittedAugmenter(PlanSql(options, i), ds[i].relevant);
      }();
      if (!handle.ok()) {
        out.Wrong(handle.status().ToString());
        return out;
      }
      ds[i].handle = std::move(handle).ValueOrDie();
      {
        ScopedSpan span("core.transform");
        if (!ds[i].handle->Transform(warm_batch).ok()) out.Wrong("warm-up failed");
      }
      e.setups.push_back(SecondsSince(setup_start));
    }
  }
  std::vector<std::string> oracle(spec.datasets);
  for (size_t i = 0; i < spec.datasets; ++i) {
    Result<std::string> enc =
        OracleEncoding(ds[i].handle->AllQueries(), ds[i].handle->feature_names(),
                       ds[i].training, ds[i].relevant);
    if (!enc.ok()) {
      out.Wrong("oracle: " + enc.status().ToString());
      return out;
    }
    oracle[i] = std::move(enc).ValueOrDie();
  }
  *plan_keys = QueryKeys(ds[0].handle->AllQueries());

  // Each plan is served for an equal share of the run.
  std::vector<double> plan_p50;
  double rows = 0.0, busy = 0.0;
  uint64_t call = 0, wrong = 0;
  for (size_t i = 0; i < spec.datasets; ++i) {
    std::vector<double> plan_latencies;
    const int64_t start = NowNs();
    do {
      ++call;
      ++out.attempted;
      const double cpu_start = ProcessCpuSeconds();
      const int64_t t0 = NowNs();
      Result<Table> augmented = [&] {
        ScopedSpan span("core.transform", call);
        return ds[i].handle->Transform(ds[i].training);
      }();
      const double seconds = SecondsSince(t0);
      e.cpu_s += ProcessCpuSeconds() - cpu_start;
      if (!augmented.ok()) {
        ++out.failed;
        plan_latencies.push_back(INFINITY);
        continue;
      }
      plan_latencies.push_back(seconds);
      busy += seconds;
      rows += static_cast<double>(ds[i].training.num_rows());
      ScopedSpan span("serve.encode_table", call);
      if (featlib::serve::EncodeTable(augmented.value()) != oracle[i]) ++wrong;
    } while (SecondsSince(start) < options.seconds / spec.datasets);
    plan_p50.push_back(Median(plan_latencies));
    e.latencies.insert(e.latencies.end(), plan_latencies.begin(), plan_latencies.end());
  }
  if (wrong > 0) {
    out.Wrong(featlib::StrFormat("%llu transform outputs differ from the oracle",
                                 static_cast<unsigned long long>(wrong)));
  }
  e.peak_rss_mb = PeakRssMb();
  e.op_p50_s = Mean(plan_p50);
  e.rows_per_s = busy > 0 ? rows / busy : 0.0;
  e.test_auc = ServedAuc(options, ds, &out);
  Report(e, &out);
  return out;
}

// ---------------------------------------------------------------------------
// serve_point: an in-process daemon on a unix socket, one closed-loop client
// sending 32-row batches. With nproc closed-loop clients the requests fall
// into coalesced groups or run alone depending on how the clients' phases
// line up, and p50 moved by 30% between runs of the same code; the probes
// measure coalescing under nproc connections instead.

struct Daemon {
  std::unique_ptr<featlib::serve::PlanRegistry> registry;
  std::unique_ptr<featlib::serve::Server> server;  // uses registry; drains on destruction
  std::string socket;
};

Status StartDaemon(const RunOptions& options, int rep,
                   const std::vector<ServedDataset>& ds, Daemon* d) {
  d->registry = std::make_unique<featlib::serve::PlanRegistry>();
  for (size_t i = 0; i < ds.size(); ++i) {
    FEAT_RETURN_NOT_OK(d->registry->AddPlan(PlanName(i), PlanSql(options, i),
                                            RelevantCsv(options, i)));
  }
  for (size_t i = 0; i < ds.size(); ++i) {
    ScopedSpan span("serve.registry_acquire");
    FEAT_RETURN_NOT_OK(d->registry->Acquire(PlanName(i)).status());
  }
  d->socket = featlib::StrFormat("%s/daemon%d.sock", options.dir.c_str(), rep);
  featlib::serve::ServerOptions server_options;
  server_options.unix_socket_path = d->socket;
  d->server = std::make_unique<featlib::serve::Server>(d->registry.get(),
                                                       server_options);
  {
    ScopedSpan span("serve.server_start");
    FEAT_RETURN_NOT_OK(d->server->Start());
  }
  FEAT_ASSIGN_OR_RETURN(featlib::serve::ServeClient client,
                        featlib::serve::ServeClient::ConnectUnix(d->socket));
  for (size_t i = 0; i < ds.size(); ++i) {
    ScopedSpan span("serve.request");
    FEAT_RETURN_NOT_OK(
        client.Transform(PlanName(i), ds[i].training.Head(kServeBatchRows))
            .status());
  }
  return Status::OK();
}

Outcome RunServe(const RunOptions& options, std::vector<std::string>* plan_keys) {
  const WorkloadSpec& spec = *options.workload;
  Outcome out;
  std::vector<ServedDataset> ds(spec.datasets);
  for (size_t i = 0; i < spec.datasets; ++i) {
    Status st = ReadTraining(options, i, &ds[i].training);
    if (!st.ok()) {
      out.Wrong(st.ToString());
      return out;
    }
  }
  EndToEnd e;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kDaemonSetups; ++rep) {
    daemon.reset();
    daemon = std::make_unique<Daemon>();
    const int64_t setup_start = NowNs();
    Status st = StartDaemon(options, rep, ds, daemon.get());
    if (!st.ok()) {
      out.Wrong("daemon start: " + st.ToString());
      return out;
    }
    e.setups.push_back(SecondsSince(setup_start));
  }
  // The oracle reads the relevant table itself and evaluates the registry's
  // plan queries with a fresh planner per plan.
  std::vector<std::vector<Table>> batches(spec.datasets);
  std::vector<std::vector<std::string>> oracle(spec.datasets);
  for (size_t i = 0; i < spec.datasets; ++i) {
    Result<std::shared_ptr<const FittedAugmenter>> handle =
        daemon->registry->Acquire(PlanName(i));
    Result<Table> relevant = featlib::ReadCsv(RelevantCsv(options, i));
    if (!handle.ok() || !relevant.ok()) {
      out.Wrong("oracle inputs unavailable");
      return out;
    }
    ds[i].handle = handle.value();
    ds[i].relevant = std::move(relevant).ValueOrDie();
    batches[i] = DrawBatches(ds[i].training, kServeBatchesPerPlan, kServeBatchRows,
                             DatasetSeed(options.seed, 100 + i));
    for (const Table& batch : batches[i]) {
      Result<std::string> enc =
          OracleEncoding(ds[i].handle->AllQueries(), ds[i].handle->feature_names(),
                         batch, ds[i].relevant);
      if (!enc.ok()) {
        out.Wrong("oracle: " + enc.status().ToString());
        return out;
      }
      oracle[i].push_back(std::move(enc).ValueOrDie());
    }
  }
  *plan_keys = QueryKeys(ds[0].handle->AllQueries());

  // Each plan is served for an equal share of the run. One client waits for
  // each response before it sends the next request.
  std::vector<double> plan_p50;
  uint64_t completed = 0, request_id = 0;
  double wall = 0.0;
  for (size_t i = 0; i < spec.datasets; ++i) {
    featlib::Rng rng(DatasetSeed(options.seed, 1000 + 16 * i));
    Result<featlib::serve::ServeClient> client =
        featlib::serve::ServeClient::ConnectUnix(daemon->socket);
    if (!client.ok()) {
      ++out.failed;
      e.latencies.push_back(INFINITY);
      continue;
    }
    std::vector<double> phase;
    uint64_t wrong = 0;
    const double cpu_start = ProcessCpuSeconds();
    const int64_t start = NowNs();
    const int64_t stop =
        start + static_cast<int64_t>(options.seconds / spec.datasets * 1e9);
    while (NowNs() < stop) {
      const size_t b = rng.UniformInt(kServeBatchesPerPlan);
      const uint64_t id = ++request_id;
      const int64_t t0 = NowNs();
      Result<Table> response = [&] {
        ScopedSpan span("serve.request", id);
        return client.value().Transform(PlanName(i), batches[i][b]);
      }();
      const double seconds = SecondsSince(t0);
      if (!response.ok()) {
        ++out.failed;
        phase.push_back(INFINITY);
        continue;
      }
      ++completed;
      phase.push_back(seconds);
      ScopedSpan span("serve.encode_table", id);
      if (featlib::serve::EncodeTable(response.value()) != oracle[i][b]) ++wrong;
    }
    wall += SecondsSince(start);
    e.cpu_s += ProcessCpuSeconds() - cpu_start;
    if (wrong > 0) {
      out.Wrong(featlib::StrFormat("plan %zu: %llu responses differ from the oracle",
                                   i, static_cast<unsigned long long>(wrong)));
    }
    plan_p50.push_back(Median(phase));
    e.latencies.insert(e.latencies.end(), phase.begin(), phase.end());
  }
  out.attempted = e.latencies.size();
  e.peak_rss_mb = PeakRssMb();
  e.op_p50_s = Mean(plan_p50);
  e.rows_per_s = static_cast<double>(completed * kServeBatchRows) / wall;
  e.test_auc = ServedAuc(options, ds, &out);
  Report(e, &out);
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t DatasetSeed(uint64_t seed, size_t i) {
  // SplitMix64 of (seed, i): nearby seeds give unrelated datasets.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + (i + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string RelevantCsv(const RunOptions& options, size_t i) {
  return DatasetDir(options, i) + "/plan.relevant.csv";
}

featlib::FeatAugOptions FitOptions() {
  featlib::FeatAugOptions o;
  o.evaluator.model = featlib::ModelKind::kLogisticRegression;
  o.n_templates = 4;
  o.queries_per_template = 5;
  return o;
}

Result<featlib::FeatAugProblem> LoadProblem(const RunOptions& options, size_t i) {
  ScopedSpan span("table.read_csv");
  FEAT_ASSIGN_OR_RETURN(Table training, featlib::ReadCsv(TrainingCsv(options, i)));
  FEAT_ASSIGN_OR_RETURN(Table relevant, featlib::ReadCsv(RelevantCsv(options, i)));
  return ProblemWith(*options.workload, std::move(training), std::move(relevant));
}

// One dataset's inputs: generated tables as CSV and, for the serving
// workloads, the plan served over them.
Status PrepareDataset(const RunOptions& options, size_t i) {
  const WorkloadSpec& spec = *options.workload;
  FEAT_RETURN_NOT_OK(MakeDir(DatasetDir(options, i)));
  const bool reference = spec.kind == WorkloadSpec::kFit && i + 1 < spec.datasets;
  const featlib::DatasetBundle bundle =
      Generate(spec, DatasetSeed(reference ? kReferenceSeed : options.seed, i));
  FEAT_RETURN_NOT_OK(featlib::WriteCsv(bundle.training, TrainingCsv(options, i)));
  FEAT_RETURN_NOT_OK(featlib::WriteCsv(bundle.relevant, RelevantCsv(options, i)));
  if (spec.kind == WorkloadSpec::kFit) return Status::OK();
  FEAT_ASSIGN_OR_RETURN(featlib::FeatAugProblem problem, PlanProblem(spec, i));
  featlib::FeatAug feataug(problem, FitOptions());
  FEAT_ASSIGN_OR_RETURN(featlib::AugmentationPlan plan, feataug.Fit());
  if (plan.queries.empty() || !plan.failed_candidates.empty()) {
    return Status::Internal("the fit behind the served plan is degenerate");
  }
  return featlib::WriteAugmentationPlan(plan, "relevant", problem.relevant,
                                        PlanSql(options, i));
}

Result<featlib::FeatAugProblem> PlanProblem(const WorkloadSpec& spec, size_t i) {
  const featlib::DatasetBundle bundle = Generate(spec, DatasetSeed(kReferenceSeed, i));
  FEAT_ASSIGN_OR_RETURN(Table training, featlib::ReadCsvFromString(
                                            featlib::WriteCsvToString(bundle.training)));
  FEAT_ASSIGN_OR_RETURN(Table relevant, featlib::ReadCsvFromString(
                                            featlib::WriteCsvToString(bundle.relevant)));
  return ProblemWith(spec, std::move(training), std::move(relevant));
}

Status Prepare(const RunOptions& options) {
  FEAT_RETURN_NOT_OK(MakeDir(options.dir));
  // Datasets are independent; preparing them side by side halves the wait.
  std::vector<Status> status(options.workload->datasets);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < status.size(); ++i) {
    threads.emplace_back([&, i] { status[i] = PrepareDataset(options, i); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : status) FEAT_RETURN_NOT_OK(st);
  return Status::OK();
}

Outcome RunWorkload(const RunOptions& options,
                    std::vector<std::string>* plan_keys) {
  switch (options.workload->kind) {
    case WorkloadSpec::kFit:
      return RunFit(options, plan_keys);
    case WorkloadSpec::kTransform:
      return RunTransform(options, plan_keys);
    case WorkloadSpec::kServe:
      return RunServe(options, plan_keys);
  }
  return Outcome();
}

std::vector<Table> DrawBatches(const Table& training, size_t n, size_t rows,
                               uint64_t seed) {
  featlib::Rng rng(seed);
  std::vector<Table> out;
  for (size_t b = 0; b < n; ++b) {
    std::vector<uint32_t> idx(rows);
    for (uint32_t& r : idx) {
      r = static_cast<uint32_t>(rng.UniformInt(training.num_rows()));
    }
    out.push_back(training.Take(idx));
  }
  return out;
}

std::vector<std::string> QueryKeys(const std::vector<AggQuery>& queries) {
  std::vector<std::string> keys;
  for (const AggQuery& q : queries) keys.push_back(q.CacheKey());
  return keys;
}

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

size_t NumCpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

int64_t NowNs() { return Tracer::NowNs(); }

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

}  // namespace perfbench
