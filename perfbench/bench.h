#pragma once

/// \file bench.h
/// \brief Shared pieces of the end-to-end benchmark: workload table, run
/// options, the result record, input files and small statistics helpers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/augmenter.h"
#include "core/feataug.h"

namespace perfbench {

/// One workload: which generator, at what size, and how it is exercised.
struct WorkloadSpec {
  const char* name;
  const char* dataset;         // "tmall" | "instacart"
  size_t n_train;              // entities in the training table D
  double logs_per_entity;      // mean relevant rows per entity
  size_t datasets;             // independent datasets drawn from the seed
  bool checkpoint;             // durable fit to a fresh directory per fit
  enum Kind { kFit, kTransform, kServe } kind;
};

const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;        // prepared inputs + scratch space of this run
  std::string trace_out;  // Chrome trace-event JSON path (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: output checks, operation accounting, metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;  // printed beside the result, not gated
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check; the run reports correct = false.
  void Wrong(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Seed of the i-th dataset of a run.
uint64_t DatasetSeed(uint64_t seed, size_t i);

/// The relevant table of the i-th prepared dataset inside the run directory.
std::string RelevantCsv(const RunOptions& options, size_t i);

/// FeatAug options of every fit: LR, 4 templates x 5 queries, the other
/// FeatAugOptions defaults.
featlib::FeatAugOptions FitOptions();

/// The problem over tables read back from the prepared CSV files (the
/// program only ever sees these files). Column roles come from the
/// generator's schema.
featlib::Result<featlib::FeatAugProblem> LoadProblem(const RunOptions& options,
                                                     size_t i);

/// The problem the i-th served plan is fitted on: a fixed reference dataset,
/// whatever the run's seed, with column types as a CSV round trip gives them.
featlib::Result<featlib::FeatAugProblem> PlanProblem(const WorkloadSpec& spec,
                                                     size_t i);

/// Writes the run's input files: training + relevant CSV per dataset, and
/// for the serving workloads the fitted plan as SQL.
featlib::Status Prepare(const RunOptions& options);

/// Main loop of the workload (traced when tracing is on). `plan_keys`
/// receives the query keys of the plan fitted or served on dataset 0.
Outcome RunWorkload(const RunOptions& options,
                    std::vector<std::string>* plan_keys);

/// Per-layer probes of a traced run, over reference dataset 0 (the fit
/// workloads' first dataset; the data plan 0 of the serving workloads was
/// fitted on). `plan_keys` are the query keys the main loop fitted or served
/// there; the probe's decomposed fit must reproduce them.
void RunProbes(const RunOptions& options,
               const std::vector<std::string>& plan_keys, Outcome* out);

/// `n` batches of `rows` rows drawn from `training` with `seed`.
std::vector<featlib::Table> DrawBatches(const featlib::Table& training,
                                        size_t n, size_t rows, uint64_t seed);

std::vector<std::string> QueryKeys(const std::vector<featlib::AggQuery>& queries);

double Median(std::vector<double> v);
double SecondsSince(int64_t start_ns);
/// Online CPUs: the connection and submitter count of the serving probes.
size_t NumCpus();
int64_t NowNs();

}  // namespace perfbench
