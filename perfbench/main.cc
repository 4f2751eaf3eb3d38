/// \file main.cc
/// \brief featbench: the end-to-end benchmark binary.
///
///   featbench prepare --workload W --seed N --dir D
///   featbench run     --workload W --seed N --seconds S --trace 0|1 --dir D
///                     [--trace-out F]
///
/// `prepare` writes the run's inputs under D (generated tables as CSV and,
/// for the serving workloads, the fitted plan as SQL). `run` measures the
/// workload over those files and prints two lines: the host fingerprint,
/// then the result object {"correct", "attempted", "failed", "metrics"}.
/// Exit code 0 means the run completed; output checks are in "correct".

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/str_util.h"
#include "common/config.h"
#include "query/kernel_dispatch.h"
#include "trace.h"

namespace perfbench {
namespace {

std::string HostJson() {
  const featlib::FeatAugConfig& config = featlib::FeatAugConfig::Global();
  return featlib::StrFormat(
      "{\"nproc\": %ld, \"hardware_concurrency\": %u, \"featlib_threads\": %d, "
      "\"simd\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}",
      ::sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      config.ResolvedNumThreads(),
      featlib::SimdLevelName(featlib::DetectedSimdLevel()), PERFBENCH_CXX_COMPILER,
      PERFBENCH_BUILD_TYPE);
}

void PrintResult(Outcome out) {
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.Wrong("metric " + m.name + " is not finite");
  }
  for (const std::string& p : out.problems) std::fprintf(stderr, "check: %s\n", p.c_str());
  std::string metrics;
  for (const Metric& m : out.metrics) {
    if (!metrics.empty()) metrics += ", ";
    const std::string value =
        std::isfinite(m.value) ? featlib::StrFormat("%.17g", m.value) : "null";
    metrics += featlib::StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                                  m.name.c_str(), value.c_str(), m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
}

// Traced-run bookkeeping: the main loop's end-to-end numbers under tracing,
// the span count and cost, self time per layer, and the trace file.
void FinishTrace(const RunOptions& options, size_t main_loop_spans,
                 double main_loop_seconds, Outcome* out) {
  Tracer& tracer = Tracer::Get();
  const std::map<std::string, double> self = tracer.SelfSecondsByLayer();
  for (const char* layer : {"core", "query", "stats", "ml", "hpo", "serve", "table"}) {
    auto it = self.find(layer);
    out->Add(featlib::StrFormat("self.%s_s", layer), it == self.end() ? 0.0 : it->second,
             "s");
  }
  out->Add("trace.spans", static_cast<double>(tracer.num_spans()), "count");
  if (!options.trace_out.empty() &&
      !tracer.WriteChromeJson(options.trace_out,
                              {{"workload", options.workload->name},
                               {"seed", std::to_string(options.seed)},
                               {"host", HostJson()}})) {
    out->Wrong("cannot write " + options.trace_out);
  }
  // Cost of one span, measured after the export so it stays out of the file.
  constexpr int kSpans = 20000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) ScopedSpan span("trace.cost");
  const double span_s = SecondsSince(t0) / kSpans;
  out->Add("trace.span_cost_ns", span_s * 1e9, "ns");
  out->Add("trace.overhead_share",
           main_loop_seconds > 0
               ? static_cast<double>(main_loop_spans) * span_s / main_loop_seconds
               : 0.0,
           "ratio");
}

// Milliseconds of a fixed single-thread integer loop (median of 5): how fast
// the host ran during this run, printed beside the result to read noisy runs.
double HostGaugeMs() {
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    const int64_t t0 = NowNs();
    uint64_t x = static_cast<uint64_t>(t0) | 1;  // run-time seed: no folding
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile uint64_t sink = x;
    (void)sink;
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  return Median(ms);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: featbench prepare|run --workload W --seed N ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      options.workload = FindWorkload(value);
      if (options.workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value.c_str());
        return 2;
      }
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--dir") {
      options.dir = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (options.workload == nullptr || options.dir.empty()) {
    std::fprintf(stderr, "--workload and --dir are required\n");
    return 2;
  }
  if (mode == "prepare") {
    featlib::Status st = Prepare(options);
    if (!st.ok()) {
      std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  }
  Tracer::Get().Enable(options.trace);
  const int64_t start = NowNs();
  std::vector<std::string> plan_keys;
  Outcome out = RunWorkload(options, &plan_keys);
  if (options.trace) {
    // End-to-end numbers of a traced run are reported as traced.<name>, next
    // to the per-layer metrics; the untraced run reports them plain.
    for (Metric& m : out.metrics) m.name = "traced." + m.name;
    out.detail.clear();
    const size_t main_loop_spans = Tracer::Get().num_spans();
    const double main_loop_seconds = SecondsSince(start);
    RunProbes(options, plan_keys, &out);
    FinishTrace(options, main_loop_spans, main_loop_seconds, &out);
  }
  out.detail.push_back({"host_gauge_ms", HostGaugeMs(), "ms"});
  std::string detail;
  for (const Metric& m : out.detail) {
    if (!std::isfinite(m.value)) continue;
    detail += featlib::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                 detail.empty() ? "" : ", ", m.name.c_str(), m.value,
                                 m.unit.c_str());
  }
  std::printf("{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"detail\": {%s}}\n",
              HostJson().c_str(), options.workload->name,
              static_cast<unsigned long long>(options.seed), detail.c_str());
  PrintResult(std::move(out));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
