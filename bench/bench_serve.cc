/// \file bench_serve.cc
/// \brief Serving-daemon benchmark: end-to-end request latency and
/// throughput through the socket front-end (framing + registry + coalescing
/// batcher) against a live in-process daemon, with byte-identity verified
/// against direct TransformMany on the same fitted plan.
///
///   bench_serve [--clients=4] [--requests=50] [--rows=400] [--batch-rows=30]
///               [--out=BENCH_executor.json]
///
/// Appends/replaces the serve_* fields of the flat one-line JSON record at
/// --out (default: BENCH_executor.json in the cwd — scripts/ci.sh points it
/// at the repo root copy bench_micro wrote, and asserts the fields):
///
///   serve_p50_seconds        median end-to-end request latency
///   serve_p99_seconds        99th-percentile end-to-end request latency
///   serve_throughput_rps     completed requests / wall seconds
///   serve_bit_identical      every response byte-identical to in-process
///   serve_coalesced_flushes  flushes that merged >= 2 requests
///
/// Exits non-zero when any response differs from the in-process reference.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/plan_io.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/plan_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "table/csv.h"

namespace featlib {
namespace {

struct ServeBenchConfig {
  int clients = 4;
  int requests_per_client = 50;
  size_t relevant_rows = 400;
  size_t batch_rows = 30;
  std::string out_path = "BENCH_executor.json";
};

bool Parse(int argc, char** argv, ServeBenchConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--clients=")) config->clients = std::atoi(v);
    else if (const char* v = value_of("--requests=")) config->requests_per_client = std::atoi(v);
    else if (const char* v = value_of("--rows=")) config->relevant_rows = std::atoll(v);
    else if (const char* v = value_of("--batch-rows=")) config->batch_rows = std::atoll(v);
    else if (const char* v = value_of("--out=")) config->out_path = v;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return config->clients > 0 && config->requests_per_client > 0;
}

// The serving fixture: a one-to-many relevant table and a query set
// spanning the kernel families, shipped as the daemon's on-disk pair.
Table MakeRelevant(size_t rows) {
  Table relevant;
  Rng rng(29);
  const char* depts[] = {"x", "y", "z"};
  Column k(DataType::kInt64), v(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
  for (size_t i = 0; i < rows; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(20)));
    if (rng.Bernoulli(0.15)) {
      v.AppendNull();
    } else {
      v.AppendDouble(rng.Normal(0, 10));
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(5)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  FEAT_CHECK(relevant.AddColumn("k", std::move(k)).ok(), "fixture");
  FEAT_CHECK(relevant.AddColumn("v", std::move(v)).ok(), "fixture");
  FEAT_CHECK(relevant.AddColumn("level", std::move(level)).ok(), "fixture");
  FEAT_CHECK(relevant.AddColumn("dept", std::move(dept)).ok(), "fixture");
  return relevant;
}

Table MakeBatch(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Table batch;
  Column k(DataType::kInt64), age(DataType::kDouble);
  for (size_t i = 0; i < rows; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(24)));
    age.AppendDouble(20.0 + static_cast<double>(rng.UniformInt(40)));
  }
  FEAT_CHECK(batch.AddColumn("k", std::move(k)).ok(), "fixture");
  FEAT_CHECK(batch.AddColumn("age", std::move(age)).ok(), "fixture");
  return batch;
}

AugmentationPlan MakePlan() {
  auto query = [](AggFunction fn, std::string attr,
                  std::vector<Predicate> preds) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = std::move(attr);
    q.group_keys = {"k"};
    q.predicates = std::move(preds);
    return q;
  };
  const Predicate dept_x = Predicate::Equals("dept", Value::Str("x"));
  const Predicate lvl = Predicate::Range("level", 1.0, 3.0);
  AugmentationPlan plan;
  plan.queries.push_back(query(AggFunction::kAvg, "v", {}));
  plan.queries.push_back(query(AggFunction::kSum, "v", {dept_x}));
  plan.queries.push_back(query(AggFunction::kMax, "v", {dept_x, lvl}));
  plan.queries.push_back(query(AggFunction::kCount, "", {lvl}));
  plan.queries.push_back(query(AggFunction::kMedian, "v", {dept_x}));
  for (size_t i = 0; i < plan.queries.size(); ++i) {
    plan.feature_names.push_back("f" + std::to_string(i));
    plan.valid_metrics.push_back(0.5);
  }
  return plan;
}

/// Merges `record`'s fields into the flat one-line JSON at `path`,
/// replacing any existing serve_* fields and preserving everything else
/// (bench_micro's record). The split is quote-aware: values like
/// "threads": "1,2,4,8" contain top-level-looking commas.
Status MergeRecordInto(const std::string& path,
                       const bench::JsonRecord& record) {
  std::vector<std::string> kept;
  std::ifstream in(path);
  if (in.good()) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    // Trim whitespace and the outer braces.
    const size_t open = text.find('{');
    const size_t close = text.rfind('}');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      return Status::DataLoss(path + " is not a flat JSON object");
    }
    text = text.substr(open + 1, close - open - 1);
    std::string field;
    bool in_string = false;
    for (size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        field.push_back(c);
        if (c == '\\' && i + 1 < text.size()) {
          field.push_back(text[++i]);
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
        field.push_back(c);
      } else if (c == ',') {
        if (!field.empty()) kept.push_back(field);
        field.clear();
      } else if (!(field.empty() &&
                   (c == ' ' || c == '\n' || c == '\t' || c == '\r'))) {
        field.push_back(c);
      }
    }
    if (!field.empty()) kept.push_back(field);
    // Drop stale serve_* fields (ours to replace) and empty tokens.
    kept.erase(std::remove_if(kept.begin(), kept.end(),
                              [](const std::string& f) {
                                const size_t q = f.find('"');
                                return q == std::string::npos ||
                                       f.compare(q, 7, "\"serve_") == 0;
                              }),
               kept.end());
  }
  const std::string fresh = record.ToString();  // {"serve_...": ...}
  std::string merged = "{";
  for (const std::string& f : kept) {
    merged += f;
    merged += ", ";
  }
  merged += fresh.substr(1);  // drop the record's opening brace
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return Status::IOError("cannot write " + path);
  out << merged << "\n";
  return Status::OK();
}

// The measured run over the fixture directory `dir`; returns the exit code.
int RunIn(const ServeBenchConfig& config, const std::string& dir) {
  // --- Fixture: plan pair on disk, daemon over a unix socket. ---
  const Table relevant = MakeRelevant(config.relevant_rows);
  FEAT_CHECK(WriteCsv(relevant, dir + "/bench.relevant.csv").ok(),
             "fixture write");
  FEAT_CHECK(WriteAugmentationPlan(MakePlan(), "relevant", relevant,
                                   dir + "/bench.sql")
                 .ok(),
             "fixture write");
  auto reread = ReadCsv(dir + "/bench.relevant.csv");
  FEAT_CHECK(reread.ok(), "fixture reread");

  serve::PlanRegistry registry;
  Status st = registry.DiscoverPlans(dir);
  FEAT_CHECK(st.ok(), "discover");

  serve::ServerOptions options;
  options.unix_socket_path = dir + "/daemon.sock";
  serve::Server server(&registry, options);
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  // Warm the plan so the measured window is steady-state serving.
  FEAT_CHECK(registry.Acquire("bench").ok(), "warm");

  // --- In-process reference for byte-identity. ---
  std::vector<Table> batches;
  for (int b = 0; b < 8; ++b) {
    batches.push_back(MakeBatch(config.batch_rows, 100 + b));
  }
  auto direct = LoadFittedAugmenter(dir + "/bench.sql", reread.value());
  FEAT_CHECK(direct.ok(), "reference load");
  auto many = direct.value()->TransformMany(batches);
  FEAT_CHECK(many.ok(), "reference transform");
  std::vector<std::string> reference;
  for (const Table& table : many.value()) {
    reference.push_back(serve::EncodeTable(table));
  }

  // --- Closed-loop load: one connection per client thread. ---
  const int total_requests = config.clients * config.requests_per_client;
  std::vector<std::vector<double>> latencies(config.clients);
  std::vector<int> mismatches(config.clients, 0);
  std::vector<int> errors(config.clients, 0);
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::ServeClient::ConnectUnix(options.unix_socket_path);
      if (!client.ok()) {
        errors[c] = config.requests_per_client;
        return;
      }
      latencies[c].reserve(config.requests_per_client);
      for (int r = 0; r < config.requests_per_client; ++r) {
        const size_t b = (c + r) % batches.size();
        WallTimer timer;
        auto out = client.value().Transform("bench", batches[b]);
        const double seconds = timer.Seconds();
        if (!out.ok()) {
          ++errors[c];
          continue;
        }
        latencies[c].push_back(seconds);
        if (serve::EncodeTable(out.value()) != reference[b]) ++mismatches[c];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_seconds = wall.Seconds();
  server.Shutdown();

  std::vector<double> all;
  int total_errors = 0;
  int total_mismatches = 0;
  for (int c = 0; c < config.clients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    total_errors += errors[c];
    total_mismatches += mismatches[c];
  }
  if (all.empty()) {
    std::fprintf(stderr, "no request completed\n");
    return 1;
  }
  std::sort(all.begin(), all.end());
  auto percentile = [&](double p) {
    const size_t idx = static_cast<size_t>(p * static_cast<double>(all.size() - 1));
    return all[idx];
  };
  const double p50 = percentile(0.50);
  const double p99 = percentile(0.99);
  const double throughput =
      wall_seconds > 0.0 ? static_cast<double>(all.size()) / wall_seconds : 0.0;
  const bool bit_identical = total_mismatches == 0 && total_errors == 0;

  bench::JsonRecord record;
  record.Add("serve_clients", static_cast<double>(config.clients))
      .Add("serve_requests", static_cast<double>(total_requests))
      .Add("serve_p50_seconds", p50)
      .Add("serve_p99_seconds", p99)
      .Add("serve_throughput_rps", throughput)
      .Add("serve_coalesced_flushes",
           static_cast<double>(server.batcher().num_coalesced_flushes()))
      .Add("serve_max_flush_size",
           static_cast<double>(server.batcher().max_flush_size()))
      .Add("serve_bit_identical", bit_identical);
  st = MergeRecordInto(config.out_path, record);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "bench_serve: %d clients x %d requests, p50 %.6fs p99 %.6fs "
      "%.0f req/s, %zu coalesced flush(es), bit_identical=%s -> %s\n",
      config.clients, config.requests_per_client, p50, p99, throughput,
      server.batcher().num_coalesced_flushes(),
      bit_identical ? "true" : "false", config.out_path.c_str());
  return bit_identical ? 0 : 1;
}

int Run(const ServeBenchConfig& config) {
  std::string dir_template = "/tmp/feataug_bench_serve_XXXXXX";
  std::vector<char> dir_buf(dir_template.begin(), dir_template.end());
  dir_buf.push_back('\0');
  if (::mkdtemp(dir_buf.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dir = dir_buf.data();
  const int rc = RunIn(config, dir);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  return rc;
}

}  // namespace
}  // namespace featlib

int main(int argc, char** argv) {
  featlib::ServeBenchConfig config;
  if (!featlib::Parse(argc, argv, &config)) return 2;
  return featlib::Run(config);
}
