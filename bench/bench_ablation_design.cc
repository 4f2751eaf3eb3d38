/// \file bench_ablation_design.cc
/// \brief Ablations of this implementation's own design choices (DESIGN.md
/// §5) — knobs the paper fixes implicitly or leaves unstated:
///
///   1. TPE gamma (good/bad split quantile) x exploration fraction;
///   2. MI feature binning: quantile vs equi-width (why ProxyScore uses
///      quantile bins);
///   3. warm-up budget: proxy iterations x top-k promoted to real
///      evaluation (§V.C defaults 200/50);
///   4. QTI beam width x max depth (§VI.B defaults).
///
/// Expected shapes: (1) mid-range gamma with a modest exploration fraction
/// is at or near the best cell; (2) quantile binning separates the planted
/// golden feature from the unpredicated weak one by a wide margin while
/// equi-width compresses heavy-tailed aggregates toward zero separation;
/// (3) quality saturates in top-k — a small k already captures the
/// transfer; (4) wider beams/deeper trees buy golden-attribute recall at
/// linear extra cost.

#include <cstdio>

#include "bench/harness.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/codec.h"
#include "core/generator.h"
#include "core/template_id.h"
#include "query/query_planner.h"
#include "stats/stats.h"

namespace featlib {
namespace bench {
namespace {

// ---------------------------------------------------------------------------
// Section 1: TPE gamma x exploration fraction on the golden pool's MI
// landscape.
// ---------------------------------------------------------------------------
int RunTpeKnobs(const BenchConfig& config, const DatasetBundle& b) {
  const int iterations = config.fast ? 40 : 100;
  const int seeds = config.fast ? 2 : 4;
  auto codec = QueryVectorCodec::Create(b.golden_template, b.relevant);
  if (!codec.ok()) return 1;
  auto evaluator = MakeEvaluator(b, ModelKind::kLogisticRegression, config.seed);
  if (!evaluator.ok()) return 1;
  FeatureEvaluator eval = std::move(evaluator).ValueOrDie();

  PrintHeader("TPE knobs — " + b.name +
              StrFormat(" (best MI after %d iters)", iterations));
  PrintRow("gamma \\ explore", {"0.00", "0.15", "0.30"});
  for (double gamma : {0.05, 0.15, 0.30}) {
    std::vector<std::string> cells;
    for (double explore : {0.0, 0.15, 0.30}) {
      double best_sum = 0.0;
      for (int s = 0; s < seeds; ++s) {
        TpeOptions tpe_options;
        tpe_options.gamma = gamma;
        tpe_options.exploration_fraction = explore;
        tpe_options.seed = config.seed + 101 * static_cast<uint64_t>(s);
        Tpe tpe(codec.value().space(), tpe_options);
        double best = 0.0;
        for (int i = 0; i < iterations; ++i) {
          const ParamVector v = tpe.Suggest();
          auto query = codec.value().Decode(v);
          if (!query.ok()) continue;
          auto score = eval.ProxyScore(query.value(), ProxyKind::kMutualInformation);
          if (!score.ok()) continue;
          best = std::max(best, score.value());
          tpe.Observe(v, -score.value());
        }
        best_sum += best;
      }
      cells.push_back(FormatMetric(best_sum / seeds));
    }
    PrintRow(StrFormat("gamma=%.2f", gamma), cells);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Section 2: MI binning strategy on planted features.
// ---------------------------------------------------------------------------
int RunMiBinning(const DatasetBundle& b) {
  auto labels_col = b.training.GetColumn(b.label_col);
  if (!labels_col.ok()) return 1;
  std::vector<int> label_bins(b.training.num_rows());
  for (size_t i = 0; i < label_bins.size(); ++i) {
    label_bins[i] = static_cast<int>(labels_col.value()->AsDouble(i));
  }

  // Three aggregate shapes: the golden query itself (AVG), its heavy-tailed
  // SUM and VAR siblings, and the unpredicated weak variants of each.
  struct Candidate {
    std::string name;
    AggQuery query;
  };
  std::vector<Candidate> candidates;
  for (AggFunction fn : {AggFunction::kAvg, AggFunction::kSum, AggFunction::kVar}) {
    AggQuery golden = b.golden_query;
    golden.agg = fn;
    candidates.push_back({StrFormat("golden %s", AggFunctionName(fn)), golden});
    AggQuery weak = golden;
    weak.predicates.clear();
    candidates.push_back({StrFormat("weak   %s", AggFunctionName(fn)), weak});
  }

  const int bins = 16;
  PrintHeader("MI binning — " + b.name + " (feature/label MI by strategy)");
  PrintRow("feature", {"quantile", "equi-width"});
  QueryPlanner planner;
  for (const Candidate& c : candidates) {
    auto feature =
        planner.ComputeFeatureColumn(c.query, b.training, b.relevant);
    if (!feature.ok()) return 1;
    const auto quantile_bins = DiscretizeQuantile(feature.value(), bins);
    const auto width_bins = Discretize(feature.value(), bins);
    PrintRow(c.name,
             {FormatMetric(DiscreteMutualInformation(quantile_bins, label_bins)),
              FormatMetric(DiscreteMutualInformation(width_bins, label_bins))});
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Section 3: warm-up budget (proxy iterations x top-k).
// ---------------------------------------------------------------------------
int RunWarmupBudget(const BenchConfig& config, const DatasetBundle& b) {
  const int seeds = config.fast ? 1 : 2;
  PrintHeader("Warm-up budget — " + b.name +
              " (best validation metric / model evals)");
  PrintRow("proxy iters \\ top-k", {"k=5", "k=15", "k=30"});
  for (int warmup_iters : {50, 200}) {
    std::vector<std::string> cells;
    for (int top_k : {5, 15, 30}) {
      double metric_sum = 0.0;
      size_t eval_sum = 0;
      for (int s = 0; s < seeds; ++s) {
        auto evaluator =
            MakeEvaluator(b, ModelKind::kLogisticRegression, config.seed);
        if (!evaluator.ok()) return 1;
        FeatureEvaluator eval = std::move(evaluator).ValueOrDie();
        GeneratorOptions gen_options;
        gen_options.warmup_iterations = warmup_iters;
        gen_options.warmup_top_k = top_k;
        gen_options.generation_iterations = config.fast ? 10 : 20;
        gen_options.seed = config.seed + 7 * static_cast<uint64_t>(s);
        SqlQueryGenerator generator(&eval, gen_options);
        auto gen = generator.Run(b.golden_template);
        if (!gen.ok()) return 1;
        metric_sum += gen.value().queries.empty()
                          ? 0.0
                          : gen.value().queries.front().model_metric;
        eval_sum += gen.value().model_evals;
      }
      cells.push_back(StrFormat("%s/%zu",
                                FormatMetric(metric_sum / seeds).c_str(),
                                eval_sum / static_cast<size_t>(seeds)));
    }
    PrintRow(StrFormat("proxy=%d", warmup_iters), cells);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Section 4: QTI beam width x depth — golden-attribute recall vs cost.
// ---------------------------------------------------------------------------
double GoldenRecall(const TemplateIdResult& result, const QueryTemplate& golden) {
  double best = 0.0;
  for (const ScoredTemplate& st : result.templates) {
    size_t hit = 0;
    for (const std::string& attr : golden.where_attrs) {
      for (const std::string& have : st.tmpl.where_attrs) {
        if (have == attr) {
          ++hit;
          break;
        }
      }
    }
    best = std::max(best, static_cast<double>(hit) /
                              static_cast<double>(golden.where_attrs.size()));
  }
  return best;
}

int RunQtiKnobs(const BenchConfig& config, const DatasetBundle& b) {
  PrintHeader("QTI beam x depth — " + b.name +
              " (golden-attr recall / nodes / seconds)");
  PrintRow("beam \\ depth", {"depth=2", "depth=3"});
  QueryTemplate base = b.golden_template;
  base.where_attrs.clear();
  for (int beam : {1, 2, 4}) {
    std::vector<std::string> cells;
    for (int depth : {2, 3}) {
      auto evaluator =
          MakeEvaluator(b, ModelKind::kLogisticRegression, config.seed);
      if (!evaluator.ok()) return 1;
      FeatureEvaluator eval = std::move(evaluator).ValueOrDie();
      TemplateIdOptions qti_options;
      qti_options.beam_width = beam;
      qti_options.max_depth = depth;
      qti_options.n_templates = 8;
      qti_options.node_iterations = config.fast ? 10 : 20;
      qti_options.seed = config.seed;
      TemplateIdentifier identifier(&eval, qti_options);
      WallTimer timer;
      auto result = identifier.Run(base, b.where_candidates);
      if (!result.ok()) return 1;
      cells.push_back(StrFormat(
          "%.2f/%zu/%.2fs", GoldenRecall(result.value(), b.golden_template),
          result.value().nodes_evaluated, timer.Seconds()));
    }
    PrintRow(StrFormat("beam=%d", beam), cells);
  }
  return 0;
}

int Run(const BenchConfig& config) {
  const std::vector<std::string> datasets =
      config.datasets.empty() ? std::vector<std::string>{"tmall", "merchant"}
                              : config.datasets;
  std::printf("Design-choice ablations (DESIGN.md §5)\n");
  std::printf("rows=%zu fast=%d\n", config.rows, config.fast ? 1 : 0);
  for (const std::string& name : datasets) {
    auto bundle = MakeBundle(name, config);
    if (!bundle.ok()) {
      std::fprintf(stderr, "bundle %s: %s\n", name.c_str(),
                   bundle.status().ToString().c_str());
      return 1;
    }
    const DatasetBundle& b = bundle.value();
    if (RunTpeKnobs(config, b) != 0) return 1;
    if (RunMiBinning(b) != 0) return 1;
    if (RunWarmupBudget(config, b) != 0) return 1;
    if (RunQtiKnobs(config, b) != 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace featlib

int main(int argc, char** argv) {
  featlib::bench::BenchConfig config;
  if (!featlib::bench::ParseBenchArgs(argc, argv, &config)) return 2;
  return featlib::bench::Run(config);
}
