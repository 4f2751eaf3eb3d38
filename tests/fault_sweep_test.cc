/// \file fault_sweep_test.cc
/// \brief Randomized fault-injection sweep: under EnableRandom(seed, p) every
/// injected fault must surface as a clean typed Status — never a crash, a
/// deadlock, or silent garbage — and every slot that *does* succeed must be
/// byte-identical to an uninjected run.
///
/// CI drives this binary across seeds (scripts/ci.sh fault-sweep job) via:
///   FEATLIB_FAULT_SEED — base seed (default 1)
///   FEATLIB_FAULT_SWEEP_SEEDS — number of consecutive seeds (default 8)
///   FEATLIB_FAULT_PROB — per-site failure probability (default 0.08)

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/plan_io.h"
#include "golden_util.h"
#include "query/query_planner.h"

namespace featlib {
namespace {

using golden::SameBits;

#ifdef FEATLIB_FAULT_INJECTION

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtod(v, nullptr) : fallback;
}

struct Pair {
  Table relevant;
  Table training;
};

Pair MakePair() {
  Pair out;
  Rng rng(7);
  const char* depts[] = {"a", "b", "c"};
  Column k(DataType::kInt64), v(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
  for (int i = 0; i < 160; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(12)));
    if (rng.Bernoulli(0.2)) {
      v.AppendNull();
    } else {
      v.AppendDouble(rng.Normal(0, 5));
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(4)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  EXPECT_TRUE(out.relevant.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("v", std::move(v)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());
  Column dk(DataType::kInt64);
  for (int i = 0; i < 15; ++i) dk.AppendInt(i);
  EXPECT_TRUE(out.training.AddColumn("k", std::move(dk)).ok());
  return out;
}

std::vector<AggQuery> SweepQueries() {
  auto make = [](AggFunction fn, std::vector<Predicate> preds) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = "v";
    q.group_keys = {"k"};
    q.predicates = std::move(preds);
    return q;
  };
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", 1.0, 3.0);
  return {
      make(AggFunction::kSum, {pa}),   make(AggFunction::kAvg, {pa}),
      make(AggFunction::kSum, {}),     make(AggFunction::kMax, {pb}),
      make(AggFunction::kCount, {pb}), make(AggFunction::kMin, {pa, pb}),
  };
}

// A failure escaping the harness as anything but these codes is a bug: the
// injector produces kInternal, inheritance preserves it, and plan_io maps I/O trouble to kIOError/kNotFound.
bool IsCleanFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kNotFound:
    case StatusCode::kInvalidArgument:
      return true;
    default:
      return false;
  }
}

TEST(FaultSweepTest, RandomFaultsSurfaceAsCleanTypedStatuses) {
  const Pair tables = MakePair();
  const std::vector<AggQuery> queries = SweepQueries();

  // Uninjected byte-identity reference.
  FaultInjector::Global().Reset();
  std::vector<std::vector<double>> expected;
  {
    QueryPlanner planner;
    auto r = planner.EvaluateMany(queries, tables.training, tables.relevant);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected = std::move(r).ValueOrDie();
  }

  const uint64_t base_seed = EnvU64("FEATLIB_FAULT_SEED", 1);
  const uint64_t num_seeds = EnvU64("FEATLIB_FAULT_SWEEP_SEEDS", 8);
  const double prob = EnvDouble("FEATLIB_FAULT_PROB", 0.08);

  uint64_t total_faults = 0;
  for (uint64_t seed = base_seed; seed < base_seed + num_seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultInjector::Global().EnableRandom(seed, prob);

    // Serial planner: deterministic per-site call indices, so one seed is
    // one reproducible fault pattern (re-run a failing seed locally).
    QueryPlanner planner;
    auto r = planner.EvaluateManyIsolated(queries, tables.training,
                                          tables.relevant);
    if (!r.ok()) {
      EXPECT_TRUE(IsCleanFailure(r.status())) << r.status().ToString();
    } else {
      ASSERT_EQ(r.value().size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryPlanner::CandidateResult& slot = r.value()[i];
        if (!slot.status.ok()) {
          EXPECT_TRUE(IsCleanFailure(slot.status)) << slot.status.ToString();
          continue;
        }
        // Surviving under injection must mean *unchanged*: same bytes as a
        // run that never saw a fault.
        ASSERT_EQ(slot.values.size(), expected[i].size());
        for (size_t row = 0; row < slot.values.size(); ++row) {
          ASSERT_TRUE(SameBits(slot.values[row], expected[i][row]))
              << "candidate " << i << " row " << row;
        }
      }
    }

    // plan_io under the same fault pattern: write + read + parse round-trip
    // either succeeds whole or fails with a typed Status.
    AugmentationPlan plan;
    plan.queries = queries;
    const std::string path =
        ::testing::TempDir() + "/fault_sweep_plan_" + std::to_string(seed) +
        ".sql";
    const Status wrote =
        WriteAugmentationPlan(plan, "logs", tables.relevant, path);
    if (wrote.ok()) {
      auto read = ReadAugmentationPlan(path);
      if (read.ok()) {
        EXPECT_EQ(read.value().queries.size(), queries.size());
      } else {
        EXPECT_TRUE(IsCleanFailure(read.status())) << read.status().ToString();
      }
    } else {
      EXPECT_TRUE(IsCleanFailure(wrote)) << wrote.ToString();
    }
    std::remove(path.c_str());

    total_faults += FaultInjector::Global().faults_injected();
    FaultInjector::Global().Reset();
  }
  // The sweep is vacuous if nothing was ever injected; with the default 8
  // seeds x ~dozens of site calls x p=0.08 this fires with near certainty.
  if (num_seeds >= 4 && prob >= 0.05) EXPECT_GT(total_faults, 0u);
}

#else

TEST(FaultSweepTest, SkippedWithoutFaultInjectionBuild) { SUCCEED(); }

#endif  // FEATLIB_FAULT_INJECTION

}  // namespace
}  // namespace featlib
