#include "query/morsel.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "query/bitset.h"
#include "query/kernel_dispatch.h"
#include "query/predicate.h"

namespace featlib {

namespace {

// ---------------------------------------------------------------------------
// Compiled batch: artifact specs deduplicated across candidates (same
// sharing structure as the planner's GroupReq/MaskReq/ViewReq DAG) plus one
// GroupAccumulator per candidate.
// ---------------------------------------------------------------------------

struct GroupSpec {
  explicit GroupSpec(std::vector<std::string> keys)
      : builder(std::move(keys)) {}
  GroupIndexBuilder builder;
};

struct FilterSpec {
  std::vector<Predicate> preds;  // active (non-trivial) conjuncts
};

struct ViewSpec {
  std::string attr;
};

struct CandPlan {
  size_t slot = 0;  // index into queries / slot_errors / result vectors
  size_t group = 0;
  ptrdiff_t filter = -1;  // -1 = unfiltered
  ptrdiff_t view = -1;    // -1 = COUNT(*) without an agg attribute
  std::unique_ptr<GroupAccumulator> acc;
  bool failed = false;
  Status error;  // merge-fault slot for the current morsel (disjoint writes)
};

/// Artifacts of one in-flight morsel, indexed by spec position.
struct MorselData {
  size_t rows = 0;
  std::vector<std::vector<uint32_t>> row_groups;  // per group spec
  std::vector<size_t> num_groups_after;           // builder count per spec
  std::vector<Bitset> masks;                      // per filter spec
  std::vector<std::vector<double>> views;         // per view spec
};

}  // namespace

MorselSet MorselSet::Split(size_t n_rows, size_t morsel_rows) {
  MorselSet set;
  if (n_rows == 0) return set;
  const size_t step = morsel_rows == 0 ? n_rows : morsel_rows;
  set.morsels_.reserve((n_rows + step - 1) / step);
  for (size_t begin = 0; begin < n_rows; begin += step) {
    set.morsels_.push_back(Morsel{begin, std::min(begin + step, n_rows)});
  }
  return set;
}

Result<MorselResult> ExecuteMorsels(const std::vector<AggQuery>& queries,
                                    const Table& relevant,
                                    const MorselOptions& options,
                                    std::vector<Status>* slot_errors) {
  const bool isolated = slot_errors != nullptr;
  if (isolated) slot_errors->assign(queries.size(), Status::OK());
  const ExecContext* ctx = options.ctx;
  const KernelOps& ops =
      options.ops != nullptr ? *options.ops : ResolveKernelOps(KernelBackend::kAuto);

  // --- Compile: validate, dedup group/filter/view specs, one accumulator
  // per candidate.
  std::vector<GroupSpec> group_specs;
  std::vector<FilterSpec> filter_specs;
  std::vector<ViewSpec> view_specs;
  std::vector<CandPlan> cands;
  std::unordered_map<std::string, size_t> group_of, filter_of, view_of;
  std::vector<std::pair<std::string, const Column*>> needed_cols;
  std::unordered_map<std::string, size_t> col_of;

  auto need_column = [&](const std::string& name) -> Status {
    if (col_of.emplace(name, needed_cols.size()).second) {
      FEAT_ASSIGN_OR_RETURN(const Column* col, relevant.GetColumn(name));
      needed_cols.emplace_back(name, col);
    }
    return Status::OK();
  };

  for (size_t slot = 0; slot < queries.size(); ++slot) {
    const AggQuery& q = queries[slot];
    Status st = q.Validate(relevant);
    std::vector<Predicate> active;
    if (st.ok()) {
      for (const Predicate& p : q.predicates) {
        if (!p.IsTrivial()) active.push_back(p);
      }
      // Bind once up front so a bad filter (type mismatch) fails its
      // candidate at compile time, not mid-pipeline as a batch error.
      if (!active.empty()) st = CompiledFilter::Compile(active, relevant).status();
    }
    if (!st.ok()) {
      if (!isolated) return st;
      (*slot_errors)[slot] = std::move(st);
      continue;
    }

    CandPlan cand;
    cand.slot = slot;
    const std::string group_key = StrJoin(q.group_keys, "\x1f");
    if (auto [it, inserted] = group_of.try_emplace(group_key, group_specs.size());
        inserted) {
      cand.group = group_specs.size();
      group_specs.emplace_back(q.group_keys);
    } else {
      cand.group = it->second;
    }
    for (const std::string& k : q.group_keys) FEAT_RETURN_NOT_OK(need_column(k));

    if (!active.empty()) {
      std::vector<std::string> pred_keys;
      pred_keys.reserve(active.size());
      for (const Predicate& p : active) pred_keys.push_back(p.CacheKey());
      const std::string filter_key = StrJoin(pred_keys, "\x1d");
      if (auto [it, inserted] =
              filter_of.try_emplace(filter_key, filter_specs.size());
          inserted) {
        cand.filter = static_cast<ptrdiff_t>(filter_specs.size());
        filter_specs.push_back(FilterSpec{active});
      } else {
        cand.filter = static_cast<ptrdiff_t>(it->second);
      }
      for (const Predicate& p : active) FEAT_RETURN_NOT_OK(need_column(p.attr));
    }

    if (!q.agg_attr.empty()) {
      if (auto [it, inserted] = view_of.try_emplace(q.agg_attr, view_specs.size());
          inserted) {
        cand.view = static_cast<ptrdiff_t>(view_specs.size());
        view_specs.push_back(ViewSpec{q.agg_attr});
      } else {
        cand.view = static_cast<ptrdiff_t>(it->second);
      }
      FEAT_RETURN_NOT_OK(need_column(q.agg_attr));
    }

    cand.acc = std::make_unique<GroupAccumulator>(q.agg);
    cands.push_back(std::move(cand));
  }

  MorselResult result;
  result.per_group.resize(queries.size());
  result.candidate_group.assign(queries.size(), MorselResult::kNoGroupSpec);
  MorselExecStats& stats = result.stats;

  const MorselSet set = MorselSet::Split(relevant.num_rows(), options.morsel_rows);
  stats.morsels = set.size();

  bool needs_sweep2 = false;
  for (const CandPlan& c : cands) {
    needs_sweep2 = needs_sweep2 || c.acc->NeedsSecondPass();
  }

  // --- Memory accounting: morsel artifacts charge/release per in-flight
  // morsel; accumulator-state growth charges incrementally and stays. The
  // executor mirrors every ExecContext charge into its own peak tracker so
  // stats are meaningful without a context.
  size_t bytes_per_row = 0;
  for (const auto& [name, col] : needed_cols) {
    (void)name;
    bytes_per_row += 1 /*validity byte*/ +
                     (col->type() == DataType::kString ? sizeof(int32_t)
                                                       : sizeof(int64_t));
  }
  bytes_per_row += group_specs.size() * sizeof(uint32_t) +
                   view_specs.size() * sizeof(double);
  auto estimate_bytes = [&](size_t rows) {
    return rows * bytes_per_row + filter_specs.size() * (rows / 8 + 16);
  };
  size_t tracked_now = 0;
  auto charge_tracked = [&](size_t bytes) -> Status {
    FEAT_RETURN_NOT_OK(ExecContext::ChargeFor(ctx, bytes));
    tracked_now += bytes;
    stats.peak_artifact_bytes = std::max(stats.peak_artifact_bytes, tracked_now);
    return Status::OK();
  };
  auto release_tracked = [&](size_t bytes) {
    ExecContext::ReleaseFor(ctx, bytes);
    tracked_now -= std::min(bytes, tracked_now);
  };
  size_t state_charged = 0;
  auto charge_state_growth = [&]() -> Status {
    size_t state_now = 0;
    for (const CandPlan& c : cands) {
      if (!c.failed) state_now += c.acc->StateBytes();
    }
    if (state_now > state_charged) {
      FEAT_RETURN_NOT_OK(charge_tracked(state_now - state_charged));
      state_charged = state_now;
    }
    return Status::OK();
  };

  // --- Build one morsel's artifacts. Builds are strictly sequential (the
  // group-id first-seen order across morsels is the determinism contract),
  // on the caller thread or the one prefetch thread.
  auto build_morsel = [&](int sweep, const Morsel& m) -> Result<MorselData> {
    FEAT_RETURN_NOT_OK(FaultPoint("morsel.build"));
    // A whole-table morsel (every serving compile at morsel size 0) reads
    // the relevant table in place; a row range is gathered into a
    // morsel-local sub-table.
    const bool whole_table = m.rows() == relevant.num_rows();
    Table gathered;
    if (!whole_table) {
      std::vector<uint32_t> idx(m.rows());
      std::iota(idx.begin(), idx.end(), static_cast<uint32_t>(m.begin));
      for (const auto& [name, col] : needed_cols) {
        FEAT_RETURN_NOT_OK(gathered.AddColumn(name, col->Take(idx)));
      }
    }
    const Table& sub = whole_table ? relevant : gathered;
    MorselData md;
    md.rows = m.rows();
    md.row_groups.reserve(group_specs.size());
    md.num_groups_after.reserve(group_specs.size());
    for (GroupSpec& gs : group_specs) {
      FEAT_ASSIGN_OR_RETURN(std::vector<uint32_t> ids,
                            sweep == 1 ? gs.builder.AppendMorsel(sub)
                                       : gs.builder.MapMorsel(sub));
      md.row_groups.push_back(std::move(ids));
      md.num_groups_after.push_back(gs.builder.num_groups());
    }
    md.masks.reserve(filter_specs.size());
    for (const FilterSpec& fs : filter_specs) {
      FEAT_ASSIGN_OR_RETURN(CompiledFilter filter,
                            CompiledFilter::Compile(fs.preds, sub));
      Bitset bits(md.rows);
      ops.build_filter_mask(filter, &bits);
      md.masks.push_back(std::move(bits));
    }
    md.views.reserve(view_specs.size());
    for (const ViewSpec& vs : view_specs) {
      FEAT_ASSIGN_OR_RETURN(const Column* col, sub.GetColumn(vs.attr));
      std::vector<double> view(md.rows);
      for (size_t row = 0; row < md.rows; ++row) view[row] = col->AsDouble(row);
      md.views.push_back(std::move(view));
    }
    return md;
  };

  // --- Fold one morsel into every live accumulator (parallel across
  // candidates: disjoint accumulators, shared immutable MorselData).
  auto combine_morsel = [&](int sweep, const MorselData& md) -> Status {
    auto run_one = [&](size_t i) {
      CandPlan& c = cands[i];
      if (c.failed) return;
      if (sweep == 2 && !c.acc->NeedsSecondPass()) return;
      Status st = FaultPoint("morsel.merge");
      if (!st.ok()) {
        c.error = std::move(st);
        return;
      }
      c.acc->Grow(md.num_groups_after[c.group]);
      const Bitset* mask = c.filter >= 0 ? &md.masks[c.filter] : nullptr;
      const double* view = c.view >= 0 ? md.views[c.view].data() : nullptr;
      ops.absorb(*c.acc, md.row_groups[c.group].data(), md.rows, mask, view);
    };
    if (options.pool != nullptr) {
      FEAT_RETURN_NOT_OK(options.pool->ParallelFor(cands.size(), run_one, 0, ctx));
    } else {
      for (size_t i = 0; i < cands.size(); ++i) run_one(i);
    }
    for (CandPlan& c : cands) {
      if (c.error.ok()) continue;
      Status err = std::move(c.error);
      c.error = Status::OK();
      if (!isolated) return err;
      // A partially-absorbed candidate is unusable; siblings are untouched
      // (disjoint accumulators), so only this slot fails.
      (*slot_errors)[c.slot] = std::move(err);
      c.failed = true;
    }
    return Status::OK();
  };

  // --- The pipeline: for each sweep, run morsels in order; while morsel i
  // combines on the pool, the AsyncStage thread builds morsel i+1
  // (double-buffered: at most two morsels' artifacts in flight, each
  // charged while in flight).
  auto run_sweep = [&](int sweep) -> Status {
    // Declared before the stage so the stage's destructor (which joins a
    // still-active build on an error-path unwind) runs first — the prefetch
    // thread writes `next`.
    MorselData cur;
    MorselData next;
    AsyncStage stage;
    FEAT_RETURN_NOT_OK(charge_tracked(estimate_bytes(set[0].rows())));
    {
      WallTimer timer;
      FEAT_ASSIGN_OR_RETURN(cur, build_morsel(sweep, set[0]));
      stats.build_seconds += timer.Seconds();
    }
    for (size_t i = 0; i < set.size(); ++i) {
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      bool launched = false;
      if (i + 1 < set.size()) {
        FEAT_RETURN_NOT_OK(charge_tracked(estimate_bytes(set[i + 1].rows())));
        const Morsel next_morsel = set[i + 1];
        if (options.prefetch) {
          stage.Launch([&, sweep, next_morsel]() -> Status {
            WallTimer timer;
            FEAT_ASSIGN_OR_RETURN(next, build_morsel(sweep, next_morsel));
            stats.build_seconds += timer.Seconds();  // ordered by Await join
            return Status::OK();
          });
          ++stats.prefetched_builds;
          launched = true;
        } else {
          WallTimer timer;
          FEAT_ASSIGN_OR_RETURN(next, build_morsel(sweep, next_morsel));
          stats.build_seconds += timer.Seconds();
        }
      }
      WallTimer combine_timer;
      Status combine_st = combine_morsel(sweep, cur);
      stats.combine_seconds += combine_timer.Seconds();
      release_tracked(estimate_bytes(set[i].rows()));
      if (launched) {
        Status built = stage.Await();
        if (combine_st.ok()) combine_st = std::move(built);
      }
      FEAT_RETURN_NOT_OK(combine_st);
      FEAT_RETURN_NOT_OK(charge_state_growth());
      cur = std::move(next);
      next = MorselData();
    }
    return Status::OK();
  };

  if (!set.empty() && !cands.empty()) {
    stats.sweeps = 1;
    FEAT_RETURN_NOT_OK(run_sweep(1));
    if (needs_sweep2) {
      stats.sweeps = 2;
      for (CandPlan& c : cands) {
        if (!c.failed && c.acc->NeedsSecondPass()) c.acc->BeginSecondPass();
      }
      FEAT_RETURN_NOT_OK(charge_state_growth());
      FEAT_RETURN_NOT_OK(run_sweep(2));
    }
  }

  // --- Finalize: per-group features (parallel across candidates, like the
  // combine; each accumulator is freed as soon as it is finished), then the
  // key-map-only group indexes.
  auto finish_one = [&](size_t i) {
    CandPlan& c = cands[i];
    if (c.failed) return;
    result.per_group[c.slot] = c.acc->Finish();
    c.acc.reset();
  };
  if (options.pool != nullptr) {
    FEAT_RETURN_NOT_OK(
        options.pool->ParallelFor(cands.size(), finish_one, 0, ctx));
  } else {
    for (size_t i = 0; i < cands.size(); ++i) finish_one(i);
  }
  size_t feature_bytes = 0;
  for (const CandPlan& c : cands) {
    if (c.failed) continue;
    result.candidate_group[c.slot] = c.group;
    feature_bytes += result.per_group[c.slot].size() * sizeof(double);
  }
  FEAT_RETURN_NOT_OK(charge_tracked(feature_bytes));
  release_tracked(state_charged);  // accumulators die with the batch
  result.group_indexes.reserve(group_specs.size());
  for (GroupSpec& gs : group_specs) {
    FEAT_RETURN_NOT_OK(charge_tracked(gs.builder.SizeBytes()));
    result.group_indexes.push_back(
        std::make_shared<const GroupIndex>(std::move(gs.builder).Finish()));
  }
  return result;
}

}  // namespace featlib
