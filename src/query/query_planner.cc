#include "query/query_planner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "query/kernel_dispatch.h"
#include "query/predicate.h"

namespace featlib {

namespace {

constexpr uint32_t kNoGroup = GroupIndex::kNoGroup;

// Runs one artifact build (`body` returns its Status, storing the built
// value on success) behind a named fault-injection site.
template <typename Body>
Status GuardedBuild(const char* site, const Body& body) {
  FEAT_RETURN_NOT_OK(FaultPoint(site));
  return body();
}

// Cache key of a predicate conjunction's combined bitset, from the
// predicates' own cache keys. The "&\x1d" prefix keeps combos disjoint from
// single-predicate keys.
std::string ComboKey(const std::vector<std::string>& pred_keys) {
  std::string out = "&\x1d";
  for (const std::string& key : pred_keys) {
    out += key;
    out += "\x1d";
  }
  return out;
}

// Content fingerprint of the training table's join-key columns. A cached
// training-row map is reused only while this matches the fingerprint it was
// built for: the row count alone cannot tell apart two training tables of
// the same size that one planner sees in turn.
uint64_t TrainingKeyFingerprint(const Table& training,
                                const std::vector<std::string>& keys) {
  uint64_t h = training.num_rows();
  auto mix = [&h](uint64_t word) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
  };
  for (const std::string& key : keys) {
    auto col = training.GetColumn(key);
    if (!col.ok()) continue;  // MapTrainingRows reports the missing key
    const Column& c = *col.value();
    mix(static_cast<uint64_t>(c.type()));
    for (size_t row = 0; row < c.size(); ++row) {
      uint64_t word = ~uint64_t{0};  // null cell
      if (!c.IsNull(row)) {
        if (c.type() == DataType::kDouble) {
          const double v = c.DoubleAt(row);
          std::memcpy(&word, &v, sizeof(word));
        } else if (c.type() == DataType::kString) {
          word = static_cast<uint32_t>(c.CodeAt(row));
        } else {
          word = static_cast<uint64_t>(c.IntAt(row));
        }
      }
      mix(word);
    }
    for (const std::string& s : c.dictionary()) {
      mix(std::hash<std::string>{}(s));
    }
  }
  return h;
}

// ValueOrder key: every order statistic over one (group keys, agg
// attribute) pair reads the same value order, whatever its predicates.
std::string OrderKey(const std::string& group_key,
                     const std::string& agg_attr) {
  return group_key + "\x1e" + agg_attr;
}

// Rows per fan-out item: an order-statistic candidate splits into
// consecutive group ranges of about this many value-order rows (each group
// counts one more), so one slow candidate — an order statistic's walk over
// every row of its pair — spreads across the pool.
constexpr size_t kKernelRangeRows = 8192;

// Rows per ValueOrder sort task: a build's groups split into consecutive
// ranges of about this many rows (each group counts one more).
constexpr size_t kOrderSortRows = 16384;

// Cuts groups [0, n_groups) into consecutive ranges of about `target`
// weight, where group g weighs size(g) + 1; at least one range.
template <typename Size, typename Emit>
void CutGroupRanges(size_t n_groups, size_t target, const Size& size,
                    const Emit& emit) {
  size_t begin = 0;
  size_t weight = 0;
  for (size_t g = 0; g < n_groups; ++g) {
    weight += size(g) + 1;
    if (weight >= target) {
      emit(begin, g + 1);
      begin = g + 1;
      weight = 0;
    }
  }
  if (begin < n_groups || begin == 0) emit(begin, n_groups);
}

// Runs fn(0..n-1) on `pool` in chunks of `chunk` indices (0 = automatic),
// or inline in index order without one; a tripped ctx stops either.
Status RunTasks(size_t n, ThreadPool* pool, size_t chunk,
                const ExecContext* ctx,
                const std::function<void(size_t)>& fn) {
  if (pool != nullptr) return pool->ParallelFor(n, fn, chunk, ctx);
  for (size_t i = 0; i < n; ++i) {
    FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
    fn(i);
  }
  return Status::OK();
}

// Moves per-candidate failures into the planner's failure contract:
// without `slot_errors` the first failure (by index) fails the call;
// with it each failure lands in its candidate's slot.
Status MergeSlotErrors(std::vector<Status>& errors,
                       std::vector<Status>* slot_errors) {
  for (size_t i = 0; i < errors.size(); ++i) {
    if (errors[i].ok()) continue;
    if (slot_errors == nullptr) return std::move(errors[i]);
    (*slot_errors)[i] = std::move(errors[i]);
  }
  return Status::OK();
}

// Runs a value order's stage-C setup on the coordinator thread (its fault
// site and its arrays) and fails it the way a pool task fails: a thrown
// exception, e.g. std::bad_alloc, becomes a kInternal Status — here the
// value order's own.
template <typename Body>
Status CatchBuild(const Body& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("build threw: ") + e.what());
  } catch (...) {
    return Status::Internal("build threw a non-std::exception value");
  }
}

// ---- Compile-time artifact request graph -----------------------------------
//
// One request per *distinct* artifact the batch needs; candidates reference
// requests by index. Each request carries a resolved store pointer (cached
// artifacts) or a build slot the prepare stages fill in parallel and the
// publish steps commit. Request vectors double as the deterministic publish
// order.

struct GroupReq {
  std::string key;
  const std::vector<std::string>* group_keys = nullptr;
  ArtifactStore::GroupArtifact* artifact = nullptr;  // cached or published
  bool need_build = false;
  bool need_train_map = false;  // (re)build the training-row map in stage B
  uint64_t train_fingerprint = 0;  // TrainingKeyFingerprint of this batch
  std::optional<GroupIndex> built;
  Status error;
  std::optional<std::vector<uint32_t>> built_map;
  Status map_error;
};

struct MaskReq {  // one non-trivial WHERE predicate
  std::string key;
  const Predicate* pred = nullptr;
  const Bitset* bits = nullptr;  // cached or published
  std::optional<Bitset> built;
  Status error;
};

struct ComboReq {  // conjunction of >= 2 predicates (depends on MaskReqs)
  std::string key;
  std::vector<size_t> parts;  // MaskReq indices; empty when cached
  const Bitset* bits = nullptr;
  std::optional<Bitset> built;
  Status error;
};

struct ViewReq {  // numeric value view of one agg attribute
  std::string attr;
  const Column* col = nullptr;
  size_t n_rows = 0;
  const std::vector<double>* view = nullptr;
  std::optional<std::vector<double>> built;
  Status error;
};

struct OrderReq {  // value-sorted row permutation (depends on group + view)
  std::string key;
  size_t group = 0;
  size_t view = 0;
  const GroupIndex* index = nullptr;  // build inputs, resolved after stage B
  const double* view_data = nullptr;
  const ValueOrder* order = nullptr;  // cached or published
  std::optional<ValueOrder> built;
  Status error;
};

/// A candidate resolved to artifact-request indices (-1 = not needed).
struct CandidateSpec {
  const AggQuery* query = nullptr;
  size_t group = 0;
  bool has_mask = false;
  int mask_single = -1;
  int mask_combo = -1;
  int view = -1;
  int order = -1;  // OrderReq (order statistics)
};

}  // namespace

Result<const QueryPlanner::CompiledShape*> QueryPlanner::ResolveShape(
    const AggQuery& q, const Table& relevant) {
  std::string content_key = q.CacheKey();
  auto it = compile_cache_.find(content_key);
  if (it != compile_cache_.end()) {
    ++plan_stats_.compile_hits;
    ++compile_cache_hits_;
    return &it->second;
  }
  FEAT_RETURN_NOT_OK(q.Validate(relevant));
  CompiledShape shape;
  shape.group_key = StrJoin(q.group_keys, "\x1f");
  for (size_t j = 0; j < q.predicates.size(); ++j) {
    if (q.predicates[j].IsTrivial()) continue;
    shape.active_preds.push_back(static_cast<uint32_t>(j));
    shape.pred_keys.push_back(q.predicates[j].CacheKey());
  }
  if (shape.active_preds.size() >= 2) {
    shape.combo_key = ComboKey(shape.pred_keys);
  }
  shape.order_key = OrderKey(shape.group_key, q.agg_attr);
  ++plan_stats_.compile_misses;
  ++compile_cache_misses_;
  auto [inserted_it, inserted] =
      compile_cache_.emplace(std::move(content_key), std::move(shape));
  (void)inserted;
  return &inserted_it->second;
}

Result<std::vector<PlannedCandidate>> QueryPlanner::Prepare(
    const std::vector<AggQuery>& queries, const Table* training,
    const Table& relevant, const ExecContext* ctx,
    std::vector<Status>* slot_errors) {
  // No training table means ExecuteAggQuery's grouped result: no
  // training-row maps, and every candidate streams.
  const bool for_grouped_result = training == nullptr;
  // Isolated mode: per-candidate failures land in slot_errors and the call
  // only fails batch-wide (tripped ctx / exhausted budget). Fail-fast mode
  // (slot_errors == nullptr): the first failure fails the call.
  const bool isolated = slot_errors != nullptr;
  FEAT_CHECK(!isolated || slot_errors->size() == queries.size(),
             "slot_errors must be pre-sized to the query batch");
  FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));

  plan_stats_ = PlanStats{};
  plan_stats_.candidates = queries.size();

  // Resolve the kernel backend once per batch; every phase below (mask
  // build, fan-out kernels) dispatches through this table.
  ops_ = &ResolveKernelOps(kernel_backend_);

  // Over-cap memo is flushed between batches only: shape pointers resolved
  // below stay valid for the whole Prepare.
  if (compile_cache_.size() > compile_cache_cap_entries_) {
    compile_cache_.clear();
    ++compile_cache_flushes_;
  }

  // ---- Compile: resolve every candidate's memoized shape — validation and
  // artifact-key derivation run only for content keys never seen by this
  // planner — then one sequential pass dedups artifact requests and
  // resolves what the store already holds (hits are epoch-stamped, pinning
  // them for the whole batch). ----
  std::vector<const CompiledShape*> shapes(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto shape = ResolveShape(queries[i], relevant);
    if (shape.ok()) {
      shapes[i] = shape.value();
    } else if (isolated) {
      // An invalid candidate is its own failure; the rest of the batch
      // plans as if it were never proposed.
      (*slot_errors)[i] = shape.status();
      shapes[i] = nullptr;
    } else {
      return shape.status();
    }
  }

  // Order statistics read the ValueOrder of their (group keys, attribute)
  // pair; every other candidate streams its mask and view through the
  // backend's GroupAccumulator kernel.
  auto reads_order = [&](const AggQuery& q) {
    return !for_grouped_result && IsOrderStatistic(q.agg) &&
           !q.agg_attr.empty();
  };

  std::vector<GroupReq> groups;
  std::vector<MaskReq> masks;
  std::vector<ComboReq> combos;
  std::vector<ViewReq> views;
  std::vector<OrderReq> orders;
  std::unordered_map<std::string, size_t> group_idx, mask_idx, combo_idx,
      view_idx, order_idx;

  auto intern_group = [&](const AggQuery& q, const std::string& key) -> size_t {
    auto [it, inserted] = group_idx.emplace(key, groups.size());
    if (inserted) {
      GroupReq req;
      req.key = key;
      req.group_keys = &q.group_keys;
      req.artifact = store_.FindGroup(key);
      req.need_build = req.artifact == nullptr;
      groups.push_back(std::move(req));
    }
    return it->second;
  };

  auto intern_mask = [&](const Predicate& p, const std::string& key) -> size_t {
    auto [it, inserted] = mask_idx.emplace(key, masks.size());
    if (inserted) {
      MaskReq req;
      req.key = key;
      req.pred = &p;
      req.bits = store_.FindMask(key);
      masks.push_back(std::move(req));
    }
    return it->second;
  };

  auto intern_view = [&](const std::string& attr) -> Result<size_t> {
    auto [it, inserted] = view_idx.emplace(attr, views.size());
    if (inserted) {
      ViewReq req;
      req.attr = attr;
      req.view = store_.FindView(attr);
      if (req.view == nullptr) {
        auto col = relevant.GetColumn(attr);
        if (!col.ok()) {
          // Un-intern so a later candidate naming the same missing column
          // resolves the same error instead of reading a dangling index
          // (matters in isolated mode, where planning continues).
          view_idx.erase(attr);
          return col.status();
        }
        req.col = col.value();
        req.n_rows = relevant.num_rows();
      }
      views.push_back(std::move(req));
    }
    return it->second;
  };

  std::vector<CandidateSpec> specs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (shapes[i] == nullptr) continue;  // isolated compile failure
    const AggQuery& q = queries[i];
    const CompiledShape& shape = *shapes[i];
    CandidateSpec& spec = specs[i];
    spec.query = &q;
    spec.group = intern_group(q, shape.group_key);
    if (training != nullptr) groups[spec.group].need_train_map = true;

    // Selection mask: the predicate's own bitset for a single conjunct, a
    // dedicated conjunction bitset (word-wise AND of the constituents) for
    // longer ones. A cached conjunction needs no constituent requests.
    if (!shape.active_preds.empty()) {
      spec.has_mask = true;
      if (shape.active_preds.size() == 1) {
        spec.mask_single = static_cast<int>(intern_mask(
            q.predicates[shape.active_preds[0]], shape.pred_keys[0]));
      } else {
        auto [it, inserted] = combo_idx.emplace(shape.combo_key, combos.size());
        if (inserted) {
          ComboReq req;
          req.key = shape.combo_key;
          req.bits = store_.FindMask(shape.combo_key);
          if (req.bits == nullptr) {
            for (size_t k = 0; k < shape.active_preds.size(); ++k) {
              req.parts.push_back(intern_mask(
                  q.predicates[shape.active_preds[k]], shape.pred_keys[k]));
            }
          }
          combos.push_back(std::move(req));
        }
        spec.mask_combo = static_cast<int>(it->second);
      }
    }

    // COUNT(*) candidates have no agg attribute: they stream presence
    // counts off the bitset and group ids alone, reading no value view.
    if (q.agg_attr.empty()) continue;

    auto view_slot = intern_view(q.agg_attr);
    if (!view_slot.ok()) {
      if (!isolated) return view_slot.status();
      (*slot_errors)[i] = view_slot.status();
      continue;
    }
    const size_t view = view_slot.value();
    spec.view = static_cast<int>(view);
    if (reads_order(q)) {
      auto [it, inserted] = order_idx.emplace(shape.order_key, orders.size());
      if (inserted) {
        OrderReq req;
        req.key = shape.order_key;
        req.group = spec.group;
        req.view = view;
        req.order = store_.FindOrder(shape.order_key);
        orders.push_back(std::move(req));
      }
      spec.order = static_cast<int>(it->second);
    }
  }

  // ---- Stage membership (computable at compile time: a group built this
  // batch always needs a fresh training-row map; cached ones only when the
  // map is absent or was built for different training keys). ----
  std::vector<size_t> a_groups, a_masks, a_views;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (groups[gi].need_build) a_groups.push_back(gi);
  }
  for (size_t mi = 0; mi < masks.size(); ++mi) {
    if (masks[mi].bits == nullptr) a_masks.push_back(mi);
  }
  for (size_t vi = 0; vi < views.size(); ++vi) {
    if (views[vi].view == nullptr) a_views.push_back(vi);
  }
  std::vector<size_t> b_maps, b_combos;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    GroupReq& req = groups[gi];
    if (!req.need_train_map) continue;
    req.train_fingerprint = TrainingKeyFingerprint(*training, *req.group_keys);
    const bool stale = req.need_build || !req.artifact->has_train_map ||
                       req.artifact->train_fingerprint != req.train_fingerprint;
    if (stale) b_maps.push_back(gi);
  }
  for (size_t ci = 0; ci < combos.size(); ++ci) {
    if (combos[ci].bits == nullptr) b_combos.push_back(ci);
  }
  std::vector<size_t> c_orders;
  for (size_t oi = 0; oi < orders.size(); ++oi) {
    if (orders[oi].order == nullptr) c_orders.push_back(oi);
  }

  plan_stats_.group_requests = groups.size();
  plan_stats_.mask_requests = masks.size();
  plan_stats_.conjunction_requests = combos.size();
  plan_stats_.view_requests = views.size();
  plan_stats_.order_requests = orders.size();
  plan_stats_.train_map_requests = b_maps.size();
  plan_stats_.builds_run = a_groups.size() + a_masks.size() + a_views.size() +
                           b_maps.size() + b_combos.size() + c_orders.size();
  const size_t n_a = a_groups.size() + a_masks.size() + a_views.size();
  const size_t n_b = b_maps.size() + b_combos.size();
  plan_stats_.stages_run =
      (n_a > 0 ? 1 : 0) + (n_b > 0 ? 1 : 0) + (c_orders.empty() ? 0 : 1);

  // ---- Memory budget: charge conservative size estimates for every build
  // this batch schedules, before any build allocates. The batch either fits
  // the budget or fails kResourceExhausted up front — a half-built batch
  // never trips mid-publish. (Stage C's group-sized buffers are charged once
  // stage A has published the group counts they are sized by.) ----
  const size_t n_rows = relevant.num_rows();
  if (ctx != nullptr) {
    size_t planned_bytes = 0;
    planned_bytes += a_groups.size() * n_rows * sizeof(uint32_t);
    planned_bytes += (a_masks.size() + b_combos.size()) * (n_rows / 8 + 16);
    planned_bytes += a_views.size() * n_rows * sizeof(double);
    if (training != nullptr) {
      planned_bytes += b_maps.size() * training->num_rows() * sizeof(uint32_t);
    }
    FEAT_RETURN_NOT_OK(FaultPoint("planner.budget"));
    FEAT_RETURN_NOT_OK(ctx->ChargeMemory(planned_bytes));
  }

  // ---- Prepare: build-then-publish, stage by stage. Builds run on the
  // pool into per-request slots; each publish commits them into the store
  // in request order on this thread (deterministic at every thread count).
  // `stage_error` drives the fail-fast contract: it is written only inside
  // publish steps and read by later stages' tasks — ordered by the
  // ParallelFor barrier between stages. In isolated mode it stays OK and
  // failures travel per-request: a build whose dependency failed inherits
  // that Status, and only fully-built artifacts are ever published.
  Status stage_error;
  auto note_error = [&stage_error](const Status& s) {
    if (stage_error.ok() && !s.ok()) stage_error = s;
  };
  // A dependency hole with an OK Status only arises from abandoned builds,
  // which never reach a dependent stage (the stage pipeline returns first);
  // the fallback message is belt and braces.
  auto inherit = [](const Status& dep, const char* what) -> Status {
    return dep.ok() ? Status::Internal(std::string(what) + " unavailable")
                    : dep;
  };

  auto run_stage_a = [&](size_t t) {
    if (t < a_groups.size()) {
      GroupReq& req = groups[a_groups[t]];
      req.error = GuardedBuild("prepare.group", [&]() -> Status {
        auto built = GroupIndex::Build(relevant, *req.group_keys);
        if (!built.ok()) return built.status();
        req.built.emplace(std::move(built).ValueOrDie());
        return Status::OK();
      });
      return;
    }
    t -= a_groups.size();
    if (t < a_masks.size()) {
      MaskReq& req = masks[a_masks[t]];
      req.error = GuardedBuild("prepare.mask", [&]() -> Status {
        auto filter = CompiledFilter::Compile({*req.pred}, relevant);
        if (!filter.ok()) return filter.status();
        Bitset bits(relevant.num_rows());
        ops_->build_filter_mask(filter.value(), &bits);
        req.built.emplace(std::move(bits));
        return Status::OK();
      });
      return;
    }
    ViewReq& req = views[a_views[t - a_masks.size()]];
    req.error = GuardedBuild("prepare.view", [&]() -> Status {
      // NaN encodes null: stored doubles are never NaN (AppendDouble
      // maps NaN to null) and int/string numeric views cannot produce
      // one.
      std::vector<double> view(req.n_rows);
      for (size_t row = 0; row < req.n_rows; ++row) {
        view[row] = req.col->AsDouble(row);
      }
      req.built.emplace(std::move(view));
      return Status::OK();
    });
  };
  auto publish_stage_a = [&]() {
    for (size_t gi : a_groups) {
      GroupReq& req = groups[gi];
      if (!req.error.ok()) {
        if (!isolated) note_error(req.error);
        continue;
      }
      req.artifact = store_.PublishGroup(req.key, std::move(*req.built));
    }
    for (size_t mi : a_masks) {
      MaskReq& req = masks[mi];
      if (!req.error.ok()) {
        if (!isolated) note_error(req.error);
        continue;
      }
      req.bits = store_.PublishMask(req.key, std::move(*req.built),
                                    /*is_conjunction=*/false);
    }
    for (size_t vi : a_views) {
      ViewReq& req = views[vi];
      if (!req.error.ok()) {
        if (!isolated) note_error(req.error);
        continue;
      }
      req.view = store_.PublishView(req.attr, std::move(*req.built));
    }
  };

  auto run_stage_b = [&](size_t t) {
    if (!stage_error.ok()) return;  // fail-fast: a dependency failed
    if (t < b_maps.size()) {
      GroupReq& req = groups[b_maps[t]];
      if (req.artifact == nullptr) {  // isolated: its group build failed
        req.map_error = inherit(req.error, "group index");
        return;
      }
      req.map_error = GuardedBuild("prepare.train_map", [&]() -> Status {
        auto built = req.artifact->index.MapTrainingRows(*training, relevant);
        if (!built.ok()) return built.status();
        req.built_map.emplace(std::move(built).ValueOrDie());
        return Status::OK();
      });
      return;
    }
    ComboReq& req = combos[b_combos[t - b_maps.size()]];
    for (size_t k : req.parts) {
      if (masks[k].bits == nullptr) {  // isolated: constituent failed
        req.error = inherit(masks[k].error, "conjunction constituent");
        return;
      }
    }
    req.error = GuardedBuild("prepare.conjunction", [&]() -> Status {
      Bitset combined = *masks[req.parts[0]].bits;
      for (size_t k = 1; k < req.parts.size(); ++k) {
        combined.AndWith(*masks[req.parts[k]].bits);
      }
      req.built.emplace(std::move(combined));
      return Status::OK();
    });
  };
  auto publish_stage_b = [&]() {
    if (!stage_error.ok()) return;
    for (size_t gi : b_maps) {
      GroupReq& req = groups[gi];
      if (!req.map_error.ok()) {
        if (!isolated) note_error(req.map_error);
        continue;
      }
      store_.PublishTrainMap(req.artifact, std::move(*req.built_map),
                             req.train_fingerprint);
    }
    for (size_t ci : b_combos) {
      ComboReq& req = combos[ci];
      if (!req.error.ok()) {
        if (!isolated) note_error(req.error);
        continue;
      }
      req.bits = store_.PublishMask(req.key, std::move(*req.built),
                                    /*is_conjunction=*/true);
    }
  };

  // Runs `stages` on the pool, or inline in order without one. A tripped
  // context returns *before* the failed stage's publish: the store keeps
  // only fully-published artifacts of completed stages.
  auto run_stages = [&](const std::vector<ThreadPool::Stage>& stages) {
    if (pool_ != nullptr) return pool_->ParallelForStages(stages, ctx);
    for (const ThreadPool::Stage& stage : stages) {
      for (size_t t = 0; t < stage.n; ++t) {
        FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
        stage.run(t);
      }
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      if (stage.publish) stage.publish();
    }
    return Status::OK();
  };
  FEAT_RETURN_NOT_OK(run_stages({{n_a, run_stage_a, publish_stage_a},
                                 {n_b, run_stage_b, publish_stage_b}}));
  FEAT_RETURN_NOT_OK(stage_error);

  // ---- Stage C budget, now that stage A has published the group counts:
  // every ValueOrder build and the fan-out's per-group buffer of each
  // order-statistic candidate. ----
  if (ctx != nullptr) {
    size_t stage_c_bytes = 0;
    for (size_t oi : c_orders) {
      const GroupReq& group = groups[orders[oi].group];
      if (group.artifact == nullptr) continue;  // isolated build failure
      stage_c_bytes +=
          ValueOrder::PlannedBytes(n_rows, group.artifact->index.num_groups());
    }
    for (const CandidateSpec& spec : specs) {
      if (spec.query == nullptr) continue;  // isolated compile failure
      const GroupReq& group = groups[spec.group];
      if (spec.order >= 0 && group.artifact != nullptr) {
        stage_c_bytes += group.artifact->index.num_groups() * sizeof(double);
      }
    }
    FEAT_RETURN_NOT_OK(ctx->ChargeMemory(stage_c_bytes));
  }

  // ---- Stage C setup, on this thread: resolve each ValueOrder build's
  // inputs, fire its fault site and allocate its arrays. ----
  std::vector<size_t> o_groups;  // OrderReqs to group (one task each)
  for (size_t oi : c_orders) {
    OrderReq& req = orders[oi];
    const GroupReq& group = groups[req.group];
    if (group.artifact == nullptr) {
      req.error = inherit(group.error, "group index");
      continue;
    }
    const ViewReq& view = views[req.view];
    if (view.view == nullptr) {
      req.error = inherit(view.error, "value view");
      continue;
    }
    req.index = &group.artifact->index;
    req.view_data = view.view->data();
    req.error = CatchBuild([&]() -> Status {
      FEAT_RETURN_NOT_OK(FaultPoint("prepare.order"));
      ValueOrder order;
      AllocateValueOrder(n_rows, req.index->num_groups(), &order);
      req.built.emplace(std::move(order));
      return Status::OK();
    });
    if (req.error.ok()) o_groups.push_back(oi);
  }

  // ---- Stage C: group every ValueOrder's rows in one task each, then cut
  // its groups into ranges that sort in parallel; publish in request order.
  // Two calls, since the sort tasks are counted only once the rows are
  // grouped. ----
  struct SortTask {
    size_t order;
    size_t g_begin;
    size_t g_end;
  };
  std::vector<SortTask> o_sorts;
  auto run_group = [&](size_t t) {
    OrderReq& req = orders[o_groups[t]];
    GroupValueOrder(req.index->row_groups().data(), n_rows, &*req.built);
  };
  auto cut_sorts = [&]() {
    for (size_t oi : o_groups) {
      const std::vector<uint32_t>& offsets = orders[oi].built->offsets;
      CutGroupRanges(
          offsets.size() - 1, kOrderSortRows,
          [&](size_t g) { return offsets[g + 1] - offsets[g]; },
          [&](size_t b, size_t e) { o_sorts.push_back({oi, b, e}); });
    }
  };
  auto run_sort = [&](size_t t) {
    const SortTask& task = o_sorts[t];
    OrderReq& req = orders[task.order];
    SortValueOrder(req.view_data, task.g_begin, task.g_end, &*req.built);
  };
  auto publish_stage_c = [&]() {
    for (size_t oi : c_orders) {
      OrderReq& req = orders[oi];
      if (!req.error.ok()) {
        if (!isolated) note_error(req.error);
        continue;
      }
      req.order = store_.PublishOrder(req.key, std::move(*req.built));
    }
  };
  FEAT_RETURN_NOT_OK(run_stages({{o_groups.size(), run_group, cut_sorts}}));
  FEAT_RETURN_NOT_OK(
      run_stages({{o_sorts.size(), run_sort, publish_stage_c}}));
  FEAT_RETURN_NOT_OK(stage_error);

  // ---- True-up: replace the conservative up-front estimates of the
  // hash-map-backed group indexes and the packed bitsets with the published
  // artifacts' actual SizeBytes() — charge the shortfall (group key maps are
  // invisible to the row-count estimate), release the surplus (packed masks
  // are 8x smaller than the byte-per-row guess). Views, training-row maps
  // and value orders are flat arrays already estimated exactly. ----
  if (ctx != nullptr) {
    size_t estimated = 0;
    size_t actual = 0;
    for (size_t gi : a_groups) {
      if (groups[gi].artifact == nullptr) continue;  // isolated build failure
      estimated += n_rows * sizeof(uint32_t);
      actual += groups[gi].artifact->index.SizeBytes();
    }
    for (size_t mi : a_masks) {
      if (masks[mi].bits == nullptr) continue;
      estimated += n_rows / 8 + 16;
      actual += masks[mi].bits->SizeBytes();
    }
    for (size_t ci : b_combos) {
      if (combos[ci].bits == nullptr) continue;
      estimated += n_rows / 8 + 16;
      actual += combos[ci].bits->SizeBytes();
    }
    if (actual > estimated) {
      FEAT_RETURN_NOT_OK(ctx->ChargeMemory(actual - estimated));
    } else {
      ctx->ReleaseMemory(estimated - actual);
    }
  }

  // ---- Resolve: every surviving candidate's kernel inputs are now
  // store-owned pointers, pinned for this epoch. In isolated mode a
  // candidate whose dependency chain has a failure takes that Status into
  // its slot instead (its PlannedCandidate stays empty and is skipped by
  // the fan-out). ----
  auto dependency_status = [&](const CandidateSpec& spec) -> Status {
    const GroupReq& g = groups[spec.group];
    if (g.artifact == nullptr) return inherit(g.error, "group index");
    if (training != nullptr && !g.map_error.ok()) return g.map_error;
    if (spec.order >= 0) {
      const OrderReq& o = orders[static_cast<size_t>(spec.order)];
      if (o.order == nullptr) return inherit(o.error, "value order");
    }
    if (spec.mask_single >= 0) {
      const MaskReq& m = masks[static_cast<size_t>(spec.mask_single)];
      if (m.bits == nullptr) return inherit(m.error, "mask");
    }
    if (spec.mask_combo >= 0) {
      const ComboReq& c = combos[static_cast<size_t>(spec.mask_combo)];
      if (c.bits == nullptr) return inherit(c.error, "conjunction");
    }
    if (spec.view >= 0) {
      const ViewReq& v = views[static_cast<size_t>(spec.view)];
      if (v.view == nullptr) return inherit(v.error, "value view");
    }
    return Status::OK();
  };

  std::vector<PlannedCandidate> planned(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (isolated && !(*slot_errors)[i].ok()) continue;
    const CandidateSpec& spec = specs[i];
    if (isolated) {
      Status dep = dependency_status(spec);
      if (!dep.ok()) {
        (*slot_errors)[i] = std::move(dep);
        continue;
      }
    }
    PlannedCandidate& p = planned[i];
    p.query = spec.query;
    ArtifactStore::GroupArtifact* g = groups[spec.group].artifact;
    p.index = &g->index;
    if (training != nullptr) p.train_map = &g->train_map;
    if (spec.has_mask) {
      p.mask = spec.mask_single >= 0
                   ? masks[static_cast<size_t>(spec.mask_single)].bits
                   : combos[static_cast<size_t>(spec.mask_combo)].bits;
    }
    if (spec.view >= 0) {
      p.view = views[static_cast<size_t>(spec.view)].view->data();
    }
    if (spec.order >= 0) p.order = orders[static_cast<size_t>(spec.order)].order;
  }
  return planned;
}

size_t QueryPlanner::ResolvedMorselRows() const {
  return morsel_rows_ != 0 ? morsel_rows_
                           : FeatAugConfig::Global().ResolvedMorselRows();
}

Result<std::vector<std::vector<double>>> QueryPlanner::Evaluate(
    const std::vector<AggQuery>& queries, const Table& training,
    const Table& relevant, const ExecContext* ctx,
    std::vector<Status>* slot_errors) {
  WallTimer timer;
  std::vector<std::vector<double>> out;
  if (ResolvedMorselRows() != 0) {
    FEAT_ASSIGN_OR_RETURN(ServingPlan plan, CompileServingPlan(queries, relevant,
                                                               ctx, slot_errors));
    prepare_seconds_ = timer.Seconds();
    timer.Restart();
    FEAT_ASSIGN_OR_RETURN(
        out, ExecuteServingPlan(plan, training, pool_, ctx, slot_errors));
  } else {
    morsel_stats_ = MorselExecStats{};
    store_.BeginEpoch();
    FEAT_RETURN_NOT_OK(ExecContext::ChargeFor(
        ctx, queries.size() * training.num_rows() * sizeof(double)));
    FEAT_ASSIGN_OR_RETURN(
        std::vector<PlannedCandidate> planned,
        Prepare(queries, &training, relevant, ctx, slot_errors));
    prepare_seconds_ = timer.Seconds();

    // ---- Fan-out phase: the per-group kernels as items on the pool. A
    // streaming candidate is one item; an order-statistic one is a run of
    // consecutive group ranges writing disjoint parts of a per-group buffer
    // sized here. The item that finishes a candidate's last range runs its
    // `exec.kernel` site and scatter through the training-row map — in
    // candidate order on a 1-thread pool — and frees the candidate's
    // per-group buffer, so streaming buffers do not pile up across a large
    // batch. Every group's value is the same function over the same rows
    // whichever thread runs it, so results are byte-identical at every
    // thread count. ----
    timer.Restart();
    struct KernelItem {
      size_t candidate;
      size_t g_begin;
      size_t g_end;
    };
    std::vector<KernelItem> items;
    std::vector<std::vector<double>> per_group(queries.size());
    std::vector<std::atomic<size_t>> items_left(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const PlannedCandidate& p = planned[i];
      if (p.query == nullptr) continue;  // isolated failure
      const size_t first = items.size();
      if (p.order != nullptr) {
        const std::vector<uint32_t>& offsets = p.order->offsets;
        per_group[i].resize(offsets.size() - 1);
        CutGroupRanges(
            offsets.size() - 1, kKernelRangeRows,
            [&](size_t g) { return offsets[g + 1] - offsets[g]; },
            [&](size_t b, size_t e) { items.push_back({i, b, e}); });
      } else {
        items.push_back({i, 0, 0});
      }
      items_left[i].store(items.size() - first, std::memory_order_relaxed);
    }
    plan_stats_.kernel_tasks = items.size();
    out.resize(queries.size());
    std::vector<Status> errors(queries.size());
    FEAT_RETURN_NOT_OK(RunTasks(items.size(), pool_, 1, ctx, [&](size_t t) {
      const KernelItem& item = items[t];
      const size_t i = item.candidate;
      const PlannedCandidate& p = planned[i];
      if (p.order != nullptr) {
        AggregateFromValueOrder(p.query->agg, *p.order, p.mask, p.view,
                                item.g_begin, item.g_end, per_group[i].data());
      } else {
        per_group[i] = ops_->aggregate_streaming(p.query->agg, *p.index,
                                                 p.mask, p.view, nullptr);
      }
      // acq_rel: the last range sees every sibling range's writes.
      if (items_left[i].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      errors[i] = FaultPoint("exec.kernel");
      if (errors[i].ok()) out[i] = ScatterPerGroup(per_group[i], *p.train_map);
      std::vector<double>().swap(per_group[i]);
    }));
    FEAT_RETURN_NOT_OK(MergeSlotErrors(errors, slot_errors));
  }
  aggregate_seconds_ = timer.Seconds();
  return out;
}

Result<std::vector<double>> QueryPlanner::ComputeFeatureColumn(
    const AggQuery& q, const Table& training, const Table& relevant,
    const ExecContext* ctx) {
  FEAT_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> out,
      Evaluate({q}, training, relevant, ctx, /*slot_errors=*/nullptr));
  return std::move(out[0]);
}

Result<std::vector<std::vector<double>>> QueryPlanner::EvaluateMany(
    const std::vector<AggQuery>& queries, const Table& training,
    const Table& relevant, const ExecContext* ctx) {
  return Evaluate(queries, training, relevant, ctx, /*slot_errors=*/nullptr);
}

Result<std::vector<QueryPlanner::CandidateResult>>
QueryPlanner::EvaluateManyIsolated(const std::vector<AggQuery>& queries,
                                   const Table& training,
                                   const Table& relevant,
                                   const ExecContext* ctx) {
  std::vector<Status> slot_errors(queries.size());
  FEAT_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> values,
      Evaluate(queries, training, relevant, ctx, &slot_errors));
  std::vector<CandidateResult> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i].status = std::move(slot_errors[i]);
    if (out[i].status.ok()) out[i].values = std::move(values[i]);
  }
  return out;
}

Result<ServingPlan> QueryPlanner::CompileServingPlan(
    const std::vector<AggQuery>& queries, const Table& relevant,
    const ExecContext* ctx, std::vector<Status>* slot_errors) {
  // The per-group values are frozen here: the relevant table streams once
  // under the memory bound (one whole-table morsel at size 0), and the plan
  // keeps only the per-group features plus the key-map-only indexes — never
  // published into the store, whose consumers expect per-row ids.
  ops_ = &ResolveKernelOps(kernel_backend_);
  MorselOptions options;
  options.morsel_rows = ResolvedMorselRows();
  options.pool = pool_;
  options.ops = ops_;
  options.ctx = ctx;
  FEAT_ASSIGN_OR_RETURN(
      MorselResult streamed,
      ExecuteMorsels(queries, relevant, options, slot_errors));
  morsel_stats_ = streamed.stats;
  plan_stats_ = PlanStats{};
  plan_stats_.candidates = queries.size();
  plan_stats_.morsels = streamed.stats.morsels;
  ServingPlan plan;
  plan.per_group_features = std::move(streamed.per_group);
  plan.group_indexes = std::move(streamed.group_indexes);
  plan.candidate_group = std::move(streamed.candidate_group);
  plan.relevant = &relevant;
  return plan;
}

Result<std::vector<std::vector<double>>> ExecuteServingPlan(
    const ServingPlan& plan, const Table& batch, ThreadPool* pool,
    const ExecContext* ctx, std::vector<Status>* slot_errors) {
  if (plan.relevant == nullptr) {
    return Status::InvalidArgument("serving plan was never compiled");
  }
  const size_t n = plan.per_group_features.size();
  FEAT_CHECK(slot_errors == nullptr || slot_errors->size() == n,
             "slot_errors must be pre-sized to the plan's candidates");
  FEAT_RETURN_NOT_OK(
      ExecContext::ChargeFor(ctx, n * batch.num_rows() * sizeof(double)));

  // The only batch-dependent artifacts: one training-row map per group
  // index, into call-local storage. A failed map fails every candidate on
  // that index (isolated) or the call (fail-fast).
  std::vector<std::vector<uint32_t>> train_maps(plan.group_indexes.size());
  std::vector<Status> map_errors(plan.group_indexes.size());
  for (size_t gi = 0; gi < plan.group_indexes.size(); ++gi) {
    FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
    Status st = FaultPoint("prepare.train_map");
    if (st.ok()) {
      auto mapped =
          plan.group_indexes[gi]->MapTrainingRows(batch, *plan.relevant);
      if (mapped.ok()) {
        train_maps[gi] = std::move(mapped).value();
      } else {
        st = mapped.status();
      }
    }
    if (!st.ok()) {
      if (slot_errors == nullptr) return st;
      map_errors[gi] = std::move(st);
    }
  }

  // Scatter fan-out: disjoint output slots, deterministic at every thread
  // count (the per-group values are frozen and shared read-only). A slot
  // that already failed, or a failed isolated compile (no group space),
  // keeps its error.
  std::vector<std::vector<double>> out(n);
  std::vector<Status> errors(n);
  FEAT_RETURN_NOT_OK(RunTasks(n, pool, 0, ctx, [&](size_t i) {
    if (slot_errors != nullptr && !(*slot_errors)[i].ok()) return;
    const size_t gi = plan.candidate_group[i];
    if (gi == MorselResult::kNoGroupSpec) return;
    errors[i] = map_errors[gi];
    if (errors[i].ok()) errors[i] = FaultPoint("exec.kernel");
    if (errors[i].ok()) {
      out[i] = ScatterPerGroup(plan.per_group_features[i], train_maps[gi]);
    }
  }));
  FEAT_RETURN_NOT_OK(MergeSlotErrors(errors, slot_errors));
  return out;
}

Result<Table> QueryPlanner::ExecuteAggQuery(const AggQuery& q,
                                            const Table& relevant,
                                            const ExecContext* ctx) {
  store_.BeginEpoch();
  const std::vector<AggQuery> one(1, q);
  FEAT_ASSIGN_OR_RETURN(std::vector<PlannedCandidate> planned,
                        Prepare(one, /*training=*/nullptr, relevant, ctx));
  const PlannedCandidate& p = planned[0];
  std::vector<uint32_t> first_selected;
  std::vector<double> per_group = ops_->aggregate_streaming(
      q.agg, *p.index, p.mask, p.view, &first_selected);

  // Groups are emitted in first-seen order among *filtered* rows with the
  // first matching row as representative; sorting surviving groups by their
  // first selected row reproduces both exactly.
  std::vector<uint32_t> survivors;
  survivors.reserve(first_selected.size());
  for (uint32_t g = 0; g < first_selected.size(); ++g) {
    if (first_selected[g] != kNoGroup) survivors.push_back(g);
  }
  std::sort(survivors.begin(), survivors.end(),
            [&](uint32_t a, uint32_t b) {
              return first_selected[a] < first_selected[b];
            });

  std::vector<uint32_t> representatives;
  representatives.reserve(survivors.size());
  Column feature(DataType::kDouble);
  feature.Reserve(survivors.size());
  for (uint32_t g : survivors) {
    representatives.push_back(first_selected[g]);
    if (std::isnan(per_group[g])) {
      feature.AppendNull();
    } else {
      feature.AppendDouble(per_group[g]);
    }
  }

  Table out;
  for (const auto& k : q.group_keys) {
    FEAT_ASSIGN_OR_RETURN(const Column* col, relevant.GetColumn(k));
    FEAT_RETURN_NOT_OK(out.AddColumn(k, col->Take(representatives)));
  }
  FEAT_RETURN_NOT_OK(out.AddColumn("feature", std::move(feature)));
  return out;
}

}  // namespace featlib
