#include "query/query_planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>
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

// Transient failure classes worth re-attempting under the RetryPolicy.
// kInvalidArgument/kNotFound describe the query shape and can never heal.
bool IsRetryable(const Status& s) {
  return s.code() == StatusCode::kInternal || s.code() == StatusCode::kIOError;
}

// Per-request jitter token: a cheap FNV-1a over the artifact's cache key
// mixed with the site name, so two requests retrying in lockstep draw
// different (but each deterministic) delays.
uint64_t RetryToken(const char* site, const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (const char* p = site; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ull;
  }
  for (char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

// Runs one artifact build (`body` returns its Status, storing the built
// value on success) behind a named fault-injection site, re-attempting
// transient failures per `retry`. `*retries` counts the re-attempts taken;
// it lives in the request struct (workers touch disjoint requests), and the
// coordinator sums them into PlanStats after the stages join. `token`
// decorrelates the jittered sleeps of concurrent failers.
template <typename Body>
Status BuildWithRetry(const char* site, const QueryPlanner::RetryPolicy& retry,
                      uint64_t token, int* retries, const Body& body) {
  Status last;
  for (int attempt = 0;; ++attempt) {
    Status s = FaultPoint(site);
    if (s.ok()) s = body();
    if (s.ok()) return s;
    last = std::move(s);
    if (!IsRetryable(last) || attempt + 1 >= retry.max_attempts) return last;
    ++*retries;
    const int delay = QueryPlanner::RetryDelayMs(retry, attempt, token);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

// Aggregates whose one-pass streaming kernel accumulates directly into
// per-group arrays; the rest materialize per-group value vectors.
bool IsStreamingAgg(AggFunction fn) {
  switch (fn) {
    case AggFunction::kCount:
    case AggFunction::kSum:
    case AggFunction::kMin:
    case AggFunction::kMax:
    case AggFunction::kAvg:
    case AggFunction::kVar:
    case AggFunction::kVarSample:
    case AggFunction::kStd:
    case AggFunction::kStdSample:
      return true;
    default:
      return false;
  }
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

// Bucket key (candidates differing only in agg function share all grouped
// values), from precomputed parts.
std::string BucketKey(const std::string& group_key, const std::string& agg_attr,
                      const std::vector<std::string>& pred_keys) {
  std::string out = group_key;
  out += "\x1e";
  out += agg_attr;
  for (const std::string& key : pred_keys) {
    out += "\x1e";
    out += key;
  }
  return out;
}

// Per-group aggregate values of one prepared candidate through `ops`: from
// its bucket materialization when it has one, streaming otherwise.
std::vector<double> AggregatePlanned(const KernelOps& ops,
                                     const PlannedCandidate& p) {
  return p.mat != nullptr
             ? ops.aggregate_from_materialized(p.query->agg, *p.mat)
             : ops.aggregate_streaming(p.query->agg, *p.index, p.mask, p.view,
                                       nullptr);
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
  int retries = 0;
};

struct MaskReq {  // one non-trivial WHERE predicate
  std::string key;
  const Predicate* pred = nullptr;
  const Bitset* bits = nullptr;  // cached or published
  std::optional<Bitset> built;
  Status error;
  int retries = 0;
};

struct ComboReq {  // conjunction of >= 2 predicates (depends on MaskReqs)
  std::string key;
  std::vector<size_t> parts;  // MaskReq indices; empty when cached
  const Bitset* bits = nullptr;
  std::optional<Bitset> built;
  /// Set-bit count of the conjunction, a free by-product of the fused
  /// AndWithCount build pass. Valid only for conjunctions built this batch
  /// (cached ones skipped the AND); stage C's empty-selection short-circuit
  /// reads it without rescanning the words.
  size_t count = 0;
  bool count_valid = false;
  Status error;
  int retries = 0;
};

struct ViewReq {  // numeric value view of one agg attribute
  std::string attr;
  const Column* col = nullptr;
  size_t n_rows = 0;
  const std::vector<double>* view = nullptr;
  std::optional<std::vector<double>> built;
  Status error;
  int retries = 0;
};

struct MatReq {  // bucket materialization (depends on group + mask + view)
  std::string key;
  size_t group = 0;
  int mask_single = -1;
  int mask_combo = -1;
  size_t view = 0;
  const MaterializedValues* values = nullptr;
  std::optional<MaterializedValues> built;
  bool empty_selection = false;  // mask proved empty; build short-circuited
  Status error;
  int retries = 0;
};

/// A candidate resolved to artifact-request indices (-1 = not needed).
struct CandidateSpec {
  const AggQuery* query = nullptr;
  size_t group = 0;
  bool has_mask = false;
  int mask_single = -1;
  int mask_combo = -1;
  int view = -1;
  int mat = -1;                               // MatReq to build/join
  const MaterializedValues* mat_hit = nullptr;  // store hit, no request
};

}  // namespace

int QueryPlanner::RetryDelayMs(const RetryPolicy& policy, int attempt,
                               uint64_t token) {
  if (policy.backoff_ms <= 0) return 0;
  const int64_t cap =
      std::max<int64_t>(policy.backoff_ms, policy.max_backoff_ms);
  // Saturating doubling: shift until the cap would be crossed.
  int64_t base = policy.backoff_ms;
  for (int i = 0; i < attempt && base < cap; ++i) base <<= 1;
  base = std::min(base, cap);
  // splitmix64 finalizer over (seed, token, attempt): uniform enough to
  // spread sleepers, and a pure function of its inputs so every retry
  // schedule is reproducible run-to-run.
  uint64_t x = policy.jitter_seed ^ (token * 0x9e3779b97f4a7c15ull) ^
               static_cast<uint64_t>(attempt);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  // Equal jitter: [base/2, base] keeps a meaningful minimum wait while
  // halving the collision window.
  const int64_t half = base / 2;
  const int64_t span = base - half + 1;
  return static_cast<int>(half + static_cast<int64_t>(x % span));
}

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
  shape.bucket_key = BucketKey(shape.group_key, q.agg_attr, shape.pred_keys);
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
  // build, materialization, fan-out kernels) dispatches through this table.
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

  // Buckets shared by several candidates pay one materialization and serve
  // every member from flat slices; singleton buckets keep the cheaper
  // streaming kernel for streaming-family aggregates.
  std::unordered_map<std::string, int> bucket_counts;
  if (!for_grouped_result) {
    for (const CompiledShape* shape : shapes) {
      if (shape != nullptr) ++bucket_counts[shape->bucket_key];
    }
  }

  std::vector<GroupReq> groups;
  std::vector<MaskReq> masks;
  std::vector<ComboReq> combos;
  std::vector<ViewReq> views;
  std::vector<MatReq> mats;
  std::unordered_map<std::string, size_t> group_idx, mask_idx, combo_idx,
      view_idx, mat_idx;

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

    // A bucket hit (or a bucket another candidate already requested)
    // carries the selection baked in: the kernel needs neither mask nor
    // view. ExecuteAggQuery never takes this path — it streams so it can
    // recover first-selected-row group order.
    if (!for_grouped_result && !q.agg_attr.empty()) {
      auto pending = mat_idx.find(shape.bucket_key);
      if (pending != mat_idx.end()) {
        spec.mat = static_cast<int>(pending->second);
        continue;
      }
      spec.mat_hit = store_.FindMaterialized(shape.bucket_key);
      if (spec.mat_hit != nullptr) continue;
    }

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
    const bool shared_bucket =
        !for_grouped_result && bucket_counts[shape.bucket_key] > 1;
    if (for_grouped_result || (IsStreamingAgg(q.agg) && !shared_bucket)) {
      continue;
    }
    auto [it, inserted] = mat_idx.emplace(shape.bucket_key, mats.size());
    if (inserted) {
      MatReq req;
      req.key = shape.bucket_key;
      req.group = spec.group;
      req.mask_single = spec.mask_single;
      req.mask_combo = spec.mask_combo;
      req.view = view;
      mats.push_back(std::move(req));
    }
    spec.mat = static_cast<int>(it->second);
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
  std::vector<size_t> c_mats(mats.size());
  for (size_t i = 0; i < mats.size(); ++i) c_mats[i] = i;

  plan_stats_.group_requests = groups.size();
  plan_stats_.mask_requests = masks.size();
  plan_stats_.conjunction_requests = combos.size();
  plan_stats_.view_requests = views.size();
  plan_stats_.mat_requests = mats.size();
  plan_stats_.train_map_requests = b_maps.size();
  plan_stats_.builds_run = a_groups.size() + a_masks.size() + a_views.size() +
                           b_maps.size() + b_combos.size() + c_mats.size();
  const size_t n_a = a_groups.size() + a_masks.size() + a_views.size();
  const size_t n_b = b_maps.size() + b_combos.size();
  const size_t n_c = c_mats.size();
  plan_stats_.stages_run =
      (n_a > 0 ? 1 : 0) + (n_b > 0 ? 1 : 0) + (n_c > 0 ? 1 : 0);

  // ---- Memory budget: charge conservative size estimates for every build
  // this batch schedules, before any build allocates. The batch either fits
  // the budget or fails kResourceExhausted up front — a half-built batch
  // never trips mid-publish. ----
  if (ctx != nullptr) {
    const size_t n_rows = relevant.num_rows();
    size_t planned_bytes = 0;
    planned_bytes += a_groups.size() * n_rows * sizeof(uint32_t);
    planned_bytes += (a_masks.size() + b_combos.size()) * (n_rows / 8 + 16);
    planned_bytes += a_views.size() * n_rows * sizeof(double);
    if (training != nullptr) {
      planned_bytes += b_maps.size() * training->num_rows() * sizeof(uint32_t);
    }
    planned_bytes +=
        c_mats.size() * n_rows * (sizeof(double) + sizeof(uint32_t));
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
      req.error = BuildWithRetry(
          "prepare.group", retry_, RetryToken("prepare.group", req.key),
          &req.retries, [&]() -> Status {
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
      req.error = BuildWithRetry(
          "prepare.mask", retry_, RetryToken("prepare.mask", req.key),
          &req.retries, [&]() -> Status {
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
    req.error = BuildWithRetry(
        "prepare.view", retry_, RetryToken("prepare.view", req.attr),
        &req.retries, [&]() -> Status {
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
      req.map_error = BuildWithRetry(
          "prepare.train_map", retry_,
          RetryToken("prepare.train_map", req.key), &req.retries, [&]() -> Status {
            auto built =
                req.artifact->index.MapTrainingRows(*training, relevant);
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
    req.error = BuildWithRetry(
        "prepare.conjunction", retry_,
        RetryToken("prepare.conjunction", req.key), &req.retries, [&]() -> Status {
          // Fused AND + popcount: the last constituent's pass also yields
          // the conjunction's selectivity, which stage C uses to skip
          // materializing provably-empty buckets.
          Bitset combined = *masks[req.parts[0]].bits;
          size_t count = 0;
          for (size_t k = 1; k < req.parts.size(); ++k) {
            count = combined.AndWithCount(*masks[req.parts[k]].bits);
          }
          req.count = count;
          req.count_valid = true;
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

  auto run_stage_c = [&](size_t t) {
    if (!stage_error.ok()) return;
    MatReq& req = mats[c_mats[t]];
    const GroupReq& group = groups[req.group];
    if (group.artifact == nullptr) {
      req.error = inherit(group.error, "group index");
      return;
    }
    const MaskReq* single =
        req.mask_single >= 0 ? &masks[static_cast<size_t>(req.mask_single)]
                             : nullptr;
    const ComboReq* combo =
        req.mask_combo >= 0 ? &combos[static_cast<size_t>(req.mask_combo)]
                            : nullptr;
    if (single != nullptr && single->bits == nullptr) {
      req.error = inherit(single->error, "mask");
      return;
    }
    if (combo != nullptr && combo->bits == nullptr) {
      req.error = inherit(combo->error, "conjunction");
      return;
    }
    const ViewReq& view = views[req.view];
    if (view.view == nullptr) {
      req.error = inherit(view.error, "value view");
      return;
    }
    const Bitset* mask = single != nullptr ? single->bits
                         : combo != nullptr ? combo->bits
                                            : nullptr;
    // Empty-selection early-out: a conjunction built this batch proved its
    // selectivity for free (fused AndWithCount); other masks pay one
    // popcount scan — far cheaper than streaming every row through the
    // builder. An empty bucket is constructed directly; the result is
    // byte-identical to what the builder returns for an all-zero mask.
    if (mask != nullptr) {
      req.empty_selection = combo != nullptr && combo->count_valid
                                ? combo->count == 0
                                : mask->Count() == 0;
    }
    req.error = BuildWithRetry(
        "prepare.mat", retry_, RetryToken("prepare.mat", req.key),
        &req.retries, [&]() -> Status {
          if (req.empty_selection) {
            const size_t n_groups = group.artifact->index.num_groups();
            MaterializedValues empty;
            empty.present.assign(n_groups, 0);
            empty.offsets.assign(n_groups + 1, 0);
            req.built.emplace(std::move(empty));
            return Status::OK();
          }
          req.built.emplace(ops_->build_materialized(
              group.artifact->index, mask, view.view->data()));
          return Status::OK();
        });
  };
  auto publish_stage_c = [&]() {
    if (!stage_error.ok()) return;
    for (size_t mi : c_mats) {
      MatReq& req = mats[mi];
      if (!req.error.ok()) {
        if (!isolated) note_error(req.error);
        continue;
      }
      req.values = store_.PublishMaterialized(req.key, std::move(*req.built));
    }
  };

  const std::vector<ThreadPool::Stage> stages = {
      {n_a, run_stage_a, publish_stage_a},
      {n_b, run_stage_b, publish_stage_b},
      {n_c, run_stage_c, publish_stage_c},
  };
  if (pool_ != nullptr) {
    // A tripped context returns here *before* the failed stage's publish:
    // the store keeps only fully-published artifacts of completed stages.
    FEAT_RETURN_NOT_OK(pool_->ParallelForStages(stages, ctx));
  } else {
    for (const ThreadPool::Stage& stage : stages) {
      for (size_t t = 0; t < stage.n; ++t) {
        FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
        stage.run(t);
      }
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      if (stage.publish) stage.publish();
    }
  }
  // Retries are summed before the fail-fast return: even a batch that gave
  // up reports the re-attempts it burned (tests and benches read this).
  for (const GroupReq& r : groups) {
    plan_stats_.build_retries += static_cast<size_t>(r.retries);
  }
  for (const MaskReq& r : masks) {
    plan_stats_.build_retries += static_cast<size_t>(r.retries);
  }
  for (const ComboReq& r : combos) {
    plan_stats_.build_retries += static_cast<size_t>(r.retries);
  }
  for (const ViewReq& r : views) {
    plan_stats_.build_retries += static_cast<size_t>(r.retries);
  }
  for (const MatReq& r : mats) {
    plan_stats_.build_retries += static_cast<size_t>(r.retries);
    if (r.empty_selection) ++plan_stats_.empty_selections;
  }
  build_retries_total_ += plan_stats_.build_retries;
  FEAT_RETURN_NOT_OK(stage_error);

  // ---- True-up: replace the conservative up-front estimates of the
  // hash-map-backed group indexes and the packed bitsets with the published
  // artifacts' actual SizeBytes() — charge the shortfall (group key maps are
  // invisible to the row-count estimate), release the surplus (packed masks
  // are 8x smaller than the byte-per-row guess). Views, training-row maps
  // and materializations are flat arrays already estimated exactly. ----
  if (ctx != nullptr) {
    const size_t n_rows = relevant.num_rows();
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
    if (spec.mat >= 0) {
      const MatReq& m = mats[static_cast<size_t>(spec.mat)];
      if (m.values == nullptr) return inherit(m.error, "materialization");
      return Status::OK();
    }
    if (spec.mat_hit != nullptr) return Status::OK();
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
    if (spec.mat >= 0) {
      p.mat = mats[static_cast<size_t>(spec.mat)].values;
      continue;
    }
    if (spec.mat_hit != nullptr) {
      p.mat = spec.mat_hit;
      continue;
    }
    if (spec.has_mask) {
      p.mask = spec.mask_single >= 0
                   ? masks[static_cast<size_t>(spec.mask_single)].bits
                   : combos[static_cast<size_t>(spec.mask_combo)].bits;
    }
    if (spec.view >= 0) {
      p.view = views[static_cast<size_t>(spec.view)].view->data();
    }
  }
  return planned;
}

Result<std::vector<double>> QueryPlanner::ComputeFeatureColumn(
    const AggQuery& q, const Table& training, const Table& relevant,
    const ExecContext* ctx) {
  const std::vector<AggQuery> one(1, q);
  if (ResolvedMorselRows() != 0) {
    FEAT_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> out,
        EvaluateManyMorsel(one, training, relevant, ctx, nullptr));
    return std::move(out[0]);
  }
  store_.BeginEpoch();
  FEAT_ASSIGN_OR_RETURN(std::vector<PlannedCandidate> planned,
                        Prepare(one, &training, relevant, ctx));
  FEAT_RETURN_NOT_OK(FaultPoint("exec.kernel"));
  return ScatterPerGroup(AggregatePlanned(*ops_, planned[0]),
                         *planned[0].train_map);
}

size_t QueryPlanner::ResolvedMorselRows() const {
  return morsel_rows_ != 0 ? morsel_rows_
                           : FeatAugConfig::Global().ResolvedMorselRows();
}

Result<std::vector<std::vector<double>>> QueryPlanner::EvaluateManyMorsel(
    const std::vector<AggQuery>& queries, const Table& training,
    const Table& relevant, const ExecContext* ctx,
    std::vector<Status>* slot_errors) {
  WallTimer timer;
  FEAT_ASSIGN_OR_RETURN(ServingPlan plan, CompileServingPlan(queries, relevant,
                                                             ctx, slot_errors));
  prepare_seconds_ = timer.Seconds();
  timer.Restart();
  FEAT_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> out,
      ExecuteServingPlan(plan, training, pool_, ctx, slot_errors));
  aggregate_seconds_ = timer.Seconds();
  return out;
}

Result<std::vector<std::vector<double>>> QueryPlanner::EvaluateMany(
    const std::vector<AggQuery>& queries, const Table& training,
    const Table& relevant, const ExecContext* ctx) {
  if (ResolvedMorselRows() != 0) {
    return EvaluateManyMorsel(queries, training, relevant, ctx, nullptr);
  }
  morsel_stats_ = MorselExecStats{};
  store_.BeginEpoch();
  WallTimer timer;
  FEAT_RETURN_NOT_OK(ExecContext::ChargeFor(
      ctx, queries.size() * training.num_rows() * sizeof(double)));
  FEAT_ASSIGN_OR_RETURN(std::vector<PlannedCandidate> planned,
                        Prepare(queries, &training, relevant, ctx));
  prepare_seconds_ = timer.Seconds();

  // ---- Fan-out phase: independent pure kernels into pre-sized slots, so
  // results are deterministic and thread- and chunk-count-independent. ----
  timer.Restart();
  std::vector<std::vector<double>> out(queries.size());
  std::vector<Status> kernel_errors(queries.size());
  auto run_one = [&](size_t i) {
    kernel_errors[i] = FaultPoint("exec.kernel");
    if (!kernel_errors[i].ok()) return;
    out[i] = ScatterPerGroup(AggregatePlanned(*ops_, planned[i]),
                             *planned[i].train_map);
  };
  if (pool_ != nullptr) {
    FEAT_RETURN_NOT_OK(pool_->ParallelFor(planned.size(), run_one, 0, ctx));
  } else {
    for (size_t i = 0; i < planned.size(); ++i) {
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      run_one(i);
    }
  }
  for (const Status& s : kernel_errors) FEAT_RETURN_NOT_OK(s);
  aggregate_seconds_ = timer.Seconds();
  return out;
}

Result<std::vector<QueryPlanner::CandidateResult>>
QueryPlanner::EvaluateManyIsolated(const std::vector<AggQuery>& queries,
                                   const Table& training,
                                   const Table& relevant,
                                   const ExecContext* ctx) {
  if (ResolvedMorselRows() != 0) {
    std::vector<Status> morsel_slot_errors(queries.size());
    FEAT_ASSIGN_OR_RETURN(std::vector<std::vector<double>> values,
                          EvaluateManyMorsel(queries, training, relevant, ctx,
                                             &morsel_slot_errors));
    std::vector<CandidateResult> out(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      out[i].status = std::move(morsel_slot_errors[i]);
      if (out[i].status.ok()) out[i].values = std::move(values[i]);
    }
    return out;
  }
  morsel_stats_ = MorselExecStats{};
  store_.BeginEpoch();
  WallTimer timer;
  FEAT_RETURN_NOT_OK(ExecContext::ChargeFor(
      ctx, queries.size() * training.num_rows() * sizeof(double)));
  std::vector<Status> slot_errors(queries.size());
  FEAT_ASSIGN_OR_RETURN(std::vector<PlannedCandidate> planned,
                        Prepare(queries, &training, relevant, ctx,
                                &slot_errors));
  prepare_seconds_ = timer.Seconds();

  timer.Restart();
  std::vector<CandidateResult> out(queries.size());
  // Slots are disjoint: each task writes only its own index, so recording a
  // per-candidate kernel failure is race-free on the pool.
  auto run_one = [&](size_t i) {
    if (!slot_errors[i].ok()) return;
    Status injected = FaultPoint("exec.kernel");
    if (!injected.ok()) {
      slot_errors[i] = std::move(injected);
      return;
    }
    out[i].values = ScatterPerGroup(AggregatePlanned(*ops_, planned[i]),
                                    *planned[i].train_map);
  };
  if (pool_ != nullptr) {
    FEAT_RETURN_NOT_OK(pool_->ParallelFor(planned.size(), run_one, 0, ctx));
  } else {
    for (size_t i = 0; i < planned.size(); ++i) {
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      run_one(i);
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i].status = std::move(slot_errors[i]);
  }
  aggregate_seconds_ = timer.Seconds();
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
  options.prefetch = morsel_prefetch_;
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
  // count (the per-group values are frozen and shared read-only).
  std::vector<std::vector<double>> out(n);
  std::vector<Status> scatter_errors(n);
  auto scatter_one = [&](size_t i) {
    const size_t gi = plan.candidate_group[i];
    if (gi == MorselResult::kNoGroupSpec) return;  // isolated compile failure
    if (!map_errors[gi].ok()) {
      scatter_errors[i] = map_errors[gi];
      return;
    }
    scatter_errors[i] = FaultPoint("exec.kernel");
    if (!scatter_errors[i].ok()) return;
    out[i] = ScatterPerGroup(plan.per_group_features[i], train_maps[gi]);
  };
  if (pool != nullptr) {
    FEAT_RETURN_NOT_OK(pool->ParallelFor(n, scatter_one, 0, ctx));
  } else {
    for (size_t i = 0; i < n; ++i) {
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      scatter_one(i);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (scatter_errors[i].ok()) continue;
    if (slot_errors == nullptr) return std::move(scatter_errors[i]);
    (*slot_errors)[i] = std::move(scatter_errors[i]);
  }
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
