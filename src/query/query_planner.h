#pragma once

/// \file query_planner.h
/// \brief Batch query planner: compiles a candidate pool into a deduplicated
/// DAG of shared artifacts, prepares the artifacts in parallel through a
/// build-then-publish ArtifactStore, and fans the pure per-candidate kernels
/// out over a ThreadPool.
///
/// FeatAug's search evaluates thousands of candidate queries (predicate
/// combo x agg function x agg attribute) that share the same one-to-many
/// join. The planner is the top layer of the planner / store / kernel split
/// (see docs/ARCHITECTURE.md):
///
///  1. **Compile** — one sequential pass over the batch resolves every
///     candidate to the set of artifacts it needs (group index, training-row
///     map, predicate/conjunction bitsets, numeric value view, bucket
///     materialization), deduplicating requests across candidates and
///     looking up what the ArtifactStore already holds. The result is a
///     three-stage dependency DAG: conjunction masks depend on their
///     constituent predicate masks, training-row maps on their group index,
///     and materializations on group index + mask + view.
///
///     Per-candidate resolution is **memoized across batches**: the first
///     time a candidate content key (AggQuery::CacheKey) is seen, its
///     validation and artifact-key derivation (group key, predicate keys,
///     conjunction key, bucket key) run and the result is cached; a pool
///     that overlaps a previous pool — the HPO-loop pattern, where
///     successive search rounds re-plan nearly identical pools — skips
///     re-resolution for the overlap and goes straight to the
///     missing-artifact DAG. Memo entries are pure content (strings and
///     indices, no artifact pointers), so store eviction never invalidates
///     them; like every store shard they are bound to the planner's
///     (training, relevant) pair.
///
///  2. **Prepare (parallel)** — missing artifacts are built *off to the
///     side* on the ThreadPool, independent artifacts of a stage in
///     parallel, stages in topological order; after each stage the finished
///     values are published into the store sequentially on the calling
///     thread (ThreadPool::ParallelForStages). Publish order is request
///     order, so the store's contents — and every downstream byte — are
///     identical at every thread and chunk count.
///
///  3. **Fan-out (parallel)** — each candidate's per-group aggregate (the
///     backend's kernels, query/kernels.h) then ScatterPerGroup through the
///     training-row map: pure functions over published const artifacts
///     writing pre-sized output slots, run on the pool with chunk-claimed
///     scheduling.
///
/// An instance is bound by content to one (training, relevant) table pair:
/// its store keys off group-key names and predicate operands, so feeding it
/// a different table with the same schema would silently reuse stale
/// artifacts. Callers that augment multiple tables create one planner per
/// pair (cheap — the store fills lazily).
///
/// Thread-compatibility: an instance may be used from one thread at a time
/// (its internal pool parallelism is self-contained); concurrent calls on
/// the same instance require external synchronization.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/exec_context.h"
#include "common/status.h"
#include "query/agg_query.h"
#include "query/artifact_store.h"
#include "query/kernels.h"
#include "query/morsel.h"
#include "table/table.h"

namespace featlib {

class GroupIndex;
class ThreadPool;
struct KernelOps;

/// \brief A frozen, batch-independent query plan for repeated serving.
///
/// Each FeatAug feature is a group-by aggregation over the relevant table
/// alone, so its per-group values never depend on the batch it is applied
/// to. CompileServingPlan computes them once (the morsel pipeline, with the
/// kernel backend resolved at that moment) and freezes them here; serving a
/// batch is then only map + scatter: each batch row is mapped to its group
/// and takes that group's value.
///
/// The plan owns everything it reads except `relevant`: no pointer reaches
/// into the compiling planner or its store, so the plan outlives the
/// planner, and any number of threads may execute it concurrently.
struct ServingPlan {
  /// [candidate][group id] aggregate values (NaN where undefined); empty for
  /// candidates that failed an isolated compile.
  std::vector<std::vector<double>> per_group_features;
  /// Distinct key-map-only group indexes (first-use order): enough to map
  /// batch rows onto group ids, with no per-row relevant-side ids.
  std::vector<std::shared_ptr<const GroupIndex>> group_indexes;
  /// per_group_features[i] is over group_indexes[candidate_group[i]]'s group
  /// space (MorselResult::kNoGroupSpec for a failed isolated candidate).
  std::vector<size_t> candidate_group;
  /// The relevant table the plan was compiled against (not owned; must
  /// outlive the plan). Batch keys translate through its dictionaries, so
  /// executing against any other table — even one with the same schema —
  /// would map rows to the wrong groups.
  const Table* relevant = nullptr;
};

/// Applies a frozen serving plan to one batch: builds one training-row map
/// per group index into call-local storage, then scatters every candidate's
/// per-group values through its map (on `pool` when non-null, inline
/// otherwise). No aggregation runs here. Const over the plan, so concurrent
/// calls are thread-safe and byte-identical to serial execution at every
/// thread count.
///
/// `slot_errors` selects the failure contract, as in QueryPlanner::Prepare:
/// nullptr is fail-fast; non-null must be sized to the plan's candidates,
/// keeps the statuses already in it (isolated compile failures), and
/// receives each candidate's own map or scatter failure — the call itself
/// then only fails batch-wide (tripped ctx, exhausted budget).
Result<std::vector<std::vector<double>>> ExecuteServingPlan(
    const ServingPlan& plan, const Table& batch, ThreadPool* pool = nullptr,
    const ExecContext* ctx = nullptr,
    std::vector<Status>* slot_errors = nullptr);

class QueryPlanner {
 public:
  QueryPlanner() = default;

  /// Pool used for both the parallel prepare and the fan-out phase. nullptr
  /// (the default) means serial evaluation. Not owned; must outlive the
  /// planner's use.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Kernel backend for every phase this planner dispatches — predicate
  /// masks, bucket materializations, streaming aggregation, the serving
  /// plan's compile. kAuto (the default) defers to FEATLIB_KERNEL_BACKEND /
  /// FeatAugConfig and then to CPU detection (see query/kernel_dispatch.h).
  /// Backends are byte-identical by contract; this is a performance knob
  /// and a test hook, never a semantics switch.
  void set_kernel_backend(KernelBackend backend) { kernel_backend_ = backend; }
  KernelBackend kernel_backend() const { return kernel_backend_; }

  /// Rows per morsel for out-of-core evaluation. 0 (the default) defers to
  /// FEATLIB_MORSEL_ROWS / FeatAugConfig::Global().morsel_rows; when the
  /// resolved value is non-zero, EvaluateMany / EvaluateManyIsolated /
  /// ComputeFeatureColumn run the bounded-memory morsel pipeline
  /// (query/morsel.h) instead of whole-table artifact preparation.
  /// CompileServingPlan always runs that pipeline, at this size (0 = the
  /// whole table as one morsel). Purely a memory/performance knob: results
  /// are byte-identical to the in-RAM path at every morsel size and thread
  /// count.
  void set_morsel_rows(size_t rows) { morsel_rows_ = rows; }
  size_t morsel_rows() const { return morsel_rows_; }

  /// Build/combine overlap of the morsel pipeline (on by default). Identical
  /// bytes either way — the toggle only changes wall-clock overlap.
  void set_morsel_prefetch(bool on) { morsel_prefetch_ = on; }
  bool morsel_prefetch() const { return morsel_prefetch_; }

  /// Stats of the last morsel-mode evaluation on this planner (zeroed when
  /// the last evaluation took the in-RAM path).
  const MorselExecStats& last_morsel_stats() const { return morsel_stats_; }

  /// Bounded retry for transiently-failing artifact builds: a build whose
  /// failure is retryable (kInternal / kIOError — the transient classes; a
  /// kInvalidArgument query shape never retries) is re-attempted up to
  /// `max_attempts` total tries, sleeping RetryDelayMs between tries.
  /// Default is one attempt (no retry); retries taken are reported in
  /// PlanStats::build_retries.
  struct RetryPolicy {
    int max_attempts = 1;
    /// Base of the exponential schedule (attempt 0 waits ~backoff_ms). 0
    /// disables sleeping entirely (retries stay immediate).
    int backoff_ms = 0;
    /// The doubling saturates here: no single wait exceeds this, however
    /// many attempts the policy allows.
    int max_backoff_ms = 1000;
    /// Seed of the deterministic jitter. Concurrent builds that fail
    /// together desynchronize (each request's delay is drawn from its own
    /// token), yet every (seed, token, attempt) triple always yields the
    /// same delay — retry timing is reproducible like everything else.
    uint64_t jitter_seed = 0;
  };
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// The pure delay schedule behind the retry sleeps: the exponential base
  /// min(backoff_ms << attempt, max_backoff_ms) jittered deterministically
  /// into [base/2, base] by hashing (jitter_seed, token, attempt). `token`
  /// identifies the retrying request (the planner derives it from the
  /// artifact's cache key) so parallel failers spread out. Exposed for
  /// tests: the sequence is a pure function of its arguments.
  static int RetryDelayMs(const RetryPolicy& policy, int attempt,
                          uint64_t token);

  /// Feature column of `q` aligned to `training` (NaN where the entity has
  /// no qualifying rows), reusing the store's artifacts across calls.
  /// A non-null `ctx` is checked between pipeline phases (and at ThreadPool
  /// chunk boundaries) and charged with build-size estimates.
  Result<std::vector<double>> ComputeFeatureColumn(
      const AggQuery& q, const Table& training, const Table& relevant,
      const ExecContext* ctx = nullptr);

  /// Evaluates N candidates in one call, returning N feature columns.
  /// Candidates sharing group keys reuse one GroupIndex; predicates repeated
  /// across candidates hit the mask shard; candidates differing only in agg
  /// function share one bucket materialization; artifact builds and the
  /// per-candidate kernels both run on the configured ThreadPool.
  ///
  /// Fail-fast contract: any candidate failing to compile or build fails
  /// the whole batch (the store still keeps every artifact that did publish,
  /// and the planner stays usable). For per-candidate isolation use
  /// EvaluateManyIsolated.
  Result<std::vector<std::vector<double>>> EvaluateMany(
      const std::vector<AggQuery>& queries, const Table& training,
      const Table& relevant, const ExecContext* ctx = nullptr);

  /// One candidate's outcome under the isolated contract: `values` is
  /// meaningful iff `status.ok()`.
  struct CandidateResult {
    Status status;
    std::vector<double> values;
  };

  /// Partial-failure-isolated EvaluateMany: a candidate that fails —
  /// validation, any artifact build it depends on, or its kernel — yields
  /// its Status in its own result slot while every other candidate still
  /// evaluates, byte-identical to a batch that never contained the failing
  /// one (artifacts are keyed by content, and a failed build is simply
  /// never published). The outer Result is an error only for batch-level
  /// failures: a tripped ExecContext (kCancelled / kDeadlineExceeded) or an
  /// exhausted memory budget (kResourceExhausted).
  Result<std::vector<CandidateResult>> EvaluateManyIsolated(
      const std::vector<AggQuery>& queries, const Table& training,
      const Table& relevant, const ExecContext* ctx = nullptr);

  /// Grouped result table of Def. 2 (key columns + "feature"), in
  /// first-seen group order among filtered rows.
  Result<Table> ExecuteAggQuery(const AggQuery& q, const Table& relevant,
                                const ExecContext* ctx = nullptr);

  /// Compiles `queries` into a frozen ServingPlan: streams the relevant
  /// table once through the morsel pipeline at the resolved morsel size and
  /// keeps the per-group values and key-map-only group indexes. The store
  /// is not touched, and the plan stays valid after this planner is gone.
  /// `slot_errors` follows ExecuteMorsels' contract (nullptr = fail-fast).
  Result<ServingPlan> CompileServingPlan(
      const std::vector<AggQuery>& queries, const Table& relevant,
      const ExecContext* ctx = nullptr,
      std::vector<Status>* slot_errors = nullptr);

  /// The artifact store backing this planner (cap tuning, introspection).
  ArtifactStore& store() { return store_; }
  const ArtifactStore& store() const { return store_; }

  /// \name Store shortcuts (tests and benches).
  /// @{
  size_t num_group_index_builds() const { return store_.num_group_builds(); }
  size_t num_mask_builds() const { return store_.num_mask_builds(); }
  size_t num_materializations() const { return store_.num_materializations(); }
  size_t num_evictions() const { return store_.num_evictions(); }
  void set_mask_cache_cap_bytes(size_t cap) {
    store_.set_mask_cache_cap_bytes(cap);
  }
  void set_mat_cache_cap_bytes(size_t cap) {
    store_.set_mat_cache_cap_bytes(cap);
  }
  /// @}

  /// Compile-time shape of the last prepared batch (tests pin DAG dedup and
  /// topology through this).
  struct PlanStats {
    size_t candidates = 0;
    /// Deduplicated artifact requests by kind (cached or built).
    size_t group_requests = 0;
    /// Training-row maps scheduled for (re)build this batch — unlike the
    /// request counts above, cached up-to-date maps are not counted.
    size_t train_map_requests = 0;
    size_t mask_requests = 0;
    size_t conjunction_requests = 0;
    size_t view_requests = 0;
    size_t mat_requests = 0;
    /// Artifact builds actually executed (requests that missed the store).
    size_t builds_run = 0;
    /// Dependency stages that ran at least one build (<= 3).
    size_t stages_run = 0;
    /// Candidates whose compiled resolution was served from the memo
    /// (compile_hits) vs derived fresh (compile_misses); duplicates within
    /// the batch count as hits after the first occurrence.
    size_t compile_hits = 0;
    size_t compile_misses = 0;
    /// Build re-attempts taken under the RetryPolicy (0 without retries).
    size_t build_retries = 0;
    /// Bucket materializations short-circuited because their selection mask
    /// had no set bits (the fused conjunction popcount — or a cached mask's
    /// count — proved the bucket empty before any build ran).
    size_t empty_selections = 0;
    /// Morsels processed when the batch ran the out-of-core pipeline (0 on
    /// the in-RAM path; see last_morsel_stats() for the full breakdown).
    size_t morsels = 0;
  };
  const PlanStats& last_plan_stats() const { return plan_stats_; }

  /// \name Cumulative compile-memo counters across all batches (the bench's
  /// plan_compile_hit_rate).
  /// @{
  size_t compile_cache_hits() const { return compile_cache_hits_; }
  size_t compile_cache_misses() const { return compile_cache_misses_; }
  size_t compile_cache_size() const { return compile_cache_.size(); }
  size_t compile_cache_flushes() const { return compile_cache_flushes_; }
  /// @}

  /// Build re-attempts summed across all batches (PlanStats::build_retries
  /// resets per Prepare; fit-level diagnostics read this).
  size_t build_retries_total() const { return build_retries_total_; }

  /// Entry cap of the compile memo. Shapes are tiny (a handful of strings)
  /// but content-keyed, so a long-lived planner must not grow without bound
  /// — the same concern the byte-capped shards and feature cache address.
  /// When a batch *starts* above the cap the memo is flushed wholesale
  /// (never mid-batch: resolved shape pointers stay valid for the whole
  /// Prepare); the next searches simply re-miss.
  void set_compile_cache_cap_entries(size_t cap) {
    compile_cache_cap_entries_ = cap;
  }

  /// \name Phase timings of the last EvaluateMany call (bench reporting).
  /// @{
  double last_prepare_seconds() const { return prepare_seconds_; }
  double last_aggregate_seconds() const { return aggregate_seconds_; }
  /// @}

 private:
  /// Memoized per-candidate compile resolution: everything derivable from
  /// the query content alone — validation outcome and the artifact cache
  /// keys the compile pass interns. Batch-dependent choices (shared-bucket
  /// materialization, store hits) are *not* cached here; they re-resolve
  /// each batch against the memoized keys.
  struct CompiledShape {
    std::string group_key;
    /// Indices of non-trivial predicates in the query's predicate list,
    /// with their cache keys (parallel vectors).
    std::vector<uint32_t> active_preds;
    std::vector<std::string> pred_keys;
    /// Conjunction cache key; empty unless active_preds.size() >= 2.
    std::string combo_key;
    /// Bucket key (group keys + agg attribute + predicates).
    std::string bucket_key;
  };

  /// Looks up / derives the compiled shape of `q` (validating on a miss)
  /// and updates the hit/miss counters.
  Result<const CompiledShape*> ResolveShape(const AggQuery& q,
                                            const Table& relevant);

  /// The morsel size this planner actually runs with: the per-planner
  /// override when non-zero, else the config/env resolution. 0 = in-RAM.
  size_t ResolvedMorselRows() const;

  /// The morsel-mode twin of Prepare + fan-out: CompileServingPlan, then
  /// ExecuteServingPlan on `training`. Same slot_errors contract as Prepare.
  Result<std::vector<std::vector<double>>> EvaluateManyMorsel(
      const std::vector<AggQuery>& queries, const Table& training,
      const Table& relevant, const ExecContext* ctx,
      std::vector<Status>* slot_errors);

  /// Compiles `queries` into the artifact DAG, executes the missing builds
  /// stage-parallel on the pool, publishes them, and resolves one
  /// PlannedCandidate per query. A null `training` plans ExecuteAggQuery's
  /// grouped result: no training-row maps are built, and candidates always
  /// take the streaming path (view instead of bucket materialization).
  /// Otherwise streaming-family aggregates materialize only when several
  /// candidates of the batch share their bucket.
  ///
  /// `slot_errors` selects the failure contract: nullptr is fail-fast (the
  /// first compile or build error fails the call); non-null must be sized
  /// to `queries` and receives each candidate's isolated Status — the call
  /// itself then only fails batch-wide (tripped ctx, exhausted budget). In
  /// both modes only fully-built artifacts are ever published, and a failed
  /// stage never runs its publish step.
  Result<std::vector<PlannedCandidate>> Prepare(
      const std::vector<AggQuery>& queries, const Table* training,
      const Table& relevant, const ExecContext* ctx = nullptr,
      std::vector<Status>* slot_errors = nullptr);

  ArtifactStore store_;
  ThreadPool* pool_ = nullptr;
  /// Resolved once per Prepare from kernel_backend_; points at a static
  /// KernelOps table, so fan-out threads read it freely.
  const KernelOps* ops_ = nullptr;
  KernelBackend kernel_backend_ = KernelBackend::kAuto;
  size_t morsel_rows_ = 0;
  bool morsel_prefetch_ = true;
  MorselExecStats morsel_stats_;
  RetryPolicy retry_;
  PlanStats plan_stats_;
  std::unordered_map<std::string, CompiledShape> compile_cache_;
  size_t compile_cache_cap_entries_ = 1u << 16;
  size_t compile_cache_hits_ = 0;
  size_t compile_cache_misses_ = 0;
  size_t compile_cache_flushes_ = 0;
  size_t build_retries_total_ = 0;
  double prepare_seconds_ = 0.0;
  double aggregate_seconds_ = 0.0;
};

}  // namespace featlib
