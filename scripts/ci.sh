#!/usr/bin/env bash
# CI entry point: Release build + full ctest suite, then a ThreadSanitizer
# build of the concurrency tests. The planner's parallel prepare
# (build-then-publish into the ArtifactStore), the EvaluateMany fan-out, and
# concurrent FittedAugmenter::Transform on one shared serving handle (map +
# scatter over per-group values frozen at compile time) are the
# multi-threaded code; TSan pins the "no locks needed" design of all three.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

# ---- Release: build everything, run the whole suite ------------------------
cmake -B "$ROOT/build" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

# ---- Kernel-backend pinning: goldens + parity under scalar and simd --------
# (Backend choice is a pure performance knob: the recorded goldens and the
# dispatch parity sweep must pass byte-identically with either table pinned
# via the env var. On hosts without a vector ISA "simd" resolves to the
# run-decoded scalar loops, so the pinned runs stay meaningful everywhere.
# Serving plans compile only through the morsel executor's absorb entry, so
# morsel_test and augmenter_test pin that path under both tables too.)
for backend in scalar simd; do
  echo "ci.sh: golden + parity suite under FEATLIB_KERNEL_BACKEND=$backend"
  FEATLIB_KERNEL_BACKEND="$backend" ctest --test-dir "$ROOT/build" \
    --output-on-failure -j "$JOBS" \
    -R 'executor_golden_test|executor_parallel_test|kernel_dispatch_test|serving_concurrency_test|morsel_test|augmenter_test'
done

# ---- Bench record: serving warm-vs-cold + the search-pipeline comparison ---
# (bench_micro writes BENCH_executor.json at the repo root; the record
# carries the transform_warm_vs_cold fields of the FittedAugmenter path, the
# search_batched_* fields of the batched suggest -> pooled evaluate ->
# observe-all pipeline, and the plan_compile_* fields of the repeated-pool
# compile-memoization workload. It fails on any output divergence.)
if [[ -x "$ROOT/build/bench_micro" ]]; then
  "$ROOT/build/bench_micro" --benchmark_filter='BM_TransformWarmVsCold' \
    >/dev/null
  [[ -f "$ROOT/BENCH_executor.json" ]] || {
    echo "ci.sh: BENCH_executor.json was not produced" >&2
    exit 1
  }
  for field in transform_warm_vs_cold search_sequential_seconds \
               search_batched_seconds search_batched_speedup \
               plan_compile_hit_rate exec_context_overhead \
               checkpoint_off_seconds checkpoint_on_seconds \
               checkpoint_overhead checkpoint_plan_identical \
               kernel_scalar_seconds kernel_simd_seconds \
               kernel_simd_speedup kernel_dispatch_level \
               kernel_simd_bit_identical \
               morsel_peak_bytes morsel_single_pass_peak_bytes \
               morsel_bit_identical morsel_prefetch_speedup; do
    grep -q "\"$field\"" "$ROOT/BENCH_executor.json" || {
      echo "ci.sh: $field missing from BENCH_executor.json" >&2
      exit 1
    }
  done
  # The cooperative ExecContext checks must stay free when no limit is set,
  # and durable fit (atomic snapshot writes at round boundaries) must stay
  # within noise of an uncheckpointed fit: gate both ratios at < 1.02 (2%).
  # The durable fit's plan must also be byte-identical to the plain fit's.
  python3 - "$ROOT/BENCH_executor.json" <<'EOF'
import json, sys
record = json.load(open(sys.argv[1]))
for field in ("exec_context_overhead", "checkpoint_overhead"):
    overhead = record[field]
    if overhead >= 1.02:
        sys.exit(f"ci.sh: {field} {overhead:.4f} >= 1.02")
    print(f"ci.sh: {field} {overhead:.4f} (< 1.02)")
if not record["checkpoint_plan_identical"]:
    sys.exit("ci.sh: durable fit's plan diverged from the plain fit's")
# Kernel backend: the simd table must be byte-identical to the scalar
# oracle on the composite dense-mask workload, and on hosts where a vector
# ISA engaged it must actually pay (>= 1.5x on the composite; ISA-less
# hosts run the same run-decoded loops on both sides, so only identity is
# gated there).
if not record["kernel_simd_bit_identical"]:
    sys.exit("ci.sh: simd kernel outputs diverged from the scalar oracle")
level = record["kernel_dispatch_level"]
speedup = record["kernel_simd_speedup"]
if level != "scalar" and speedup < 1.5:
    sys.exit(f"ci.sh: kernel_simd_speedup {speedup:.2f} < 1.5 at level {level}")
print(f"ci.sh: kernel_simd_speedup {speedup:.2f} at level {level} (bit-identical)")
# Out-of-core morsel execution: every streamed column must be byte-identical
# to the single pass, and the bounded pipeline's peak artifact memory on the
# 10x table must stay under half the whole-table peak (~2 in-flight morsels
# + per-group state vs full-table artifacts). The prefetch overlap is
# recorded, not gated: on a single-core host it is legitimately ~1.0.
if not record["morsel_bit_identical"]:
    sys.exit("ci.sh: morsel-streamed columns diverged from the single pass")
peak = record["morsel_peak_bytes"]
single = record["morsel_single_pass_peak_bytes"]
if single <= 0:
    sys.exit("ci.sh: morsel_single_pass_peak_bytes not measured")
ratio = peak / single
if ratio >= 0.5:
    sys.exit(f"ci.sh: morsel peak ratio {ratio:.3f} >= 0.5 "
             f"({peak:.0f} / {single:.0f} bytes)")
print(f"ci.sh: morsel peak {peak/1e6:.2f}MB vs single-pass {single/1e6:.2f}MB "
      f"(ratio {ratio:.3f} < 0.5), prefetch speedup "
      f"{record['morsel_prefetch_speedup']:.2f}x (bit-identical)")
EOF
else
  echo "ci.sh: bench_micro not built (google-benchmark missing?)" >&2
  exit 1
fi

# ---- Serving daemon smoke: socket round-trip latency + byte identity --------
# (bench_serve stands up a live daemon on a unix socket, drives concurrent
# client connections through the framing/registry/batcher stack, and merges
# serve_p50/p99/throughput plus the byte-identity verdict into the record
# bench_micro just wrote. Byte identity — every socket response equal to
# direct in-process TransformMany — is the serving contract and is gated.)
if [[ -x "$ROOT/build/bench_serve" ]]; then
  "$ROOT/build/bench_serve" --out="$ROOT/BENCH_executor.json"
  for field in serve_p50_seconds serve_p99_seconds serve_throughput_rps \
               serve_bit_identical serve_coalesced_flushes; do
    grep -q "\"$field\"" "$ROOT/BENCH_executor.json" || {
      echo "ci.sh: $field missing from BENCH_executor.json" >&2
      exit 1
    }
  done
  python3 - "$ROOT/BENCH_executor.json" <<'EOF'
import json, sys
record = json.load(open(sys.argv[1]))
if not record["serve_bit_identical"]:
    sys.exit("ci.sh: daemon responses diverged from in-process TransformMany")
if record["serve_coalesced_flushes"] < 1:
    sys.exit("ci.sh: the batcher never coalesced concurrent requests")
print(f"ci.sh: serve p50 {record['serve_p50_seconds']*1e3:.3f}ms "
      f"p99 {record['serve_p99_seconds']*1e3:.3f}ms "
      f"{record['serve_throughput_rps']:.0f} req/s (bit-identical)")
EOF
else
  echo "ci.sh: bench_serve not built" >&2
  exit 1
fi

# ---- End-to-end benchmark: correctness of every workload --------------------
# (perfbench runs a whole Fit, bulk Transform and daemon serving through the
# public API and checks every output, including the byte identity of every
# Transform and daemon response against a fresh-planner oracle. It exits
# non-zero when any workload reports correct=false. Short runs: this step
# gates correctness, not speed.)
(cd "$ROOT" && python3 perfbench/run.py --all --seconds 3)

# ---- Fault-injection sweep: randomized seeds, typed-Status invariant --------
# (fault_sweep_test runs EnableRandom(seed, p) sweeps: every injected fault
# must surface as a clean typed Status and every surviving slot must be
# byte-identical to an uninjected run. Seeds rotate with the date so CI
# coverage accumulates across runs while any one run stays reproducible from
# its printed seed.)
FAULT_BASE_SEED="${FEATLIB_FAULT_SEED:-$(( $(date +%s) / 86400 * 16 ))}"
echo "ci.sh: fault sweep base seed $FAULT_BASE_SEED"
FEATLIB_FAULT_SEED="$FAULT_BASE_SEED" \
FEATLIB_FAULT_SWEEP_SEEDS="${FEATLIB_FAULT_SWEEP_SEEDS:-16}" \
FEATLIB_FAULT_PROB="${FEATLIB_FAULT_PROB:-0.08}" \
  "$ROOT/build/fault_sweep_test"

# ---- Kill-resume sweep: durable fit crash-safety invariant ------------------
# (checkpoint_sweep_test kills a checkpointed fit at injected crash points
# (checkpoint round boundaries), resumes from whatever the dying run left on
# disk, and requires the resumed plan to be byte-identical to an
# uninterrupted run's. The rotation offset follows the date — day N starts
# the kill-point rotation at a different boundary than day N+1 — so CI
# coverage accumulates across the whole boundary space while any one run
# stays reproducible from its printed offset.)
KILL_OFFSET="${FEATLIB_KILL_OFFSET:-$(( $(date +%s) / 86400 ))}"
echo "ci.sh: kill-resume sweep rotation offset $KILL_OFFSET"
FEATLIB_FAULT_SEED="$KILL_OFFSET" \
FEATLIB_KILL_POINTS="${FEATLIB_KILL_POINTS:-6}" \
  "$ROOT/build/checkpoint_sweep_test"

# ---- ASan+UBSan: full suite under address + undefined sanitizers ------------
# (The fault-tolerance paths exercise error unwinding through every layer;
# ASan/UBSan verifies no leak, use-after-free, or UB hides in the unwind or
# in the publish-skipping cancellation paths.)
cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEATLIB_SANITIZE=asan-ubsan \
  -DFEATLIB_BUILD_BENCHES=OFF \
  -DFEATLIB_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/build-asan" -j "$JOBS"
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"
# The vectorized kernels do word-granular loads/stores around mask tails
# and aligned flat buffers; pin both backends under ASan/UBSan so an
# out-of-bounds lane or misaligned assumption cannot hide behind dispatch.
for backend in scalar simd; do
  FEATLIB_KERNEL_BACKEND="$backend" "$ROOT/build-asan/kernel_dispatch_test"
  FEATLIB_KERNEL_BACKEND="$backend" "$ROOT/build-asan/executor_golden_test"
done

# ---- TSan: planner / store / executor / serving concurrency tests ----------
# (Benches/examples are skipped: TSan only needs the threaded paths, and the
# instrumented build is slow. generator_test and search_session_test drive
# the batched search pipeline end to end — SuggestBatch pools through
# FeatureEvaluator::Features into the parallel EvaluateMany prepare/fan-out —
# so they pin the pipeline's thread-safety claims too. checkpoint_test
# exercises the async CheckpointWriter: fit-thread enqueue vs background
# writer vs destructor drain. The serve_* tests cover the daemon stack:
# registry load/evict/pin races, batcher coalescing + drain, and the full
# socket path with 8 concurrent connections and a SIGTERM drain.
# morsel_test pins the out-of-core pipeline: the AsyncStage prefetch thread
# writing morsel i+1 while the pool's combine fan-out reads morsel i.
# serving_concurrency_test runs concurrent Transform calls on one handle:
# each maps its batch and scatters the shared frozen per-group values, with
# no aggregation and no shared mutable state.)
TSAN_TESTS=(
  executor_golden_test
  executor_parallel_test
  morsel_test
  query_planner_test
  artifact_store_test
  serving_concurrency_test
  generator_test
  search_session_test
  checkpoint_test
  plan_registry_test
  serve_batcher_test
  serve_daemon_test
)
cmake -B "$ROOT/build-tsan" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEATLIB_SANITIZE=thread \
  -DFEATLIB_BUILD_BENCHES=OFF \
  -DFEATLIB_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/build-tsan" -j "$JOBS" --target "${TSAN_TESTS[@]}"
for test in "${TSAN_TESTS[@]}"; do
  "$ROOT/build-tsan/$test"
done

echo "ci.sh: all green"
