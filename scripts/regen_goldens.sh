#!/usr/bin/env bash
# Regenerates the recorded-golden fixtures under tests/golden/ from the
# current engine.
#
# The executor goldens froze the outputs of the legacy per-candidate
# executor (they were recorded while the batched path was still pinned
# bit-identical to it) and now serve as the oracle for the planner path.
# feataug_plan.golden holds the FeatAug plan of the serial search.
# Regenerate them ONLY after an intentional output change, and review the
# fixture diff like code: an unexplained diff is a correctness regression,
# not noise.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

cmake -B "$ROOT/build" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$ROOT/build" -j "$JOBS" \
  --target executor_golden_test executor_parallel_test determinism_test

mkdir -p "$ROOT/tests/golden"
FEATLIB_REGEN_GOLDENS=1 "$ROOT/build/executor_golden_test"
FEATLIB_REGEN_GOLDENS=1 "$ROOT/build/executor_parallel_test"
# The FeatAug plan golden is recorded single-threaded: pooled scoring must
# reproduce the serial search's plan at every thread count.
FEATLIB_REGEN_GOLDENS=1 FEATLIB_NUM_THREADS=1 "$ROOT/build/determinism_test" \
  --gtest_filter='DeterminismTest.FeatAugPlanReproduces'

# Verify the freshly written fixtures round-trip in check mode.
"$ROOT/build/executor_golden_test"
"$ROOT/build/executor_parallel_test"
"$ROOT/build/determinism_test"

echo "regen_goldens.sh: fixtures rewritten under tests/golden/ — review the diff"
