#pragma once

/// \file kernel_dispatch.h
/// \brief Runtime-selected kernel backends behind the backend-neutral
/// planner.
///
/// `PlannedCandidate` (query/kernels.h) was deliberately specified as pure
/// const inputs so that more than one kernel implementation could consume
/// it. This layer adds the second implementation set and the switch between
/// them: a `KernelOps` table bundles every kernel entry point the planner
/// and the morsel executor dispatch through — streaming aggregation,
/// per-range absorption into a GroupAccumulator, and the predicate-to-mask
/// evaluation of the prepare phase. The order-statistic walk over a
/// ValueOrder (AggregateFromValueOrder) and the scatter onto training rows
/// that ends every feature column are backend-neutral (query/kernels.h).
///
/// Two tables exist:
///   - **scalar** — the reference kernels in query/kernels.cc, the
///     bit-exactness oracle every other backend is tested against;
///   - **simd**   — the vectorized set in query/kernels_simd.cc. At process
///     start the CPU is probed once (AVX2 on x86-64, NEON on aarch64); on a
///     machine with neither the simd table still works — its functions fall
///     back to run-decoded scalar loops — and reports SimdLevel::kScalarOnly.
///
/// **Bit-identity contract.** Backend choice is purely a performance knob:
/// every entry of every table must produce byte-identical output for the
/// same inputs, at every thread count. Streaming aggregation and absorption
/// share one implementation (query/kernels.h over the one
/// GroupAccumulator); the tables differ only in how they iterate the
/// selected rows (per-bit scan vs run- and group-segment-decoded spans),
/// which visits the same rows in the same ascending order. The remaining
/// vectorized entry, mask evaluation, is order-independent and swept
/// against the scalar oracle by tests/kernel_dispatch_test.cc and the
/// recorded goldens.
///
/// Selection order (first non-auto wins):
///   1. the per-planner override (QueryPlanner::set_kernel_backend),
///   2. FEATLIB_KERNEL_BACKEND=scalar|simd|auto (environment),
///   3. FeatAugConfig::Global().kernel_backend,
///   4. auto: simd when the CPU has a vector ISA, scalar otherwise.

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "query/kernels.h"
#include "query/predicate.h"

namespace featlib {

/// The vector ISA the simd table was able to engage.
enum class SimdLevel {
  kScalarOnly,  ///< no vector ISA (or FEATLIB_DISABLE_SIMD build)
  kAvx2,        ///< x86-64 AVX2
  kNeon,        ///< aarch64 NEON
};

/// Canonical lowercase name ("scalar" / "avx2" / "neon") — the bench's
/// kernel_dispatch_level field.
const char* SimdLevelName(SimdLevel level);

/// The ISA detected on this CPU, probed once per process. Returns
/// kScalarOnly under FEATLIB_DISABLE_SIMD builds regardless of hardware.
SimdLevel DetectedSimdLevel();

/// One kernel backend: every entry point the planner dispatches through.
/// All entries are pure functions (no caches, no locks), so any number of
/// fan-out threads may call them concurrently, and tables may be mixed
/// freely across calls — outputs are byte-identical by contract.
struct KernelOps {
  /// Which backend this table implements (never kAuto).
  KernelBackend backend;
  /// The ISA its vectorized paths engage (kScalarOnly for the scalar table).
  SimdLevel level;

  /// AggregateStreaming (query/kernels.h) with this table's iteration.
  std::vector<double> (*aggregate_streaming)(
      AggFunction fn, const GroupIndex& index, const Bitset* mask,
      const double* view, std::vector<uint32_t>* first_selected_row);
  /// AbsorbRows (query/kernels.h) with this table's iteration: folds one
  /// row range (e.g. a morsel) into a candidate's accumulator.
  void (*absorb)(GroupAccumulator& acc, const uint32_t* row_groups,
                 size_t n_rows, const Bitset* mask, const double* view);
  /// Evaluates the filter into `out` (pre-sized to the table, all-zero):
  /// sets exactly the bits of rows where CompiledFilter::Matches is true.
  void (*build_filter_mask)(const CompiledFilter& filter, Bitset* out);
};

/// The table for `backend`; kAuto resolves to simd when the CPU has a
/// vector ISA and scalar otherwise. The returned reference is to a static
/// table — storing it is safe for the process lifetime.
const KernelOps& KernelOpsFor(KernelBackend backend);

/// Full selection chain for a call-site override: a non-auto
/// `override_backend` wins, else FEATLIB_KERNEL_BACKEND / FeatAugConfig,
/// else ISA detection.
const KernelOps& ResolveKernelOps(KernelBackend override_backend);

/// The simd table (internal: exposed for KernelOpsFor and the parity
/// tests/bench, which pin simd-vs-scalar regardless of the environment).
const KernelOps& SimdKernelOps();
/// The scalar oracle table.
const KernelOps& ScalarKernelOps();

}  // namespace featlib
