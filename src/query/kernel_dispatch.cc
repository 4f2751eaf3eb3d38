#include "query/kernel_dispatch.h"

namespace featlib {

namespace {

/// The scalar mask build: the exact per-row loop the planner's prepare
/// phase ran before dispatch existed, kept as the oracle the vectorized
/// evaluator is swept against.
void ScalarBuildFilterMask(const CompiledFilter& filter, Bitset* out) {
  const size_t n = filter.num_rows();
  for (size_t row = 0; row < n; ++row) {
    if (filter.Matches(row)) out->Set(row);
  }
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalarOnly:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "scalar";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = [] {
#if defined(FEATLIB_DISABLE_SIMD)
    return SimdLevel::kScalarOnly;
#elif defined(__x86_64__) || defined(_M_X64)
    return __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2
                                          : SimdLevel::kScalarOnly;
#elif defined(__aarch64__)
    // NEON is architecturally baseline on AArch64.
    return SimdLevel::kNeon;
#else
    return SimdLevel::kScalarOnly;
#endif
  }();
  return level;
}

const KernelOps& ScalarKernelOps() {
  static const KernelOps ops = {
      /*backend=*/KernelBackend::kScalar,
      /*level=*/SimdLevel::kScalarOnly,
      /*aggregate_streaming=*/&AggregateStreaming<RowSpans>,
      /*absorb=*/&AbsorbRows<RowSpans>,
      /*build_filter_mask=*/&ScalarBuildFilterMask,
  };
  return ops;
}

const KernelOps& KernelOpsFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return ScalarKernelOps();
    case KernelBackend::kSimd:
      return SimdKernelOps();
    case KernelBackend::kAuto:
      break;
  }
  return DetectedSimdLevel() == SimdLevel::kScalarOnly ? ScalarKernelOps()
                                                       : SimdKernelOps();
}

const KernelOps& ResolveKernelOps(KernelBackend override_backend) {
  if (override_backend != KernelBackend::kAuto) {
    return KernelOpsFor(override_backend);
  }
  return KernelOpsFor(FeatAugConfig::Global().ResolvedKernelBackend());
}

}  // namespace featlib
