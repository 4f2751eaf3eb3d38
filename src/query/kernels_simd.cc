/// \file kernels_simd.cc
/// \brief The vectorized kernel backend (KernelBackend::kSimd).
///
/// Every entry here must produce output byte-identical to the scalar table
/// (kernels.cc) — backend choice is a performance knob, never a semantics
/// knob (see kernel_dispatch.h). That constraint dictates what is vectorized
/// and how:
///
///  - **Floating-point reductions keep scalar order.** SUM/AVG/VAR are
///    sequential dependence chains whose result depends on accumulation
///    order; re-associating them into vector lanes would change low bits.
///    Streaming aggregation, absorption and materialization (tally + fill)
///    are therefore the shared templates of kernels.h; this backend
///    contributes only their *iteration* (SegmentSpans, below).
///  - **Mask iteration is run-decoded.** The streaming kernels' per-row cost
///    is dominated by per-bit scanning (countr_zero + clear-lowest) and the
///    grouped scatter, not arithmetic. Decoding each mask word into runs of
///    consecutive selected rows once turns dense masks into plain contiguous
///    loops, and splitting runs into group-constant segments lets the
///    accumulator keep a group's state in registers — visiting exactly the
///    same rows in exactly the same order.
///  - **Order-independent kernels vectorize fully**: MIN/MAX over
///    materialized slices (lane-parallel min/max; equal doubles are
///    bit-identical except ±0.0, fixed up by a first-occurrence rescan),
///    and predicate compare + movemask for the prepare phase's selection
///    masks.
///
/// ISA paths are selected at runtime (DetectedSimdLevel): AVX2 functions
/// carry `__attribute__((target("avx2")))` so this translation unit itself
/// is compiled for the baseline ISA and never faults on older CPUs; NEON
/// paths compile only on aarch64. Without any vector ISA, the run-decoded
/// loops alone remain — still bit-identical, modestly faster than per-bit
/// scanning.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "query/aggregate.h"
#include "query/kernel_dispatch.h"

#if !defined(FEATLIB_DISABLE_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define FEATLIB_HAVE_AVX2_PATH 1
#include <immintrin.h>
#endif
#if !defined(FEATLIB_DISABLE_SIMD) && defined(__aarch64__)
#define FEATLIB_HAVE_NEON_PATH 1
#include <arm_neon.h>
#endif

namespace featlib {

namespace {

constexpr uint32_t kNoGroup = GroupIndex::kNoGroup;

double Nan() { return std::nan(""); }

// ---------------------------------------------------------------------------
// Run-decoded mask iteration
// ---------------------------------------------------------------------------

/// Invokes `body(begin, end)` for every maximal run of consecutive selected
/// rows of [row_begin, row_end), in ascending order. Decodes each 64-bit mask
/// word with countr_zero/countr_one (the range's edge words masked) and
/// merges runs that continue across word boundaries, so a dense mask costs
/// two bit-scans per word instead of one per row. A null mask is the whole
/// range.
template <typename Body>
void ForEachSelectedRun(const Bitset* mask, size_t row_begin, size_t row_end,
                        Body&& body) {
  if (row_begin >= row_end) return;
  if (mask == nullptr) {
    body(row_begin, row_end);
    return;
  }
  const uint64_t* words = mask->words();
  const size_t w_begin = row_begin >> 6;
  const size_t w_end = (row_end + 63) >> 6;
  size_t run_begin = 0;
  size_t run_end = 0;
  for (size_t w = w_begin; w < w_end; ++w) {
    uint64_t bits = words[w];
    if (w == w_begin) bits &= ~uint64_t{0} << (row_begin & 63);
    if (w + 1 == w_end && (row_end & 63) != 0) {
      bits &= (uint64_t{1} << (row_end & 63)) - 1;
    }
    const size_t base = w << 6;
    while (bits != 0) {
      const int start = std::countr_zero(bits);
      const int len = std::countr_one(bits >> start);
      const size_t b = base + static_cast<size_t>(start);
      const size_t e = b + static_cast<size_t>(len);
      if (b == run_end && run_end != run_begin) {
        run_end = e;  // continues the previous run across the word boundary
      } else {
        if (run_end != run_begin) body(run_begin, run_end);
        run_begin = b;
        run_end = e;
      }
      if (start + len >= 64) break;
      bits &= ~uint64_t{0} << (start + len);
    }
  }
  if (run_end != run_begin) body(run_begin, run_end);
}

/// Run-decoded replacement for Bitset::ForEachSetBitIn / the all-rows loop:
/// same rows, same ascending order, contiguous inner loops.
template <typename OnRow>
void StreamSelected(const Bitset* mask, size_t row_begin, size_t row_end,
                    OnRow&& on_row) {
  ForEachSelectedRun(mask, row_begin, row_end, [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) on_row(row);
  });
}

/// Splits each selected run into maximal segments of consecutive rows that
/// share one group id, skipping kNoGroup segments. Log-style relevant
/// tables cluster rows by entity, so segments span many rows: the grouped
/// accumulators (present / sum / best per group) can be loaded into
/// registers once per segment instead of once per row, while every
/// accumulation still happens in the same ascending row order — the
/// bit-identity contract is untouched.
template <typename Body>
void ForEachGroupSegment(const Bitset* mask, const uint32_t* groups,
                         size_t row_begin, size_t row_end, Body&& body) {
  ForEachSelectedRun(mask, row_begin, row_end, [&](size_t begin, size_t end) {
    size_t b = begin;
    while (b < end) {
      const uint32_t g = groups[b];
      size_t e = b + 1;
      while (e < end && groups[e] == g) ++e;
      if (g != kNoGroup) body(g, b, e);
      b = e;
    }
  });
}

/// True when consecutive rows mostly share a group id (log-style relevant
/// tables cluster rows by entity): segment decoding then amortizes
/// accumulator loads over whole segments. Random row->group layouts (coarse
/// attributes like a weekday key) degrade segments to length ~1, where the
/// scan is pure overhead — the probe keeps the plain per-row loop there.
/// Layout is a global property of the index, so a prefix sample suffices.
bool GroupsAreClustered(const uint32_t* groups, size_t n) {
  const size_t sample = std::min(n, size_t{4096});
  if (sample < 8) return false;
  size_t changes = 0;
  for (size_t r = 1; r < sample; ++r) changes += groups[r] != groups[r - 1];
  return changes * 4 <= sample;  // average segment length >= ~4
}

/// This backend's selected-row iteration (the `Spans` of query/kernels.h):
/// group-constant segments when the layout rewards it (probed on the
/// table's prefix, so every range of a table iterates alike), otherwise
/// per-row spans of length 1. Either way the body sees the same rows in the
/// same ascending order as the scalar RowSpans, so the one accumulator can
/// hold a segment's per-group state in registers without changing a bit.
class SegmentSpans {
 public:
  SegmentSpans(const uint32_t* groups, size_t row_begin, size_t row_end,
               const Bitset* mask)
      : groups_(groups),
        row_begin_(row_begin),
        row_end_(row_end),
        mask_(mask),
        clustered_(GroupsAreClustered(groups, row_end)) {}

  template <typename Body>
  void operator()(Body&& body) const {
    if (clustered_) {
      ForEachGroupSegment(mask_, groups_, row_begin_, row_end_, body);
      return;
    }
    StreamSelected(mask_, row_begin_, row_end_, [&](size_t row) {
      const uint32_t g = groups_[row];
      if (g != kNoGroup) body(g, row, row + 1);
    });
  }

 private:
  const uint32_t* groups_;
  size_t row_begin_;
  size_t row_end_;
  const Bitset* mask_;
  bool clustered_;
};

// ---------------------------------------------------------------------------
// Slice MIN/MAX (order-independent; vector lanes + ±0.0 fix-up)
// ---------------------------------------------------------------------------

using SliceFn = double (*)(const double*, size_t);

double SliceMinScalar(const double* p, size_t n) {
  return n == 0 ? Nan() : *std::min_element(p, p + n);
}

double SliceMaxScalar(const double* p, size_t n) {
  return n == 0 ? Nan() : *std::max_element(p, p + n);
}

/// Equal doubles are bit-identical except ±0.0, whose sign a lane-parallel
/// reduction may pick arbitrarily while the scalar oracle (min_element /
/// max_element, strict comparison) keeps the first occurrence. When the
/// vector result is a zero, return the slice's first zero instead.
double FirstZeroOf(const double* p, size_t n, double fallback) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] == 0.0) return p[i];
  }
  return fallback;
}

#if defined(FEATLIB_HAVE_AVX2_PATH)

__attribute__((target("avx2"))) double SliceMinAvx2(const double* p,
                                                    size_t n) {
  if (n < 16) return SliceMinScalar(p, n);
  // Materialized slices contain no NaN (nulls are dropped at build time),
  // so min_pd's NaN asymmetry cannot bite; only ±0.0 ties need fixing.
  __m256d acc0 = _mm256_loadu_pd(p);
  __m256d acc1 = _mm256_loadu_pd(p + 4);
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_min_pd(acc0, _mm256_loadu_pd(p + i));
    acc1 = _mm256_min_pd(acc1, _mm256_loadu_pd(p + i + 4));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_min_pd(acc0, acc1));
  double best = lanes[0];
  for (int k = 1; k < 4; ++k) {
    if (lanes[k] < best) best = lanes[k];
  }
  for (; i < n; ++i) {
    if (p[i] < best) best = p[i];
  }
  return best == 0.0 ? FirstZeroOf(p, n, best) : best;
}

__attribute__((target("avx2"))) double SliceMaxAvx2(const double* p,
                                                    size_t n) {
  if (n < 16) return SliceMaxScalar(p, n);
  __m256d acc0 = _mm256_loadu_pd(p);
  __m256d acc1 = _mm256_loadu_pd(p + 4);
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_max_pd(acc0, _mm256_loadu_pd(p + i));
    acc1 = _mm256_max_pd(acc1, _mm256_loadu_pd(p + i + 4));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_max_pd(acc0, acc1));
  double best = lanes[0];
  for (int k = 1; k < 4; ++k) {
    if (lanes[k] > best) best = lanes[k];
  }
  for (; i < n; ++i) {
    if (p[i] > best) best = p[i];
  }
  return best == 0.0 ? FirstZeroOf(p, n, best) : best;
}

#endif  // FEATLIB_HAVE_AVX2_PATH

#if defined(FEATLIB_HAVE_NEON_PATH)

double SliceMinNeon(const double* p, size_t n) {
  if (n < 8) return SliceMinScalar(p, n);
  float64x2_t acc0 = vld1q_f64(p);
  float64x2_t acc1 = vld1q_f64(p + 2);
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    acc0 = vminq_f64(acc0, vld1q_f64(p + i));
    acc1 = vminq_f64(acc1, vld1q_f64(p + i + 2));
  }
  const float64x2_t acc = vminq_f64(acc0, acc1);
  double best = vgetq_lane_f64(acc, 0);
  const double hi = vgetq_lane_f64(acc, 1);
  if (hi < best) best = hi;
  for (; i < n; ++i) {
    if (p[i] < best) best = p[i];
  }
  return best == 0.0 ? FirstZeroOf(p, n, best) : best;
}

double SliceMaxNeon(const double* p, size_t n) {
  if (n < 8) return SliceMaxScalar(p, n);
  float64x2_t acc0 = vld1q_f64(p);
  float64x2_t acc1 = vld1q_f64(p + 2);
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    acc0 = vmaxq_f64(acc0, vld1q_f64(p + i));
    acc1 = vmaxq_f64(acc1, vld1q_f64(p + i + 2));
  }
  const float64x2_t acc = vmaxq_f64(acc0, acc1);
  double best = vgetq_lane_f64(acc, 0);
  const double hi = vgetq_lane_f64(acc, 1);
  if (hi > best) best = hi;
  for (; i < n; ++i) {
    if (p[i] > best) best = p[i];
  }
  return best == 0.0 ? FirstZeroOf(p, n, best) : best;
}

#endif  // FEATLIB_HAVE_NEON_PATH

SliceFn SliceMinFn() {
  static const SliceFn fn = []() -> SliceFn {
    const SimdLevel level = DetectedSimdLevel();
    (void)level;
#if defined(FEATLIB_HAVE_AVX2_PATH)
    if (level == SimdLevel::kAvx2) return &SliceMinAvx2;
#endif
#if defined(FEATLIB_HAVE_NEON_PATH)
    if (level == SimdLevel::kNeon) return &SliceMinNeon;
#endif
    return &SliceMinScalar;
  }();
  return fn;
}

SliceFn SliceMaxFn() {
  static const SliceFn fn = []() -> SliceFn {
    const SimdLevel level = DetectedSimdLevel();
    (void)level;
#if defined(FEATLIB_HAVE_AVX2_PATH)
    if (level == SimdLevel::kAvx2) return &SliceMaxAvx2;
#endif
#if defined(FEATLIB_HAVE_NEON_PATH)
    if (level == SimdLevel::kNeon) return &SliceMaxNeon;
#endif
    return &SliceMaxScalar;
  }();
  return fn;
}

// ---------------------------------------------------------------------------
// Kernel entry points
// ---------------------------------------------------------------------------

void SimdAggregateFromMaterialized(AggFunction fn, const MaterializedValues& m,
                                   size_t g_begin, size_t g_end, double* out) {
  if (fn != AggFunction::kMin && fn != AggFunction::kMax) {
    // All other aggregates are order-sensitive or cold: the shared scalar
    // ComputeAggregate per slice, exactly as the scalar backend does.
    AggregateFromMaterialized(fn, m, g_begin, g_end, out);
    return;
  }
  const SliceFn slice = fn == AggFunction::kMin ? SliceMinFn() : SliceMaxFn();
  const double* flat = m.flat.data();
  for (size_t g = g_begin; g < g_end; ++g) {
    out[g] = m.present[g] == 0
                 ? Nan()
                 : slice(flat + m.offsets[g], m.offsets[g + 1] - m.offsets[g]);
  }
}

// ---------------------------------------------------------------------------
// Predicate-to-mask evaluation (prepare phase)
// ---------------------------------------------------------------------------

/// One conjunct of CompiledFilter::Matches, verbatim.
bool MatchesOne(const CompiledFilter::BoundPredicate& b, size_t row) {
  if (b.column->IsNull(row)) return false;
  if (b.kind == Predicate::Kind::kEquals) {
    if (b.is_string) return b.code >= 0 && b.column->CodeAt(row) == b.code;
    return b.column->AsDouble(row) == b.equals_numeric;
  }
  const double v = b.column->AsDouble(row);
  if (b.has_lo && v < b.lo) return false;
  if (b.has_hi && v > b.hi) return false;
  return true;
}

/// Evaluates one conjunct into the word array per-row: assigns words on the
/// first conjunct, ANDs on the rest. The fallback for column types without
/// a vector path, and the tail-word finisher for the vector builders.
void ScalarPredicateWords(const CompiledFilter::BoundPredicate& b,
                          size_t row_begin, size_t n, uint64_t* words,
                          bool first) {
  const size_t w_begin = row_begin >> 6;
  const size_t n_words = (n + 63) >> 6;
  for (size_t w = w_begin; w < n_words; ++w) {
    const size_t base = w << 6;
    const size_t end = std::min(n, base + 64);
    uint64_t m = 0;
    for (size_t row = base; row < end; ++row) {
      m |= uint64_t{MatchesOne(b, row)} << (row - base);
    }
    if (first) {
      words[w] = m;
    } else {
      words[w] &= m;
    }
  }
}

#if defined(FEATLIB_HAVE_AVX2_PATH)

/// Compare + movemask over a kDouble column: 16 × 4-lane compares fill one
/// 64-row mask word; the validity bytes fold in via cmpeq-with-zero +
/// byte-movemask. Predicates use NLT/NGT unordered compares so the result
/// bit equals the scalar `!(v < lo) && !(v > hi)` for every bit pattern,
/// NaN included.
__attribute__((target("avx2"))) void Avx2DoublePredWords(
    const CompiledFilter::BoundPredicate& b, size_t n, uint64_t* words,
    bool first) {
  const double* vals = b.column->raw_doubles();
  const uint8_t* valid = b.column->raw_validity();
  const bool is_eq = b.kind == Predicate::Kind::kEquals;
  const __m256d lo = _mm256_set1_pd(b.lo);
  const __m256d hi = _mm256_set1_pd(b.hi);
  const __m256d eq = _mm256_set1_pd(b.equals_numeric);
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256i zero = _mm256_setzero_si256();
  const size_t n_full = n >> 6;
  for (size_t w = 0; w < n_full; ++w) {
    const size_t base = w << 6;
    uint64_t m = 0;
    for (size_t k = 0; k < 64; k += 4) {
      const __m256d v = _mm256_loadu_pd(vals + base + k);
      __m256d ok;
      if (is_eq) {
        ok = _mm256_cmp_pd(v, eq, _CMP_EQ_OQ);
      } else {
        ok = all;
        if (b.has_lo) {
          ok = _mm256_and_pd(ok, _mm256_cmp_pd(v, lo, _CMP_NLT_UQ));
        }
        if (b.has_hi) {
          ok = _mm256_and_pd(ok, _mm256_cmp_pd(v, hi, _CMP_NGT_UQ));
        }
      }
      m |= static_cast<uint64_t>(
               static_cast<uint32_t>(_mm256_movemask_pd(ok)))
           << k;
    }
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(valid + base));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(valid + base + 32));
    const uint64_t null_lo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, zero)));
    const uint64_t null_hi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(vb, zero)));
    m &= ~(null_lo | (null_hi << 32));
    if (first) {
      words[w] = m;
    } else {
      words[w] &= m;
    }
  }
  ScalarPredicateWords(b, n_full << 6, n, words, first);
}

/// Exact 4-lane int64 -> double conversion (full 64-bit range). Splits each
/// lane into low-32 and high-32 halves, each biased into the mantissa of a
/// magic-exponent double, and folds the biases out with one subtract and one
/// add; only the final add rounds, so the result equals
/// `static_cast<double>(int64_t)` bit for bit under the default
/// round-to-nearest mode — the bit-identity contract for the int-backed
/// numeric views.
__attribute__((target("avx2"))) inline __m256d Avx2Int64ToDouble(__m256i v) {
  const __m256i magic_lo = _mm256_set1_epi64x(0x4330000000000000);  // 2^52
  const __m256i magic_hi32 =
      _mm256_set1_epi64x(0x4530000080000000);  // 2^84 + 2^63
  const __m256i magic_all =
      _mm256_set1_epi64x(0x4530000080100000);  // 2^84 + 2^63 + 2^52
  const __m256i v_lo = _mm256_blend_epi32(magic_lo, v, 0b01010101);
  __m256i v_hi = _mm256_srli_epi64(v, 32);
  v_hi = _mm256_xor_si256(v_hi, magic_hi32);
  const __m256d hi_dbl = _mm256_sub_pd(_mm256_castsi256_pd(v_hi),
                                       _mm256_castsi256_pd(magic_all));
  return _mm256_add_pd(hi_dbl, _mm256_castsi256_pd(v_lo));
}

/// Compare + movemask over an int64-backed column (kInt64 / kDatetime /
/// kBool): the scalar path compares `static_cast<double>(ints[row])`, so
/// the lanes convert exactly and reuse the double predicates. 16 × 4-lane
/// converts+compares fill one 64-row mask word.
__attribute__((target("avx2"))) void Avx2Int64PredWords(
    const CompiledFilter::BoundPredicate& b, size_t n, uint64_t* words,
    bool first) {
  const int64_t* vals = b.column->raw_ints();
  const uint8_t* valid = b.column->raw_validity();
  const bool is_eq = b.kind == Predicate::Kind::kEquals;
  const __m256d lo = _mm256_set1_pd(b.lo);
  const __m256d hi = _mm256_set1_pd(b.hi);
  const __m256d eq = _mm256_set1_pd(b.equals_numeric);
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256i zero = _mm256_setzero_si256();
  const size_t n_full = n >> 6;
  for (size_t w = 0; w < n_full; ++w) {
    const size_t base = w << 6;
    uint64_t m = 0;
    for (size_t k = 0; k < 64; k += 4) {
      const __m256i raw = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(vals + base + k));
      const __m256d v = Avx2Int64ToDouble(raw);
      __m256d ok;
      if (is_eq) {
        ok = _mm256_cmp_pd(v, eq, _CMP_EQ_OQ);
      } else {
        ok = all;
        if (b.has_lo) {
          ok = _mm256_and_pd(ok, _mm256_cmp_pd(v, lo, _CMP_NLT_UQ));
        }
        if (b.has_hi) {
          ok = _mm256_and_pd(ok, _mm256_cmp_pd(v, hi, _CMP_NGT_UQ));
        }
      }
      m |= static_cast<uint64_t>(
               static_cast<uint32_t>(_mm256_movemask_pd(ok)))
           << k;
    }
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(valid + base));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(valid + base + 32));
    const uint64_t null_lo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, zero)));
    const uint64_t null_hi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(vb, zero)));
    m &= ~(null_lo | (null_hi << 32));
    if (first) {
      words[w] = m;
    } else {
      words[w] &= m;
    }
  }
  ScalarPredicateWords(b, n_full << 6, n, words, first);
}

/// Dictionary-code equality over a kString column: 8 × 8-lane epi32
/// compares per 64-row word.
__attribute__((target("avx2"))) void Avx2CodePredWords(
    const CompiledFilter::BoundPredicate& b, size_t n, uint64_t* words,
    bool first) {
  const int32_t* codes = b.column->raw_codes();
  const uint8_t* valid = b.column->raw_validity();
  const __m256i target = _mm256_set1_epi32(b.code);
  const __m256i zero = _mm256_setzero_si256();
  const size_t n_full = n >> 6;
  for (size_t w = 0; w < n_full; ++w) {
    const size_t base = w << 6;
    uint64_t m = 0;
    for (size_t k = 0; k < 64; k += 8) {
      const __m256i c = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes + base + k));
      const __m256i okm = _mm256_cmpeq_epi32(c, target);
      m |= static_cast<uint64_t>(static_cast<uint32_t>(
               _mm256_movemask_ps(_mm256_castsi256_ps(okm))))
           << k;
    }
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(valid + base));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(valid + base + 32));
    const uint64_t null_lo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, zero)));
    const uint64_t null_hi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(vb, zero)));
    m &= ~(null_lo | (null_hi << 32));
    if (first) {
      words[w] = m;
    } else {
      words[w] &= m;
    }
  }
  ScalarPredicateWords(b, n_full << 6, n, words, first);
}

#endif  // FEATLIB_HAVE_AVX2_PATH

void SimdBuildFilterMask(const CompiledFilter& filter, Bitset* out) {
  const size_t n = filter.num_rows();
  if (n == 0) return;
  uint64_t* words = out->mutable_words();
  const size_t n_words = out->num_words();
  const std::vector<CompiledFilter::BoundPredicate>& bound = filter.bound();
  if (bound.empty()) {
    // No non-trivial conjunct: every row matches.
    std::fill(words, words + n_words, ~uint64_t{0});
    out->ClearTail();
    return;
  }
  const SimdLevel level = DetectedSimdLevel();
  (void)level;
  bool first = true;
  for (const CompiledFilter::BoundPredicate& b : bound) {
    if (b.kind == Predicate::Kind::kEquals && b.is_string && b.code < 0) {
      // Operand absent from the dictionary: the conjunction matches nothing.
      std::fill(words, words + n_words, uint64_t{0});
      return;
    }
#if defined(FEATLIB_HAVE_AVX2_PATH)
    if (level == SimdLevel::kAvx2) {
      if (!b.is_string && b.column->type() == DataType::kDouble) {
        Avx2DoublePredWords(b, n, words, first);
        first = false;
        continue;
      }
      if (!b.is_string && (b.column->type() == DataType::kInt64 ||
                           b.column->type() == DataType::kDatetime ||
                           b.column->type() == DataType::kBool)) {
        Avx2Int64PredWords(b, n, words, first);
        first = false;
        continue;
      }
      if (b.is_string) {
        Avx2CodePredWords(b, n, words, first);
        first = false;
        continue;
      }
    }
#endif
    // Non-AVX2 hosts (and any column type without a vector path) evaluate
    // per row.
    ScalarPredicateWords(b, 0, n, words, first);
    first = false;
  }
  out->ClearTail();
}

}  // namespace

const KernelOps& SimdKernelOps() {
  static const KernelOps ops = {
      /*backend=*/KernelBackend::kSimd,
      /*level=*/DetectedSimdLevel(),
      /*aggregate_streaming=*/&AggregateStreaming<SegmentSpans>,
      /*absorb=*/&AbsorbRows<SegmentSpans>,
      /*aggregate_from_materialized=*/&SimdAggregateFromMaterialized,
      /*tally_materialized=*/&TallyMaterialized<SegmentSpans>,
      /*fill_materialized=*/&FillMaterialized<SegmentSpans>,
      /*build_filter_mask=*/&SimdBuildFilterMask,
  };
  return ops;
}

}  // namespace featlib
