#pragma once
/// \file x86_vec.hpp
/// The x86 vector-op layer (DESIGN.md §13): namespaces avx2 (4 doubles per
/// vector) and avx512 (8) define the same operations, each an always_inline
/// function carrying its tier's target attribute. Every x86 kernel body is
/// written once over these ops, in a `.inc` file with no include guard
/// (elementwise_x86.inc, gemm_x86.inc), and compiled once per tier: each
/// translation unit includes the body inside `namespace <tier> { namespace {
/// … } }` with HYLO_TARGET defined as that tier's attribute. A template
/// cannot do this: it has no per-instantiation target, and an untargeted
/// body cannot inline the tiers' intrinsics. This header is the only
/// per-ISA x86 code; where the two ISAs differ in more than width, the
/// difference is one named op here, never a branch in a body. A body must
/// not take an op's name: inside the tier namespace it would hide every
/// overload of that op.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <initializer_list>

#include "hylo/common/types.hpp"

#define HYLO_AVX2_TARGET __attribute__((target("avx2,fma")))
#define HYLO_AVX512_TARGET __attribute__((target("avx512f,avx512dq")))
#define HYLO_INLINE __attribute__((always_inline)) inline

namespace hylo::kern {

// ---- AVX2 -----------------------------------------------------------------
// Full vectors load and store plainly; a part of w < 4 lanes goes through
// vmaskmovpd.

namespace avx2 {

#define HYLO_OP HYLO_AVX2_TARGET HYLO_INLINE

constexpr int kW = 4;
/// Vector registers (ymm0-15): what a register tile may hold.
constexpr int kRegs = 16;
using Vec = __m256d;
/// A lane predicate: all-ones or all-zero bits per lane.
using Lanes = __m256d;

HYLO_OP Vec zero() { return _mm256_setzero_pd(); }
HYLO_OP Vec set1(real_t x) { return _mm256_set1_pd(x); }
HYLO_OP Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
HYLO_OP Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
HYLO_OP Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
/// a·b + c, a·b − c and −a·b + c, each rounded once.
HYLO_OP Vec fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
HYLO_OP Vec fmsub(Vec a, Vec b, Vec c) { return _mm256_fmsub_pd(a, b, c); }
HYLO_OP Vec fnmadd(Vec a, Vec b, Vec c) { return _mm256_fnmadd_pd(a, b, c); }

HYLO_OP Vec load(const real_t* p) { return _mm256_loadu_pd(p); }
HYLO_OP void store(real_t* p, Vec v) { _mm256_storeu_pd(p, v); }

/// Lanes [0, w) as 64-bit all-ones, the rest zero (w in [0, 4]).
HYLO_OP __m256i first_lanes(index_t w) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(w),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// The w lanes at p, +0.0 in the rest; only those lanes are read.
HYLO_OP Vec load(const real_t* p, index_t w) {
  return w >= kW ? load(p) : _mm256_maskload_pd(p, first_lanes(w));
}

/// Writes the first w lanes of v to p.
HYLO_OP void store(real_t* p, index_t w, Vec v) {
  if (w >= kW)
    store(p, v);
  else
    _mm256_maskstore_pd(p, first_lanes(w), v);
}

/// NR-wide B row from two half-rows: lanes [0, 2) at lo, [2, 4) at hi.
HYLO_OP Vec load_halves(const real_t* lo, const real_t* hi) {
  return _mm256_loadu2_m128d(hi, lo);
}

/// Lane l of src[(off + l)·ps] for l in [lo, hi), +0.0 elsewhere; reads
/// only those lanes. A full contiguous vector loads plainly, anything else
/// gathers.
HYLO_OP Vec load_strided(const real_t* src, index_t off, index_t lo,
                         index_t hi, index_t ps) {
  if (ps == 1 && lo == 0 && hi == kW) return load(src + off);
  const __m256i step = _mm256_setr_epi64x(0, ps, 2 * ps, 3 * ps);
  const __m256i m = _mm256_andnot_si256(first_lanes(lo), first_lanes(hi));
  return _mm256_mask_i64gather_pd(
      zero(), src, _mm256_add_epi64(_mm256_set1_epi64x(off * ps), step),
      _mm256_castsi256_pd(m), 8);
}

/// y > 0 ? y : +0.0, NaN to +0.0 (vmaxpd returns its second operand unless
/// the first is greater).
HYLO_OP Vec relu(Vec y) { return _mm256_max_pd(y, zero()); }

/// The lanes where x > 0, ordered: a NaN lane is not set.
HYLO_OP Lanes positive(Vec x) { return _mm256_cmp_pd(x, zero(), _CMP_GT_OQ); }

/// x > 0 ? 0.0 + v : +0.0; +0.0 is all-zero bits, so the masked-off lanes
/// are an and.
HYLO_OP Vec pass_positive(Vec v, Vec x) {
  return _mm256_and_pd(add(zero(), v), positive(x));
}

/// Lane l set when bit l of `bits` is.
HYLO_OP Lanes lane_mask(unsigned bits) {
  const __m256i b = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i m =
      _mm256_and_si256(_mm256_set1_epi64x(static_cast<long long>(bits)), b);
  return _mm256_castsi256_pd(_mm256_cmpeq_epi64(m, b));
}

/// a + b on the lanes of m; the others keep a's exact bits.
HYLO_OP Vec add_masked(Vec a, Lanes m, Vec b) {
  return _mm256_blendv_pd(a, add(a, b), m);
}

/// In-register 4x4 transpose, r[l][t] -> r[t][l].
HYLO_OP void transpose_regs(Vec (&r)[kW]) {
  const Vec t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const Vec t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const Vec t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const Vec t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Rows k and k + 2 of a half block side by side: lanes [0, 2) the first w
/// values at lo, lanes [2, 4) those at hi, +0.0 past w and for a null row
/// (hi is null whenever lo is).
HYLO_OP Vec load_pair(const real_t* lo, const real_t* hi, index_t w) {
  if (hi == nullptr) return lo != nullptr ? load(lo, w) : zero();
  if (w == kW / 2) return load_halves(lo, hi);
  const __m128i m = _mm_cmpgt_epi64(_mm_set1_epi64x(w), _mm_set_epi64x(1, 0));
  return _mm256_set_m128d(_mm_maskload_pd(hi, m), _mm_maskload_pd(lo, m));
}

/// The transpose of a half block held as load_pair rows (z[k] = rows k and
/// k + 2): z[t] becomes position t's vector over the four rows, t < 2.
HYLO_OP void transpose_pairs(Vec (&z)[kW / 2]) {
  const Vec t0 = _mm256_unpacklo_pd(z[0], z[1]);
  z[1] = _mm256_unpackhi_pd(z[0], z[1]);
  z[0] = t0;
}

#undef HYLO_OP

}  // namespace avx2

// ---- AVX-512 --------------------------------------------------------------
// A part of a vector is a mask register. max, unpack, the 128-bit shuffle
// and the 256-bit insert and extract use their masked forms: the unmasked
// intrinsics are built on _mm512_undefined_pd(), which GCC 12 warns about.

namespace avx512 {

#define HYLO_OP HYLO_AVX512_TARGET HYLO_INLINE

constexpr int kW = 8;
/// Vector registers (zmm0-31).
constexpr int kRegs = 32;
using Vec = __m512d;
/// A lane predicate: one mask bit per lane.
using Lanes = __mmask8;

HYLO_OP Vec zero() { return _mm512_setzero_pd(); }
HYLO_OP Vec set1(real_t x) { return _mm512_set1_pd(x); }
HYLO_OP Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
HYLO_OP Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
HYLO_OP Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
HYLO_OP Vec fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }
HYLO_OP Vec fmsub(Vec a, Vec b, Vec c) { return _mm512_fmsub_pd(a, b, c); }
HYLO_OP Vec fnmadd(Vec a, Vec b, Vec c) { return _mm512_fnmadd_pd(a, b, c); }

HYLO_OP Vec load(const real_t* p) { return _mm512_loadu_pd(p); }
HYLO_OP void store(real_t* p, Vec v) { _mm512_storeu_pd(p, v); }

/// Lanes [0, w) (w in [0, 8]).
HYLO_OP Lanes first_lanes(index_t w) {
  return static_cast<Lanes>((1u << w) - 1u);
}

HYLO_OP Vec load(const real_t* p, index_t w) {
  return _mm512_maskz_loadu_pd(first_lanes(w), p);
}

HYLO_OP void store(real_t* p, index_t w, Vec v) {
  _mm512_mask_storeu_pd(p, first_lanes(w), v);
}

HYLO_OP Vec load_halves(const real_t* lo, const real_t* hi) {
  const Vec v = _mm512_castpd256_pd512(_mm256_loadu_pd(lo));
  return _mm512_mask_insertf64x4(v, 0xF0, v, _mm256_loadu_pd(hi), 1);
}

/// Stride 1 expands the contiguous run into lanes [lo, hi); other strides
/// gather them.
HYLO_OP Vec load_strided(const real_t* src, index_t off, index_t lo,
                         index_t hi, index_t ps) {
  const auto m = static_cast<Lanes>(first_lanes(hi) & ~first_lanes(lo));
  if (ps == 1) return _mm512_maskz_expandloadu_pd(m, src + off + lo);
  const __m512i step = _mm512_setr_epi64(0, ps, 2 * ps, 3 * ps, 4 * ps,
                                         5 * ps, 6 * ps, 7 * ps);
  return _mm512_mask_i64gather_pd(
      zero(), m, _mm512_add_epi64(_mm512_set1_epi64(off * ps), step), src,
      8);
}

HYLO_OP Vec relu(Vec y) { return _mm512_maskz_max_pd(0xFF, y, zero()); }

HYLO_OP Lanes positive(Vec x) {
  return _mm512_cmp_pd_mask(x, zero(), _CMP_GT_OQ);
}

HYLO_OP Vec pass_positive(Vec v, Vec x) {
  return _mm512_maskz_add_pd(positive(x), zero(), v);
}

HYLO_OP Lanes lane_mask(unsigned bits) { return static_cast<Lanes>(bits); }

HYLO_OP Vec add_masked(Vec a, Lanes m, Vec b) {
  return _mm512_mask_add_pd(a, m, a, b);
}

/// In-register 8x8 transpose, r[l][t] -> r[t][l], in three rounds that pair
/// rows 1, 2, then 4 apart: unpack, two-source permute, 128-bit shuffle.
/// Only the middle round needs index vectors.
HYLO_OP void transpose_regs(Vec (&r)[kW]) {
  const __m512i lo2 = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i hi2 = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  Vec t[kW];
#pragma GCC unroll 4
  for (int k = 0; k < kW; k += 2) {
    t[k] = _mm512_maskz_unpacklo_pd(0xFF, r[k], r[k + 1]);
    t[k + 1] = _mm512_maskz_unpackhi_pd(0xFF, r[k], r[k + 1]);
  }
#pragma GCC unroll 4
  for (int k : {0, 1, 4, 5}) {
    r[k] = _mm512_permutex2var_pd(t[k], lo2, t[k + 2]);
    r[k + 2] = _mm512_permutex2var_pd(t[k], hi2, t[k + 2]);
  }
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    t[k] = _mm512_maskz_shuffle_f64x2(0xFF, r[k], r[k + 4], 0x44);
    t[k + 4] = _mm512_maskz_shuffle_f64x2(0xFF, r[k], r[k + 4], 0xEE);
  }
#pragma GCC unroll 8
  for (int k = 0; k < kW; ++k) r[k] = t[k];
}

/// Rows k and k + 4 of a half block side by side: lanes [0, 4) the first w
/// values at lo, lanes [4, 8) those at hi, +0.0 past w and for a null row
/// (hi is null whenever lo is). A whole pair is one load and one insert
/// from memory.
HYLO_OP Vec load_pair(const real_t* lo, const real_t* hi, index_t w) {
  if (hi == nullptr) return lo != nullptr ? load(lo, w) : zero();
  if (w == kW / 2) return load_halves(lo, hi);
  const Vec l = load(lo, w);
  return _mm512_mask_insertf64x4(
      l, 0xF0, l, _mm512_maskz_extractf64x4_pd(0xF, load(hi, w), 0), 1);
}

/// The transpose of a half block held as load_pair rows (z[k] = rows k and
/// k + 4): z[t] becomes position t's vector over the eight rows, t < 4,
/// with transpose_regs' middle round.
HYLO_OP void transpose_pairs(Vec (&z)[kW / 2]) {
  const __m512i lo2 = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i hi2 = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  const Vec t0 = _mm512_maskz_unpacklo_pd(0xFF, z[0], z[1]);
  const Vec t1 = _mm512_maskz_unpackhi_pd(0xFF, z[0], z[1]);
  const Vec t2 = _mm512_maskz_unpacklo_pd(0xFF, z[2], z[3]);
  const Vec t3 = _mm512_maskz_unpackhi_pd(0xFF, z[2], z[3]);
  z[0] = _mm512_permutex2var_pd(t0, lo2, t2);
  z[1] = _mm512_permutex2var_pd(t1, lo2, t3);
  z[2] = _mm512_permutex2var_pd(t0, hi2, t2);
  z[3] = _mm512_permutex2var_pd(t1, hi2, t3);
}

#undef HYLO_OP

}  // namespace avx512

}  // namespace hylo::kern

#endif  // x86
