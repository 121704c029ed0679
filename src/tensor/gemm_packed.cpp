#include "hylo/tensor/gemm_packed.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/par/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace hylo::kern {

namespace {

// Cache blocking: KC-deep panels keep one MRxKC A panel (16 KB at MR=8)
// plus one KCxNR B panel (8-16 KB) L1-resident under the microkernel while
// the MCxKC A block stays in L2. Both are multiples of every tier's MR/NR.
constexpr index_t kKC = 256;
constexpr index_t kMC = 64;
constexpr index_t kMaxMR = 8;
constexpr index_t kMaxNR = 8;

/// C-tile (MR x NR at stride ldc) += Apanel · Bpanel over kc steps.
/// Apanel is MR-interleaved (ap[kk*MR + r]), Bpanel NR-interleaved
/// (bp[kk*NR + c]); the k loop is innermost, so each C element accumulates
/// in strictly ascending k order — the per-tier determinism anchor.
using MicroFn = void (*)(index_t kc, const real_t* ap, const real_t* bp,
                         real_t* c, index_t ldc);

// ---- Microkernel operand sources ---------------------------------------
// Each tier has one fma chain, fma_chain_<tier>: for k ascending it loads the
// NR-wide B row b(k), broadcasts a(k, r) for the MR rows and fmas them into
// the MR accumulators. The sources only say where those operands live, so
// every instantiation gives each C element the same chain.

/// A from an MR-interleaved packed panel: a(k, r) = ap[k·MR + r].
struct PanelA {
  const real_t* ap;
  real_t operator()(index_t k, int r) const { return ap[k * kMaxMR + r]; }
};

/// A read in place from a padded sample (direct wgrad, k = output position,
/// r = patch coordinate): a(k, r) = xp[pos[k] + joff[r]].
struct SampleA {
  const real_t* xp;
  const index_t* pos;
  const index_t* joff;
  real_t operator()(index_t k, int r) const { return xp[pos[k] + joff[r]]; }
};

/// B row k at p + k·ld (a packed panel has ld = NR).
struct RowsB {
  const real_t* p;
  index_t ld;
  const real_t* operator()(index_t k) const { return p + k * ld; }
};

/// B row k at row + off[k] (direct forward: NR consecutive output columns of
/// patch coordinate k, read in place from the padded sample).
struct OffsetB {
  const real_t* row;
  const index_t* off;
  const real_t* operator()(index_t k) const { return row + off[k]; }
};

/// One tap of a direct dgrad tile: ap holds W[o, c0 + r, ky, kx] as an
/// MR-interleaved panel over o, b is gout's zero-margined row at the tap's
/// shift (row o at b + o·ostride), and `mask` has bit l set when lane l's
/// (oy, ox) lies inside gout.
struct DgradTap {
  const real_t* ap;
  const real_t* b;
  unsigned mask;
};

/// Direct conv kernels of one tier (DESIGN.md §13): C (MR x NR at ldc) +=
/// the chain over kc steps with the named sources, and the dgrad tile, which
/// adds each tap's chain from +0.0 into the gin tile under the tap's mask.
using ConvFwdFn = void (*)(index_t kc, const real_t* ap, const real_t* row,
                           const index_t* off, real_t* c, index_t ldc);
using ConvWgradFn = void (*)(index_t kc, const real_t* xp, const index_t* pos,
                             const index_t* joff, const real_t* bp,
                             index_t ldb, real_t* c, index_t ldc);
using ConvDgradFn = void (*)(index_t c_out, index_t ostride,
                             const DgradTap* taps, index_t ntaps, real_t* gin,
                             index_t ldg);

#if defined(__x86_64__) || defined(__i386__)

template <typename ASrc, typename BSrc>
__attribute__((target("avx2,fma"), always_inline)) inline void fma_chain_avx2(
    index_t kc, const ASrc& a, const BSrc& b, __m256d (&c)[8]) {
  for (index_t k = 0; k < kc; ++k) {
    const __m256d bv = _mm256_loadu_pd(b(k));
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r)
      c[r] = _mm256_fmadd_pd(_mm256_set1_pd(a(k, r)), bv, c[r]);
  }
}

template <typename ASrc, typename BSrc>
__attribute__((target("avx2,fma"), always_inline)) inline void tile_avx2(
    index_t kc, const ASrc& a, const BSrc& b, real_t* c, index_t ldc) {
  __m256d acc[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) acc[r] = _mm256_loadu_pd(c + r * ldc);
  fma_chain_avx2(kc, a, b, acc);
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) _mm256_storeu_pd(c + r * ldc, acc[r]);
}

__attribute__((target("avx2,fma"))) void micro_avx2_8x4(index_t kc,
                                                        const real_t* ap,
                                                        const real_t* bp,
                                                        real_t* c,
                                                        index_t ldc) {
  tile_avx2(kc, PanelA{ap}, RowsB{bp, 4}, c, ldc);
}

__attribute__((target("avx2,fma"))) void conv_fwd_avx2(
    index_t kc, const real_t* ap, const real_t* row, const index_t* off,
    real_t* c, index_t ldc) {
  tile_avx2(kc, PanelA{ap}, OffsetB{row, off}, c, ldc);
}

__attribute__((target("avx2,fma"))) void conv_wgrad_avx2(
    index_t kc, const real_t* xp, const index_t* pos, const index_t* joff,
    const real_t* bp, index_t ldb, real_t* c, index_t ldc) {
  tile_avx2(kc, SampleA{xp, pos, joff}, RowsB{bp, ldb}, c, ldc);
}

__attribute__((target("avx2,fma"))) void conv_dgrad_avx2(
    index_t c_out, index_t ostride, const DgradTap* taps, index_t ntaps,
    real_t* gin, index_t ldg) {
  const __m256i bits = _mm256_setr_epi64x(1, 2, 4, 8);
  __m256d g[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) g[r] = _mm256_loadu_pd(gin + r * ldg);
  for (index_t t = 0; t < ntaps; ++t) {
    __m256d d[8];
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) d[r] = _mm256_setzero_pd();
    fma_chain_avx2(c_out, PanelA{taps[t].ap}, RowsB{taps[t].b, ostride}, d);
    const __m256i m = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<long long>(taps[t].mask)), bits);
    const __m256d lanes = _mm256_castsi256_pd(_mm256_cmpeq_epi64(m, bits));
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r)
      g[r] = _mm256_blendv_pd(g[r], _mm256_add_pd(g[r], d[r]), lanes);
  }
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) _mm256_storeu_pd(gin + r * ldg, g[r]);
}

template <typename ASrc, typename BSrc>
__attribute__((target("avx512f"), always_inline)) inline void fma_chain_avx512(
    index_t kc, const ASrc& a, const BSrc& b, __m512d (&c)[8]) {
  for (index_t k = 0; k < kc; ++k) {
    const __m512d bv = _mm512_loadu_pd(b(k));
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r)
      c[r] = _mm512_fmadd_pd(_mm512_set1_pd(a(k, r)), bv, c[r]);
  }
}

template <typename ASrc, typename BSrc>
__attribute__((target("avx512f"), always_inline)) inline void tile_avx512(
    index_t kc, const ASrc& a, const BSrc& b, real_t* c, index_t ldc) {
  __m512d acc[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) acc[r] = _mm512_loadu_pd(c + r * ldc);
  fma_chain_avx512(kc, a, b, acc);
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) _mm512_storeu_pd(c + r * ldc, acc[r]);
}

__attribute__((target("avx512f,avx512dq"))) void micro_avx512_8x8(
    index_t kc, const real_t* ap, const real_t* bp, real_t* c, index_t ldc) {
  tile_avx512(kc, PanelA{ap}, RowsB{bp, 8}, c, ldc);
}

__attribute__((target("avx512f,avx512dq"))) void conv_fwd_avx512(
    index_t kc, const real_t* ap, const real_t* row, const index_t* off,
    real_t* c, index_t ldc) {
  tile_avx512(kc, PanelA{ap}, OffsetB{row, off}, c, ldc);
}

__attribute__((target("avx512f,avx512dq"))) void conv_wgrad_avx512(
    index_t kc, const real_t* xp, const index_t* pos, const index_t* joff,
    const real_t* bp, index_t ldb, real_t* c, index_t ldc) {
  tile_avx512(kc, SampleA{xp, pos, joff}, RowsB{bp, ldb}, c, ldc);
}

__attribute__((target("avx512f,avx512dq"))) void conv_dgrad_avx512(
    index_t c_out, index_t ostride, const DgradTap* taps, index_t ntaps,
    real_t* gin, index_t ldg) {
  __m512d g[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) g[r] = _mm512_loadu_pd(gin + r * ldg);
  for (index_t t = 0; t < ntaps; ++t) {
    __m512d d[8];
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) d[r] = _mm512_setzero_pd();
    fma_chain_avx512(c_out, PanelA{taps[t].ap}, RowsB{taps[t].b, ostride},
                     d);
    const __mmask8 m = static_cast<__mmask8>(taps[t].mask);
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) g[r] = _mm512_mask_add_pd(g[r], m, g[r], d[r]);
  }
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) _mm512_storeu_pd(gin + r * ldg, g[r]);
}

__attribute__((target("avx2"))) void vmul_avx2(real_t* a, const real_t* b,
                                               index_t n) {
  index_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(a + i,
                     _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) a[i] *= b[i];
}

__attribute__((target("avx512f"))) void vmul_avx512(real_t* a, const real_t* b,
                                                    index_t n) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(a + i,
                     _mm512_mul_pd(_mm512_loadu_pd(a + i),
                                   _mm512_loadu_pd(b + i)));
  for (; i < n; ++i) a[i] *= b[i];
}

__attribute__((target("avx2"))) void vscale_avx2(real_t* dst,
                                                 const real_t* src, real_t s,
                                                 index_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  index_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(sv, _mm256_loadu_pd(src + i)));
  for (; i < n; ++i) dst[i] = s * src[i];
}

__attribute__((target("avx512f"))) void vscale_avx512(real_t* dst,
                                                      const real_t* src,
                                                      real_t s, index_t n) {
  const __m512d sv = _mm512_set1_pd(s);
  index_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(dst + i, _mm512_mul_pd(sv, _mm512_loadu_pd(src + i)));
  for (; i < n; ++i) dst[i] = s * src[i];
}

// acc[i] += g[i] where x[i] > 0: the sum is blended in only on those lanes,
// so the others keep their exact bits (-0.0 included). An ordered compare
// leaves NaN lanes untouched, as the scalar `if` does.
__attribute__((target("avx2"))) void vadd_where_positive_avx2(
    real_t* acc, const real_t* g, const real_t* x, index_t n) {
  const __m256d zero = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(acc + i);
    const __m256d sum = _mm256_add_pd(a, _mm256_loadu_pd(g + i));
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_pd(acc + i, _mm256_blendv_pd(a, sum, mask));
  }
  for (; i < n; ++i)
    if (x[i] > 0.0) acc[i] += g[i];
}

__attribute__((target("avx512f"))) void vadd_where_positive_avx512(
    real_t* acc, const real_t* g, const real_t* x, index_t n) {
  const __m512d zero = _mm512_setzero_pd();
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d a = _mm512_loadu_pd(acc + i);
    const __mmask8 mask =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(x + i), zero, _CMP_GT_OQ);
    _mm512_storeu_pd(acc + i,
                     _mm512_mask_add_pd(a, mask, a, _mm512_loadu_pd(g + i)));
  }
  for (; i < n; ++i)
    if (x[i] > 0.0) acc[i] += g[i];
}

// Lane-partial dot products: 4/8 running lane sums folded pairwise at the
// end, plus a scalar tail — a fixed reduction tree, deterministic within
// the tier (reassociated relative to the scalar ascending loop).
__attribute__((target("avx2,fma"))) real_t vdot_avx2(const real_t* a,
                                                     const real_t* b,
                                                     index_t n) {
  __m256d acc = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  alignas(32) real_t lanes[4];
  _mm256_storeu_pd(lanes, acc);
  real_t out = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

__attribute__((target("avx512f"))) real_t vdot_avx512(const real_t* a,
                                                      const real_t* b,
                                                      index_t n) {
  __m512d acc = _mm512_setzero_pd();
  index_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i), acc);
  alignas(64) real_t lanes[8];
  _mm512_storeu_pd(lanes, acc);
  real_t out = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
               ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

#endif  // x86

#if defined(__aarch64__)

void micro_neon_8x4(index_t kc, const real_t* ap, const real_t* bp, real_t* c,
                    index_t ldc) {
  float64x2_t c0a = vld1q_f64(c + 0 * ldc), c0b = vld1q_f64(c + 0 * ldc + 2);
  float64x2_t c1a = vld1q_f64(c + 1 * ldc), c1b = vld1q_f64(c + 1 * ldc + 2);
  float64x2_t c2a = vld1q_f64(c + 2 * ldc), c2b = vld1q_f64(c + 2 * ldc + 2);
  float64x2_t c3a = vld1q_f64(c + 3 * ldc), c3b = vld1q_f64(c + 3 * ldc + 2);
  float64x2_t c4a = vld1q_f64(c + 4 * ldc), c4b = vld1q_f64(c + 4 * ldc + 2);
  float64x2_t c5a = vld1q_f64(c + 5 * ldc), c5b = vld1q_f64(c + 5 * ldc + 2);
  float64x2_t c6a = vld1q_f64(c + 6 * ldc), c6b = vld1q_f64(c + 6 * ldc + 2);
  float64x2_t c7a = vld1q_f64(c + 7 * ldc), c7b = vld1q_f64(c + 7 * ldc + 2);
  for (index_t k = 0; k < kc; ++k) {
    const float64x2_t blo = vld1q_f64(bp + k * 4);
    const float64x2_t bhi = vld1q_f64(bp + k * 4 + 2);
    const real_t* a = ap + k * 8;
    c0a = vfmaq_n_f64(c0a, blo, a[0]);
    c0b = vfmaq_n_f64(c0b, bhi, a[0]);
    c1a = vfmaq_n_f64(c1a, blo, a[1]);
    c1b = vfmaq_n_f64(c1b, bhi, a[1]);
    c2a = vfmaq_n_f64(c2a, blo, a[2]);
    c2b = vfmaq_n_f64(c2b, bhi, a[2]);
    c3a = vfmaq_n_f64(c3a, blo, a[3]);
    c3b = vfmaq_n_f64(c3b, bhi, a[3]);
    c4a = vfmaq_n_f64(c4a, blo, a[4]);
    c4b = vfmaq_n_f64(c4b, bhi, a[4]);
    c5a = vfmaq_n_f64(c5a, blo, a[5]);
    c5b = vfmaq_n_f64(c5b, bhi, a[5]);
    c6a = vfmaq_n_f64(c6a, blo, a[6]);
    c6b = vfmaq_n_f64(c6b, bhi, a[6]);
    c7a = vfmaq_n_f64(c7a, blo, a[7]);
    c7b = vfmaq_n_f64(c7b, bhi, a[7]);
  }
  vst1q_f64(c + 0 * ldc, c0a);
  vst1q_f64(c + 0 * ldc + 2, c0b);
  vst1q_f64(c + 1 * ldc, c1a);
  vst1q_f64(c + 1 * ldc + 2, c1b);
  vst1q_f64(c + 2 * ldc, c2a);
  vst1q_f64(c + 2 * ldc + 2, c2b);
  vst1q_f64(c + 3 * ldc, c3a);
  vst1q_f64(c + 3 * ldc + 2, c3b);
  vst1q_f64(c + 4 * ldc, c4a);
  vst1q_f64(c + 4 * ldc + 2, c4b);
  vst1q_f64(c + 5 * ldc, c5a);
  vst1q_f64(c + 5 * ldc + 2, c5b);
  vst1q_f64(c + 6 * ldc, c6a);
  vst1q_f64(c + 6 * ldc + 2, c6b);
  vst1q_f64(c + 7 * ldc, c7a);
  vst1q_f64(c + 7 * ldc + 2, c7b);
}

void vmul_neon(real_t* a, const real_t* b, index_t n) {
  index_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(a + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) a[i] *= b[i];
}

void vscale_neon(real_t* dst, const real_t* src, real_t s, index_t n) {
  index_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(dst + i, vmulq_n_f64(vld1q_f64(src + i), s));
  for (; i < n; ++i) dst[i] = s * src[i];
}

void vadd_where_positive_neon(real_t* acc, const real_t* g, const real_t* x,
                              index_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t a = vld1q_f64(acc + i);
    const uint64x2_t mask = vcgtq_f64(vld1q_f64(x + i), zero);
    vst1q_f64(acc + i, vbslq_f64(mask, vaddq_f64(a, vld1q_f64(g + i)), a));
  }
  for (; i < n; ++i)
    if (x[i] > 0.0) acc[i] += g[i];
}

real_t vdot_neon(const real_t* a, const real_t* b, index_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  index_t i = 0;
  for (; i + 2 <= n; i += 2)
    acc = vfmaq_f64(acc, vld1q_f64(a + i), vld1q_f64(b + i));
  real_t out = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

#endif  // aarch64

struct TierCfg {
  index_t mr = 0;
  index_t nr = 0;
  MicroFn micro = nullptr;
  // Direct stride-1 conv kernels; null where the tier has none (NEON), which
  // keeps every conv on the packed passes.
  ConvFwdFn conv_fwd = nullptr;
  ConvWgradFn conv_wgrad = nullptr;
  ConvDgradFn conv_dgrad = nullptr;
};

TierCfg tier_cfg(Tier t) {
  switch (t) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx2:
      return {8, 4, micro_avx2_8x4, conv_fwd_avx2, conv_wgrad_avx2,
              conv_dgrad_avx2};
    case Tier::kAvx512:
      return {8, 8, micro_avx512_8x8, conv_fwd_avx512, conv_wgrad_avx512,
              conv_dgrad_avx512};
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      return {8, 4, micro_neon_8x4};
#endif
    default:
      break;
  }
  HYLO_CHECK(false, "packed GEMM requires a SIMD kernel tier (active: "
                        << tier_name(t) << ")");
  return {};  // unreachable
}

/// Per-thread pack scratch, indexed so that buffers alive at the same time
/// on one thread never alias: 0 = caller-side B pack, 1 = chunk-side A
/// pack; inside conv's parallel chunks, which never run a packed_gemm_* of
/// their own, 2 = packed conv's B pack, direct wgrad's goutᵀ or direct
/// dgrad's zero-margined gout, 3 = packed wgrad's A pack, packed dgrad's
/// dcolsᵀ or direct wgrad's gwᵀ, 4 = the zero-padded sample.
std::vector<real_t>& tl_scratch(int which) {
  static thread_local std::vector<real_t> bufs[5];
  return bufs[which];
}

/// Pack rows [i0, i0+mc) x [k0, k0+kc) of a logical operand into MR-tall
/// panels: dst[panel][kk*mr + r]. Rows past the operand (padding to MR) are
/// zero-filled so the microkernel can always run full-height.
template <typename SrcA>
void pack_a(real_t* dst, index_t i0, index_t mc, index_t k0, index_t kc,
            index_t mr, const SrcA& src) {
  index_t off = 0;
  for (index_t p = 0; p < mc; p += mr) {
    const index_t rows = std::min(mr, mc - p);
    for (index_t r = 0; r < mr; ++r) {
      real_t* out = dst + off + r;
      if (r < rows) {
        const index_t i = i0 + p + r;
        for (index_t kk = 0; kk < kc; ++kk) out[kk * mr] = src(i, k0 + kk);
      } else {
        for (index_t kk = 0; kk < kc; ++kk) out[kk * mr] = 0.0;
      }
    }
    off += kc * mr;
  }
}

/// Pack [k0, k0+kc) x [0, n) of a logical operand into NR-wide panels:
/// dst[panel][kk*nr + c], padding lanes zero-filled.
template <typename SrcB>
void pack_b(real_t* dst, index_t k0, index_t kc, index_t n, index_t nr,
            const SrcB& src) {
  index_t off = 0;
  for (index_t j0 = 0; j0 < n; j0 += nr) {
    const index_t jw = std::min(nr, n - j0);
    for (index_t kk = 0; kk < kc; ++kk) {
      real_t* out = dst + off + kk * nr;
      for (index_t l = 0; l < jw; ++l) out[l] = src(k0 + kk, j0 + l);
      for (index_t l = jw; l < nr; ++l) out[l] = 0.0;
    }
    off += kc * nr;
  }
}

/// Edge tile: run `kernel(tile, ld)` on a copy-in/copy-out scratch tile so
/// the per-element fma chain is identical to a full tile's, then write back
/// only the `rows` x `cols` valid region.
template <typename Kernel>
void edge_tile(const TierCfg& cfg, real_t* c, index_t ldc, index_t rows,
               index_t cols, const Kernel& kernel) {
  real_t tmp[kMaxMR * kMaxNR];
  std::fill(tmp, tmp + cfg.mr * cfg.nr, 0.0);
  for (index_t r = 0; r < rows; ++r)
    for (index_t l = 0; l < cols; ++l) tmp[r * cfg.nr + l] = c[r * ldc + l];
  kernel(tmp, cfg.nr);
  for (index_t r = 0; r < rows; ++r)
    for (index_t l = 0; l < cols; ++l) c[r * ldc + l] = tmp[r * cfg.nr + l];
}

void micro_edge(const TierCfg& cfg, index_t kc, const real_t* ap,
                const real_t* bp, real_t* c, index_t ldc, index_t rows,
                index_t cols) {
  edge_tile(cfg, c, ldc, rows, cols, [&](real_t* t, index_t ld) {
    cfg.micro(kc, ap, bp, t, ld);
  });
}

/// Which triangle a symmetric tile sweep (sym_tiles) writes: the upper one,
/// mirrored into the lower once accumulated (the Gram products), or the lower
/// one alone, in place (the Cholesky trailing update).
enum class Tri { kUpperMirrored, kLower };

/// Whether global element (i, j) lies in the swept triangle, diagonal
/// included.
bool in_tri(Tri tri, index_t i, index_t j) {
  return tri == Tri::kLower ? j <= i : j >= i;
}

/// Diagonal-straddling tiles of a symmetric sweep: like micro_edge, but only
/// elements of the swept triangle (the declared footprint) are copied in and
/// written back.
void micro_edge_tri(const TierCfg& cfg, index_t kc, const real_t* ap,
                    const real_t* bp, real_t* c, index_t ldc, index_t rows,
                    index_t cols, index_t i, index_t j0, Tri tri) {
  real_t tmp[kMaxMR * kMaxNR];
  std::fill(tmp, tmp + cfg.mr * cfg.nr, 0.0);
  for (index_t r = 0; r < rows; ++r)
    for (index_t l = 0; l < cols; ++l)
      if (in_tri(tri, i + r, j0 + l)) tmp[r * cfg.nr + l] = c[r * ldc + l];
  cfg.micro(kc, ap, bp, tmp, cfg.nr);
  for (index_t r = 0; r < rows; ++r)
    for (index_t l = 0; l < cols; ++l)
      if (in_tri(tri, i + r, j0 + l)) c[r * ldc + l] = tmp[r * cfg.nr + l];
}

/// Shared driver: C += srcA · srcB with C m x n, inner dimension k. B is
/// packed once on the calling thread; rows of C are partitioned through
/// hylo::par with an MR-aligned grain, each chunk packing its own A blocks.
template <typename SrcA, typename SrcB>
void gemm_driver(index_t m, index_t n, index_t k, const SrcA& srcA,
                 const SrcB& srcB, Matrix& c, const char* label) {
  if (m == 0 || n == 0 || k == 0) return;
  const TierCfg cfg = tier_cfg(active());
  const index_t mr = cfg.mr, nr = cfg.nr;
  const index_t npanels = (n + nr - 1) / nr;

  std::vector<real_t>& bpack = tl_scratch(0);
  bpack.resize(static_cast<std::size_t>(k * npanels * nr));
  for (index_t k0 = 0; k0 < k; k0 += kKC) {
    const index_t kc = std::min(kKC, k - k0);
    pack_b(bpack.data() + k0 * npanels * nr, k0, kc, n, nr, srcB);
  }
  const real_t* bp_all = bpack.data();
  const index_t ldc = c.cols();
  real_t* cp = c.data();

  par::parallel_for(
      0, m, mr,
      [&](index_t i0, index_t i1) {
        std::vector<real_t>& apack = tl_scratch(1);
        // pack_a pads the row count up to a whole number of MR panels.
        const index_t mc_pad =
            ((std::min(kMC, i1 - i0) + mr - 1) / mr) * mr;
        apack.resize(static_cast<std::size_t>(mc_pad * std::min(kKC, k)));
        for (index_t k0 = 0; k0 < k; k0 += kKC) {
          const index_t kc = std::min(kKC, k - k0);
          const real_t* bblk = bp_all + k0 * npanels * nr;
          for (index_t ic = i0; ic < i1; ic += kMC) {
            const index_t mc = std::min(kMC, i1 - ic);
            pack_a(apack.data(), ic, mc, k0, kc, mr, srcA);
            for (index_t p = 0; p < mc; p += mr) {
              const real_t* ap = apack.data() + (p / mr) * kc * mr;
              const index_t rows = std::min(mr, mc - p);
              real_t* crow = cp + (ic + p) * ldc;
              for (index_t q = 0; q < npanels; ++q) {
                const real_t* bpan = bblk + q * kc * nr;
                const index_t j0 = q * nr;
                const index_t jw = std::min(nr, n - j0);
                if (rows == mr && jw == nr)
                  cfg.micro(kc, ap, bpan, crow + j0, ldc);
                else
                  micro_edge(cfg, kc, ap, bpan, crow + j0, ldc, rows, jw);
              }
            }
          }
        }
      },
      label, audit::row_block(c));
}

/// The triangle tile loop shared by gram_nt, gram_tn and the trailing
/// update: one triangle (diagonal included) of the square block
/// c[off:, off:] += srcA · srcB, inner dimension k (the mirrored upper sweep
/// is only used with off == 0). B is packed once on the calling
/// thread; rows are partitioned with an MR-aligned grain. Tiles wholly
/// outside the triangle are skipped and straddling tiles go through
/// micro_edge_tri, so no element outside the triangle is read or written.
/// With `tril_source` the operand is lower triangular (column j is zero above
/// row j), so a tile starting at column j0 of the upper triangle starts its k
/// loop at j0: the skipped products are exact zeros added to a +0
/// accumulator, so the bits equal the full sweep on any finite operand.
template <typename SrcA, typename SrcB>
void sym_tiles(Matrix& c, index_t off, index_t k, const SrcA& srcA,
               const SrcB& srcB, Tri tri, bool tril_source,
               const char* label) {
  const index_t m = c.rows() - off, ldc = c.cols();
  if (m == 0 || k == 0) return;
  real_t* cp = c.data() + off * ldc + off;
  const TierCfg cfg = tier_cfg(active());
  const index_t mr = cfg.mr, nr = cfg.nr;
  const index_t npanels = (m + nr - 1) / nr;

  std::vector<real_t>& bpack = tl_scratch(0);
  bpack.resize(static_cast<std::size_t>(k * npanels * nr));
  for (index_t k0 = 0; k0 < k; k0 += kKC) {
    const index_t kc = std::min(kKC, k - k0);
    pack_b(bpack.data() + k0 * npanels * nr, k0, kc, m, nr, srcB);
  }
  const real_t* bp_all = bpack.data();

  par::parallel_for(
      0, m, mr,
      [&](index_t i0, index_t i1) {
        std::vector<real_t>& apack = tl_scratch(1);
        const index_t mc_pad =
            ((std::min(kMC, i1 - i0) + mr - 1) / mr) * mr;
        apack.resize(static_cast<std::size_t>(mc_pad * std::min(kKC, k)));
        for (index_t k0 = 0; k0 < k; k0 += kKC) {
          const index_t kc = std::min(kKC, k - k0);
          const real_t* bblk = bp_all + k0 * npanels * nr;
          for (index_t ic = i0; ic < i1; ic += kMC) {
            const index_t mc = std::min(kMC, i1 - ic);
            pack_a(apack.data(), ic, mc, k0, kc, mr, srcA);
            for (index_t p = 0; p < mc; p += mr) {
              const real_t* ap = apack.data() + (p / mr) * kc * mr;
              const index_t i = ic + p;
              const index_t rows = std::min(mr, mc - p);
              real_t* crow = cp + i * ldc;
              for (index_t q = 0; q < npanels; ++q) {
                const index_t j0 = q * nr;
                const index_t jw = std::min(nr, m - j0);
                const bool outside = tri == Tri::kLower ? j0 >= i + rows
                                                        : j0 + jw <= i;
                if (outside) continue;
                const index_t skip =
                    tril_source ? std::clamp<index_t>(j0 - k0, 0, kc) : 0;
                if (skip == kc) continue;
                const real_t* a_k = ap + skip * mr;
                const real_t* b_k = bblk + q * kc * nr + skip * nr;
                const bool inside = tri == Tri::kLower ? j0 + nr - 1 <= i
                                                       : j0 >= i + mr - 1;
                if (rows == mr && jw == nr && inside)
                  cfg.micro(kc - skip, a_k, b_k, crow + j0, ldc);
                else
                  micro_edge_tri(cfg, kc - skip, a_k, b_k, crow + j0, ldc,
                                 rows, jw, i, j0, tri);
              }
            }
          }
        }
        if (tri != Tri::kUpperMirrored) return;
        // Mirror the chunk's rows into the column tail once, after every
        // KC block has accumulated: C(j, i) = C(i, j) — the same double, so
        // symmetry is exact.
        for (index_t i = i0; i < i1; ++i) {
          const real_t* ri = cp + i * ldc;
          for (index_t j = i + 1; j < m; ++j) cp[j * ldc + i] = ri[j];
        }
      },
      label,
      audit::Footprint([&c, off, tri](index_t i0, index_t i1,
                                      audit::WriteSet& ws) {
        if (tri == Tri::kLower) {
          ws.add_row_head(c, off + i0, off + i1, off);
        } else {
          ws.add_row_tail(c, i0, i1);
          ws.add_col_tail(c, i0, i1);
        }
      }));
}

// ---- Fused im2col pack sources ----------------------------------------

/// Copy one NCHW sample into the per-thread zero-padded scratch
/// C x (H+2·pad) x (W+2·pad), writing each element once, then `slack` zeros,
/// so every patch element is an in-bounds read, and so is each lane a direct
/// forward edge tile reads past the end of a row. With pad 0 and no slack the
/// sample already is that layout and is returned as is.
const real_t* pad_sample(const real_t* x, const ConvGeometry& g,
                         index_t slack) {
  if (g.pad == 0 && slack == 0) return x;
  const index_t pad = g.pad, wp = g.in_w + 2 * pad;
  std::vector<real_t>& buf = tl_scratch(4);
  buf.resize(
      static_cast<std::size_t>(g.in_c * (g.in_h + 2 * pad) * wp + slack));
  real_t* d = buf.data();
  for (index_t c = 0; c < g.in_c; ++c) {
    d = std::fill_n(d, pad * wp, 0.0);
    for (index_t y = 0; y < g.in_h; ++y, x += g.in_w) {
      d = std::fill_n(d, pad, 0.0);
      d = std::copy_n(x, g.in_w, d);
      d = std::fill_n(d, pad, 0.0);
    }
    d = std::fill_n(d, pad * wp, 0.0);
  }
  std::fill_n(d, slack, 0.0);
  return buf.data();
}

/// Offsets into the padded sample: patch element (j, p) — patch coordinate
/// j = (c, ky, kx), output position p = (oy, ox) — is xp[patch[j] + pos[p]].
/// `patch` runs on to a whole number of MR with offset 0, so a direct wgrad
/// tile's pad rows read a valid element.
struct ConvOffsets {
  std::vector<index_t> patch;  ///< c·Hp·Wp + ky·Wp + kx
  std::vector<index_t> pos;    ///< (oy·Wp + ox)·stride
};

const ConvOffsets& conv_offsets(const ConvGeometry& g) {
  static thread_local ConvOffsets o;
  const index_t hp = g.in_h + 2 * g.pad, wp = g.in_w + 2 * g.pad;
  const index_t patch = g.patch_size();
  o.patch.assign(static_cast<std::size_t>((patch + kMaxMR - 1) / kMaxMR *
                                          kMaxMR),
                 0);
  index_t* pj = o.patch.data();
  for (index_t c = 0; c < g.in_c; ++c)
    for (index_t ky = 0; ky < g.kernel_h; ++ky)
      for (index_t kx = 0; kx < g.kernel_w; ++kx)
        *pj++ = (c * hp + ky) * wp + kx;
  const index_t oh = g.out_h(), ow = g.out_w();
  o.pos.resize(static_cast<std::size_t>(oh * ow));
  index_t* pp = o.pos.data();
  for (index_t oy = 0; oy < oh; ++oy)
    for (index_t ox = 0; ox < ow; ++ox) *pp++ = (oy * wp + ox) * g.stride;
  return o;
}

/// Forward B pack: logical operand colsᵀ (k = patch coordinate, lane =
/// output position) read from the padded sample. `capture` accumulates the
/// spatial sum Σ_p cols(p, j) per patch coordinate while the values stream
/// through the pack: each packed row is summed lane-ascending (zero pad
/// lanes included) and the row sums are added panel-ascending —
/// deterministic at any thread count because the whole pack is per sample
/// inside one chunk.
template <int NR>
void pack_b_conv_forward(real_t* dst, const real_t* xp, const ConvOffsets& o,
                         index_t k0, index_t kc, real_t* capture) {
  const index_t s = static_cast<index_t>(o.pos.size());
  const index_t* patch_off = o.patch.data() + k0;
  for (index_t p0 = 0; p0 < s; p0 += NR, dst += kc * NR) {
    const index_t lanes = std::min<index_t>(NR, s - p0);
    index_t pos[NR];
    for (int l = 0; l < NR; ++l) pos[l] = l < lanes ? o.pos[p0 + l] : 0;
    for (index_t kk = 0; kk < kc; ++kk) {
      const real_t* base = xp + patch_off[kk];
      real_t* out = dst + kk * NR;
      real_t acc = 0.0;
      if (lanes == NR) {
        for (int l = 0; l < NR; ++l) {
          const real_t v = base[pos[l]];
          out[l] = v;
          acc += v;
        }
      } else {
        for (int l = 0; l < NR; ++l) {
          const real_t v = l < lanes ? base[pos[l]] : 0.0;
          out[l] = v;
          acc += v;
        }
      }
      if (capture != nullptr) capture[k0 + kk] += acc;
    }
  }
}

/// Weight-gradient B pack: logical operand [cols | 1] (k = output position,
/// lane = patch coordinate) read from the padded sample. The last panel
/// holds the remaining patch lanes, then the ones column (lane == patch,
/// the bias gradient), then zero pad lanes.
template <int NR>
void pack_b_conv_wgrad(real_t* dst, const real_t* xp, const ConvOffsets& o,
                       index_t patch, index_t k0, index_t kc) {
  const index_t* pos = o.pos.data() + k0;
  for (index_t j0 = 0; j0 <= patch; j0 += NR, dst += kc * NR) {
    if (j0 + NR <= patch) {
      index_t off[NR];
      for (int l = 0; l < NR; ++l) off[l] = o.patch[j0 + l];
      for (index_t kk = 0; kk < kc; ++kk) {
        const real_t* base = xp + pos[kk];
        real_t* out = dst + kk * NR;
        for (int l = 0; l < NR; ++l) out[l] = base[off[l]];
      }
    } else {
      const index_t real = patch - j0;
      for (index_t kk = 0; kk < kc; ++kk) {
        const real_t* base = xp + pos[kk];
        real_t* out = dst + kk * NR;
        for (index_t l = 0; l < real; ++l) out[l] = base[o.patch[j0 + l]];
        out[real] = 1.0;
        for (index_t l = real + 1; l < NR; ++l) out[l] = 0.0;
      }
    }
  }
}

/// gin (one C x H x W sample) += col2im(dt), dt = dcolsᵀ (patch x s), as
/// contiguous row runs in the order oy → c → ky → kx descending → ox
/// ascending. For one input element the terms come from (oy, ky) with
/// oy·stride + ky fixed and (ox, kx) with ox·stride + kx fixed, so this order
/// adds them oy-ascending, then ox-ascending: col2im_add's per-position
/// order, on top of whatever gin already holds.
void col2im_rows(const real_t* dt, const ConvGeometry& g, real_t* gin) {
  const index_t oh = g.out_h(), ow = g.out_w(), s = oh * ow;
  const index_t st = g.stride, pad = g.pad;
  // Tap kx lands inside the row for ox in [ox_lo[kx], ox_hi[kx]).
  static thread_local std::vector<index_t> ox_lo, ox_hi;
  ox_lo.resize(static_cast<std::size_t>(g.kernel_w));
  ox_hi.resize(static_cast<std::size_t>(g.kernel_w));
  for (index_t kx = 0; kx < g.kernel_w; ++kx) {
    const index_t first = pad - kx, last = g.in_w - 1 + pad - kx;
    ox_lo[kx] = first > 0 ? (first + st - 1) / st : 0;
    ox_hi[kx] = last < 0 ? 0 : std::min(ow, last / st + 1);
  }
  for (index_t oy = 0; oy < oh; ++oy)
    for (index_t c = 0; c < g.in_c; ++c)
      for (index_t ky = 0; ky < g.kernel_h; ++ky) {
        const index_t iy = oy * st + ky - pad;
        if (iy < 0 || iy >= g.in_h) continue;
        real_t* row = gin + (c * g.in_h + iy) * g.in_w;
        const real_t* drow =
            dt + ((c * g.kernel_h + ky) * g.kernel_w) * s + oy * ow;
        for (index_t kx = g.kernel_w - 1; kx >= 0; --kx) {
          const real_t* d = drow + kx * s;
          for (index_t ox = ox_lo[kx]; ox < ox_hi[kx]; ++ox)
            row[ox * st + kx - pad] += d[ox];
        }
      }
}

/// Serial tile sweep shared by the conv entry points: C rows [m0, m1)
/// (ldc-strided) += packed A block · packed B block for one KC slice.
void conv_tiles(const TierCfg& cfg, index_t kc, const real_t* ablk,
                const real_t* bblk, real_t* cbase, index_t ldc, index_t m0,
                index_t m1, index_t n) {
  const index_t mr = cfg.mr, nr = cfg.nr;
  const index_t npanels = (n + nr - 1) / nr;
  for (index_t p = m0; p < m1; p += mr) {
    const real_t* ap = ablk + ((p - m0) / mr) * kc * mr;
    const index_t rows = std::min(mr, m1 - p);
    real_t* crow = cbase + p * ldc;
    for (index_t q = 0; q < npanels; ++q) {
      const real_t* bpan = bblk + q * kc * nr;
      const index_t j0 = q * nr;
      const index_t jw = std::min(nr, n - j0);
      if (rows == mr && jw == nr)
        cfg.micro(kc, ap, bpan, crow + j0, ldc);
      else
        micro_edge(cfg, kc, ap, bpan, crow + j0, ldc, rows, jw);
    }
  }
}

/// A-side pack of a rows x k operand, every KC block: block k0 starts at
/// k0 · ⌈rows/MR⌉ · MR, as conv_tiles expects.
template <typename SrcA>
PackedW pack_a_all(const TierCfg& cfg, index_t rows, index_t k,
                   const SrcA& src) {
  const index_t npan = (rows + cfg.mr - 1) / cfg.mr;
  PackedW pw;
  pw.tier = active();
  pw.rows = rows;
  pw.cols = k;
  pw.data.resize(static_cast<std::size_t>(k * npan * cfg.mr));
  for (index_t k0 = 0; k0 < k; k0 += kKC)
    pack_a(pw.data.data() + k0 * npan * cfg.mr, 0, rows, k0,
           std::min(kKC, k - k0), cfg.mr, src);
  return pw;
}

void check_packed_tier(const PackedW& pw) {
  HYLO_CHECK(pw.tier == active(),
             "conv weights packed for tier '" << tier_name(pw.tier)
                                              << "' but active tier is '"
                                              << tier_name(active()) << "'");
}

// ---- Packed conv passes (any stride) ------------------------------------

/// out_plane (bias-filled) += W_main · colsᵀ for one sample through the B
/// pack, which also sums each packed row into the capture.
void packed_forward(const TierCfg& cfg, const PackedW& pw, const real_t* x,
                    const ConvGeometry& g, real_t* out_plane,
                    real_t* capture_row) {
  const index_t c_out = pw.rows, patch = pw.cols;
  const index_t s = g.out_h() * g.out_w();
  const index_t npan_m = (c_out + cfg.mr - 1) / cfg.mr;
  const index_t npan_s = (s + cfg.nr - 1) / cfg.nr;
  if (capture_row != nullptr) std::fill(capture_row, capture_row + patch, 0.0);

  const real_t* xp = pad_sample(x, g, 0);
  const ConvOffsets& offs = conv_offsets(g);
  std::vector<real_t>& bbuf = tl_scratch(2);
  bbuf.resize(static_cast<std::size_t>(std::min(kKC, patch) * npan_s * cfg.nr));
  for (index_t k0 = 0; k0 < patch; k0 += kKC) {
    const index_t kc = std::min(kKC, patch - k0);
    if (cfg.nr == 8)
      pack_b_conv_forward<8>(bbuf.data(), xp, offs, k0, kc, capture_row);
    else
      pack_b_conv_forward<4>(bbuf.data(), xp, offs, k0, kc, capture_row);
    const real_t* ablk = pw.data.data() + k0 * npan_m * cfg.mr;
    conv_tiles(cfg, kc, ablk, bbuf.data(), out_plane, s, 0, c_out, s);
  }
}

/// gw rows [o0, o1) += gout_plane[o0:o1, :] · [cols(x) | 1] for one sample.
void packed_wgrad(const TierCfg& cfg, const real_t* gout_plane,
                  const real_t* x, const ConvGeometry& g, Matrix& gw,
                  index_t o0, index_t o1) {
  const index_t naug = gw.cols();
  const index_t s = g.out_h() * g.out_w();
  const index_t npan_n = (naug + cfg.nr - 1) / cfg.nr;

  const real_t* xp = pad_sample(x, g, 0);
  const ConvOffsets& offs = conv_offsets(g);
  std::vector<real_t>& bbuf = tl_scratch(2);
  std::vector<real_t>& abuf = tl_scratch(3);
  bbuf.resize(static_cast<std::size_t>(std::min(kKC, s) * npan_n * cfg.nr));
  const index_t mc_max =
      ((o1 - o0 + cfg.mr - 1) / cfg.mr) * cfg.mr;  // padded panel rows
  abuf.resize(static_cast<std::size_t>(std::min(kKC, s) * mc_max));

  for (index_t k0 = 0; k0 < s; k0 += kKC) {
    const index_t kc = std::min(kKC, s - k0);
    if (cfg.nr == 8)
      pack_b_conv_wgrad<8>(bbuf.data(), xp, offs, naug - 1, k0, kc);
    else
      pack_b_conv_wgrad<4>(bbuf.data(), xp, offs, naug - 1, k0, kc);
    pack_a(abuf.data(), o0, o1 - o0, k0, kc, cfg.mr,
           [gout_plane, s](index_t o, index_t kk) {
             return gout_plane[o * s + kk];
           });
    // conv_tiles indexes C rows absolutely from its base pointer.
    conv_tiles(cfg, kc, abuf.data(), bbuf.data(), gw.data(), naug, o0, o1,
               naug);
  }
}

/// gin_plane += col2im(dcolsᵀ) for one sample, dcolsᵀ = W_mainᵀ · gout_plane.
void packed_dgrad(const TierCfg& cfg, const real_t* gout_plane,
                  const PackedW& pw, const ConvGeometry& g,
                  real_t* gin_plane) {
  const index_t patch = pw.rows, c_out = pw.cols;
  const index_t s = g.out_h() * g.out_w();
  const index_t npan_m = (patch + cfg.mr - 1) / cfg.mr;
  const index_t npan_s = (s + cfg.nr - 1) / cfg.nr;

  // dcolsᵀ = W_mainᵀ · gout_plane. Element (j, p) is the o-ascending chain
  // fma(W[o, j], gout[o, p], ·) from +0.0 — the same chain as dcols =
  // goutᵀ · W_main, since fma(a, b, c) == fma(b, a, c).
  std::vector<real_t>& dt = tl_scratch(3);
  dt.assign(static_cast<std::size_t>(patch * s), 0.0);
  std::vector<real_t>& bbuf = tl_scratch(2);
  bbuf.resize(static_cast<std::size_t>(std::min(kKC, c_out) * npan_s * cfg.nr));
  for (index_t k0 = 0; k0 < c_out; k0 += kKC) {
    const index_t kc = std::min(kKC, c_out - k0);
    pack_b(bbuf.data(), k0, kc, s, cfg.nr,
           [gout_plane, s](index_t o, index_t p) {
             return gout_plane[o * s + p];
           });
    const real_t* ablk = pw.data.data() + k0 * npan_m * cfg.mr;
    conv_tiles(cfg, kc, ablk, bbuf.data(), dt.data(), s, 0, patch, s);
  }
  col2im_rows(dt.data(), g, gin_plane);
}

// ---- Direct stride-1 conv passes ----------------------------------------

/// Sec. IV capture of a direct forward, a pass of its own with the packed
/// forward's association: each NR-block of flat output positions is summed
/// lane-ascending, zero pad lanes included, and the block sums are added
/// block-ascending. The patch coordinates (c, ky, kx .. kx+3) sit at
/// consecutive offsets, so four of them run as the lanes of one vector add,
/// which keeps each coordinate's chain; lanes past the kernel read on into
/// the row (at worst into the scratch's slack) and are dropped. Four blocks'
/// chains run interleaved, their sums still added in block order.
void direct_capture(const real_t* xp, const ConvOffsets& o,
                    const ConvGeometry& g, index_t nr, real_t* capture_row) {
  constexpr index_t kLanes = 4;
  using Vec = real_t __attribute__((vector_size(kLanes * sizeof(real_t))));
  const index_t s = static_cast<index_t>(o.pos.size());
  const index_t* pos = o.pos.data();
  const index_t hp = g.in_h + 2 * g.pad, wp = g.in_w + 2 * g.pad;
  for (index_t c = 0; c < g.in_c; ++c)
    for (index_t ky = 0; ky < g.kernel_h; ++ky)
      for (index_t kx = 0; kx < g.kernel_w; kx += kLanes) {
        const real_t* base = xp + (c * hp + ky) * wp + kx;
        // acc += the four lanes at output position p.
        const auto add = [base, pos](Vec& acc, index_t p) {
          Vec v;
          std::memcpy(&v, base + pos[p], sizeof v);
          acc += v;
        };
        Vec sum = {};
        index_t p0 = 0;
        for (; p0 + 4 * nr <= s; p0 += 4 * nr) {
          Vec b0 = {}, b1 = {}, b2 = {}, b3 = {};
          for (index_t l = 0; l < nr; ++l) {
            add(b0, p0 + l);
            add(b1, p0 + nr + l);
            add(b2, p0 + 2 * nr + l);
            add(b3, p0 + 3 * nr + l);
          }
          sum += b0;
          sum += b1;
          sum += b2;
          sum += b3;
        }
        for (; p0 < s; p0 += nr) {
          const index_t lanes = std::min(nr, s - p0);
          Vec block = {};
          for (index_t l = 0; l < lanes; ++l) add(block, p0 + l);
          for (index_t l = lanes; l < nr; ++l) block += Vec{};
          sum += block;
        }
        real_t* dst = capture_row + (c * g.kernel_h + ky) * g.kernel_w + kx;
        for (index_t t = 0; t < std::min(kLanes, g.kernel_w - kx); ++t)
          dst[t] = sum[t];
      }
}

/// Direct forward: a tile is MR output channels x NR consecutive output
/// columns of one output row, B row k read in place at xp + patch_off[k] +
/// oy·Wp + ox0. A partial last lane block runs as an edge tile whose extra
/// lanes read on past the row (at worst into the scratch's slack) and are
/// dropped.
void direct_forward(const TierCfg& cfg, const PackedW& pw, const real_t* xp,
                    const ConvOffsets& o, const ConvGeometry& g,
                    real_t* out_plane) {
  const index_t c_out = pw.rows, patch = pw.cols, mr = cfg.mr, nr = cfg.nr;
  const index_t oh = g.out_h(), ow = g.out_w(), s = oh * ow;
  const index_t wp = g.in_w + 2 * g.pad;
  const index_t npan_m = (c_out + mr - 1) / mr;
  for (index_t k0 = 0; k0 < patch; k0 += kKC) {
    const index_t kc = std::min(kKC, patch - k0);
    const real_t* ablk = pw.data.data() + k0 * npan_m * mr;
    const index_t* off = o.patch.data() + k0;
    for (index_t oy = 0; oy < oh; ++oy)
      for (index_t ox0 = 0; ox0 < ow; ox0 += nr) {
        const index_t lanes = std::min(nr, ow - ox0);
        const real_t* row = xp + oy * wp + ox0;
        for (index_t p = 0; p < c_out; p += mr) {
          const real_t* ap = ablk + (p / mr) * kc * mr;
          const index_t rows = std::min(mr, c_out - p);
          real_t* c = out_plane + p * s + oy * ow + ox0;
          if (rows == mr && lanes == nr)
            cfg.conv_fwd(kc, ap, row, off, c, s);
          else
            edge_tile(cfg, c, s, rows, lanes, [&](real_t* t, index_t ld) {
              cfg.conv_fwd(kc, ap, row, off, t, ld);
            });
        }
      }
  }
}

/// Direct weight gradient over every sample for gw rows [o0, o1): gwᵀ tiles
/// of MR patch coordinates x NR output channels accumulate over k = output
/// position, A broadcast in place from the padded sample and B from goutᵀ,
/// the only pack. The chunk's gw rows sit transposed in a per-thread scratch
/// from before the first sample to after the last, so each element keeps its
/// sample-ascending, position-ascending chain. The bias row adds goutᵀ rows:
/// fma(g, 1.0, c) == g + c exactly.
void direct_wgrad(const TierCfg& cfg, const Tensor4& gout, const Tensor4& x,
                  const ConvGeometry& g, Matrix& gw, index_t o0, index_t o1) {
  const index_t mr = cfg.mr, nr = cfg.nr, patch = g.patch_size();
  const index_t s = g.out_h() * g.out_w();
  const index_t ld = (o1 - o0 + nr - 1) / nr * nr;
  const index_t rows = (patch + mr - 1) / mr * mr;
  // gwᵀ: rows [0, patch) the kernel, row `rows` the bias. Pad rows and
  // columns accumulate values that are never written back.
  std::vector<real_t>& acc = tl_scratch(3);
  acc.assign(static_cast<std::size_t>((rows + 1) * ld), 0.0);
  real_t* gwt = acc.data();
  real_t* bias = gwt + rows * ld;
  for (index_t o = o0; o < o1; ++o) {
    const real_t* w = gw.row_ptr(o);
    for (index_t j = 0; j < patch; ++j) gwt[j * ld + (o - o0)] = w[j];
    bias[o - o0] = w[patch];
  }
  std::vector<real_t>& gt_buf = tl_scratch(2);
  gt_buf.assign(static_cast<std::size_t>(s * ld), 0.0);
  real_t* gt = gt_buf.data();
  const ConvOffsets& offs = conv_offsets(g);
  for (index_t i = 0; i < x.n(); ++i) {
    const real_t* xp = pad_sample(x.sample_ptr(i), g, 0);
    const real_t* go = gout.sample_ptr(i);
    for (index_t o = o0; o < o1; ++o)
      for (index_t p = 0; p < s; ++p) gt[p * ld + (o - o0)] = go[o * s + p];
    for (index_t p = 0; p < s; ++p)
      for (index_t l = 0; l < ld; ++l) bias[l] += gt[p * ld + l];
    for (index_t j0 = 0; j0 < rows; j0 += mr)
      for (index_t q = 0; q < ld; q += nr)
        cfg.conv_wgrad(s, xp, offs.pos.data(), offs.patch.data() + j0,
                       gt + q, ld, gwt + j0 * ld + q, ld);
  }
  for (index_t o = o0; o < o1; ++o) {
    real_t* w = gw.row_ptr(o);
    for (index_t j = 0; j < patch; ++j) w[j] = gwt[j * ld + (o - o0)];
    w[patch] = bias[o - o0];
  }
}

/// Direct-dgrad weight pack, [c-block][ky][kx][o][MR]: W[o, c0 + r, ky, kx],
/// zero where c0 + r >= in_c.
PackedW pack_direct_dgrad_w(const TierCfg& cfg, const Matrix& w_aug,
                            const ConvGeometry& g) {
  const index_t c_out = w_aug.rows(), mr = cfg.mr;
  const index_t taps = g.kernel_h * g.kernel_w;
  PackedW pw;
  pw.tier = active();
  pw.rows = g.patch_size();
  pw.cols = c_out;
  pw.data.assign(static_cast<std::size_t>((g.in_c + mr - 1) / mr * mr *
                                          taps * c_out),
                 0.0);
  real_t* d = pw.data.data();
  for (index_t c0 = 0; c0 < g.in_c; c0 += mr) {
    const index_t rows = std::min(mr, g.in_c - c0);
    for (index_t t = 0; t < taps; ++t)
      for (index_t o = 0; o < c_out; ++o, d += mr)
        for (index_t r = 0; r < rows; ++r) d[r] = w_aug(o, (c0 + r) * taps + t);
  }
  return pw;
}

/// Direct data gradient for one sample: a tile is MR input channels x NR
/// consecutive columns of one gin row. Its taps run (ky, kx)-descending; each
/// computes D = Σ_o W[o, c, ky, kx]·gout[o, iy + pad − ky, ix + pad − kx] as
/// an o-ascending fma chain from +0.0 and adds it to the tile on the lanes
/// whose (oy, ox) lies inside gout. Per gin element that is col2im_add's
/// order (oy, then ox ascending) and each term is dcolsᵀ's chain. gout is
/// read from a per-thread copy with zero margins, so every load is in bounds.
void direct_dgrad(const TierCfg& cfg, const real_t* gout_plane,
                  const PackedW& pw, const ConvGeometry& g,
                  real_t* gin_plane) {
  const index_t mr = cfg.mr, nr = cfg.nr, c_out = pw.cols;
  const index_t kh = g.kernel_h, kw = g.kernel_w, pad = g.pad;
  const index_t oh = g.out_h(), ow = g.out_w();
  // Row oy of channel o starts at gp + (o·oh + oy)·wg, between lm zeros and
  // wg − lm − ow zeros: a tap's lanes start at most kw − 1 − pad columns
  // left of the row and end less than kw + nr columns past it.
  const index_t lm = std::max<index_t>(0, kw - 1 - pad);
  const index_t wg = lm + ow + kw + nr;
  std::vector<real_t>& gbuf = tl_scratch(2);
  gbuf.resize(static_cast<std::size_t>(c_out * oh * wg));
  real_t* d = gbuf.data();
  for (const real_t* src = gout_plane; src < gout_plane + c_out * oh * ow;
       src += ow) {
    d = std::fill_n(d, lm, 0.0);
    d = std::copy_n(src, ow, d);
    d = std::fill_n(d, wg - lm - ow, 0.0);
  }
  const real_t* gp = gbuf.data() + lm;
  const index_t ostride = oh * wg, ldg = g.in_h * g.in_w;
  const index_t tap_panel = c_out * mr;
  static thread_local std::vector<DgradTap> taps;
  taps.resize(static_cast<std::size_t>(kh * kw));
  for (index_t c0 = 0; c0 < g.in_c; c0 += mr) {
    const index_t rows = std::min(mr, g.in_c - c0);
    const real_t* wc = pw.data.data() + (c0 / mr) * kh * kw * tap_panel;
    for (index_t iy = 0; iy < g.in_h; ++iy)
      for (index_t ix0 = 0; ix0 < g.in_w; ix0 += nr) {
        const index_t lanes = std::min(nr, g.in_w - ix0);
        index_t nt = 0;
        for (index_t ky = kh - 1; ky >= 0; --ky) {
          const index_t oy = iy + pad - ky;
          if (oy < 0 || oy >= oh) continue;
          for (index_t kx = kw - 1; kx >= 0; --kx) {
            // Lane l reads ox = shift + l; it has a term iff 0 <= ox < ow.
            const index_t shift = ix0 + pad - kx;
            const index_t lo = std::max<index_t>(0, -shift);
            const index_t hi = std::min(lanes, ow - shift);
            if (lo >= hi) continue;
            taps[static_cast<std::size_t>(nt++)] = {
                wc + (ky * kw + kx) * tap_panel, gp + oy * wg + shift,
                ((1u << hi) - 1) & ~((1u << lo) - 1)};
          }
        }
        if (nt == 0) continue;
        real_t* c = gin_plane + (c0 * g.in_h + iy) * g.in_w + ix0;
        if (rows == mr && lanes == nr)
          cfg.conv_dgrad(c_out, ostride, taps.data(), nt, c, ldg);
        else
          edge_tile(cfg, c, ldg, rows, lanes, [&](real_t* t, index_t ld) {
            cfg.conv_dgrad(c_out, ostride, taps.data(), nt, t, ld);
          });
      }
  }
}

}  // namespace

void packed_gemm_nn(const Matrix& a, const Matrix& b, Matrix& c,
                    real_t alpha) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t lda = k, ldb = n;
  gemm_driver(
      m, n, k,
      [pa, lda, alpha](index_t i, index_t kk) { return alpha * pa[i * lda + kk]; },
      [pb, ldb](index_t kk, index_t j) { return pb[kk * ldb + j]; }, c,
      "tensor/gemm");
}

void packed_gemm_tn(const Matrix& a, const real_t* s, const Matrix& b,
                    Matrix& c, real_t alpha) {
  const index_t k = a.rows(), m = a.cols(), n = b.cols();
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t lda = m, ldb = n;
  if (s == nullptr) {
    gemm_driver(
        m, n, k,
        [pa, lda, alpha](index_t i, index_t kk) {
          return alpha * pa[kk * lda + i];
        },
        [pb, ldb](index_t kk, index_t j) { return pb[kk * ldb + j]; }, c,
        "tensor/gemm_tn");
  } else {
    // Fold the diagonal into the A pack with the same association as the
    // scalar kernel: (alpha * s_k) * a_ki.
    gemm_driver(
        m, n, k,
        [pa, lda, alpha, s](index_t i, index_t kk) {
          return (alpha * s[kk]) * pa[kk * lda + i];
        },
        [pb, ldb](index_t kk, index_t j) { return pb[kk * ldb + j]; }, c,
        "tensor/gemm_tn");
  }
}

void packed_gemm_nt(const Matrix& a, const Matrix& b, Matrix& c,
                    real_t alpha) {
  const index_t m = a.rows(), k = a.cols(), n = b.rows();
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t lda = k, ldb = k;
  gemm_driver(
      m, n, k,
      [pa, lda, alpha](index_t i, index_t kk) { return alpha * pa[i * lda + kk]; },
      [pb, ldb](index_t kk, index_t j) { return pb[j * ldb + kk]; }, c,
      "tensor/gemm_nt");
}

void packed_gram_nt(const Matrix& a, Matrix& c) {
  const index_t m = a.rows(), k = a.cols();
  HYLO_CHECK(c.rows() == m && c.cols() == m, "packed_gram_nt C shape");
  const real_t* pa = a.data();
  sym_tiles(
      c, 0, k, [pa, k](index_t i, index_t kk) { return pa[i * k + kk]; },
      [pa, k](index_t kk, index_t j) { return pa[j * k + kk]; },
      Tri::kUpperMirrored, false, "tensor/gram_nt");
}

void packed_gram_tn(const Matrix& a, Matrix& c, bool tril) {
  const index_t k = a.rows(), m = a.cols();
  HYLO_CHECK(c.rows() == m && c.cols() == m, "packed_gram_tn C shape");
  const real_t* pa = a.data();
  sym_tiles(
      c, 0, k, [pa, m](index_t i, index_t kk) { return pa[kk * m + i]; },
      [pa, m](index_t kk, index_t j) { return pa[kk * m + j]; },
      Tri::kUpperMirrored, tril, "tensor/gram_tn");
}

void packed_syrk_trailing(Matrix& c, index_t k0, index_t k1, real_t alpha) {
  const index_t n = c.rows();
  const real_t* p = c.data() + k1 * n + k0;  // P = c[k1:n, k0:k1]
  sym_tiles(
      c, k1, k1 - k0,
      [p, n, alpha](index_t i, index_t kk) { return alpha * p[i * n + kk]; },
      [p, n](index_t kk, index_t j) { return p[j * n + kk]; }, Tri::kLower,
      false, "tensor/syrk_trailing");
}

// ---- Vector helpers ----------------------------------------------------

void vmul(real_t* a, const real_t* b, index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      vmul_avx512(a, b, n);
      return;
    case Tier::kAvx2:
      vmul_avx2(a, b, n);
      return;
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      vmul_neon(a, b, n);
      return;
#endif
    default:
      break;
  }
  for (index_t i = 0; i < n; ++i) a[i] *= b[i];
}

void vscale(real_t* dst, const real_t* src, real_t s, index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      vscale_avx512(dst, src, s, n);
      return;
    case Tier::kAvx2:
      vscale_avx2(dst, src, s, n);
      return;
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      vscale_neon(dst, src, s, n);
      return;
#endif
    default:
      break;
  }
  for (index_t i = 0; i < n; ++i) dst[i] = s * src[i];
}

void vadd_where_positive(real_t* acc, const real_t* g, const real_t* x,
                         index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      vadd_where_positive_avx512(acc, g, x, n);
      return;
    case Tier::kAvx2:
      vadd_where_positive_avx2(acc, g, x, n);
      return;
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      vadd_where_positive_neon(acc, g, x, n);
      return;
#endif
    default:
      break;
  }
  for (index_t i = 0; i < n; ++i)
    if (x[i] > 0.0) acc[i] += g[i];
}

real_t vdot(const real_t* a, const real_t* b, index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      return vdot_avx512(a, b, n);
    case Tier::kAvx2:
      return vdot_avx2(a, b, n);
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      return vdot_neon(a, b, n);
#endif
    default:
      break;
  }
  real_t acc = 0.0;
  for (index_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// ---- Convolution ----------------------------------------------------------

bool conv_direct(const ConvGeometry& g) {
  if (active() == Tier::kScalar) return false;
  const TierCfg cfg = tier_cfg(active());
  return cfg.conv_fwd != nullptr && g.stride == 1 && g.out_w() >= cfg.nr;
}

PackedW pack_conv_forward_w(const Matrix& w_aug) {
  const index_t c_out = w_aug.rows(), patch = w_aug.cols() - 1;
  const real_t* w = w_aug.data();
  const index_t ldw = w_aug.cols();
  PackedW pw = pack_a_all(
      tier_cfg(active()), c_out, patch,
      [w, ldw](index_t o, index_t j) { return w[o * ldw + j]; });
  pw.bias.resize(static_cast<std::size_t>(c_out));
  for (index_t o = 0; o < c_out; ++o)
    pw.bias[static_cast<std::size_t>(o)] = w_aug(o, patch);
  return pw;
}

PackedW pack_conv_dgrad_w(const Matrix& w_aug, const ConvGeometry& g) {
  const TierCfg cfg = tier_cfg(active());
  if (conv_direct(g)) return pack_direct_dgrad_w(cfg, w_aug, g);
  const index_t c_out = w_aug.rows(), patch = w_aug.cols() - 1;
  const real_t* w = w_aug.data();
  const index_t ldw = w_aug.cols();
  return pack_a_all(cfg, patch, c_out,
                    [w, ldw](index_t j, index_t o) { return w[o * ldw + j]; });
}

void conv_forward(const PackedW& pw, const real_t* x, const ConvGeometry& g,
                  real_t* out_plane, real_t* capture_row) {
  check_packed_tier(pw);
  const TierCfg cfg = tier_cfg(active());
  const index_t s = g.out_h() * g.out_w();
  for (index_t o = 0; o < pw.rows; ++o)
    std::fill(out_plane + o * s, out_plane + (o + 1) * s,
              pw.bias[static_cast<std::size_t>(o)]);
  if (!conv_direct(g)) {
    packed_forward(cfg, pw, x, g, out_plane, capture_row);
    return;
  }
  const real_t* xp = pad_sample(x, g, cfg.nr);
  const ConvOffsets& offs = conv_offsets(g);
  direct_forward(cfg, pw, xp, offs, g, out_plane);
  if (capture_row != nullptr)
    direct_capture(xp, offs, g, cfg.nr, capture_row);
}

void conv_wgrad(const Tensor4& gout, const Tensor4& x, const ConvGeometry& g,
                Matrix& gw, index_t o0, index_t o1) {
  const TierCfg cfg = tier_cfg(active());
  if (conv_direct(g)) {
    direct_wgrad(cfg, gout, x, g, gw, o0, o1);
    return;
  }
  for (index_t i = 0; i < x.n(); ++i)
    packed_wgrad(cfg, gout.sample_ptr(i), x.sample_ptr(i), g, gw, o0, o1);
}

void conv_dgrad(const real_t* gout_plane, const PackedW& pw,
                const ConvGeometry& g, real_t* gin_plane) {
  check_packed_tier(pw);
  const TierCfg cfg = tier_cfg(active());
  if (conv_direct(g))
    direct_dgrad(cfg, gout_plane, pw, g, gin_plane);
  else
    packed_dgrad(cfg, gout_plane, pw, g, gin_plane);
}

}  // namespace hylo::kern
