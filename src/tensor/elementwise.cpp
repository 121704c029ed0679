#include "hylo/tensor/elementwise.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "hylo/tensor/kernel_dispatch.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hylo::kern {

namespace {

// ---- Scalar reference -----------------------------------------------------
// The scalar tier runs these loops; every SIMD body gives each element the
// same operations, in the same order, as one vector lane.

real_t relu_of(real_t y) { return y > 0.0 ? y : 0.0; }

/// relu_out > 0 ? 0.0 + g : +0.0, without a branch on the sign of an
/// activation: +0.0 is all-zero bits, so the masked-off case is an and.
real_t relu_dy(real_t g, real_t relu_out) {
  const std::uint64_t keep =
      std::uint64_t{0} - static_cast<std::uint64_t>(relu_out > 0.0);
  return std::bit_cast<real_t>(std::bit_cast<std::uint64_t>(0.0 + g) & keep);
}

/// dy at index k: g[k], or relu_dy of g and relu_out (BnOperands::g).
real_t dy_at(const real_t* g, const real_t* relu_out, index_t k) {
  return relu_out != nullptr ? relu_dy(g[k], relu_out[k]) : g[k];
}

/// Offset of row (i, ch), the hw positions of channel ch of sample i.
index_t row_at(const BnOperands& op, index_t i, index_t ch) {
  return (i * op.c + ch) * op.hw;
}

void bn_stats_ref(const BnOperands& op, real_t* sum, real_t* sumsq) {
  for (index_t ch = 0; ch < op.c; ++ch) {
    real_t s = 0.0, q = 0.0;
    for (index_t i = 0; i < op.n; ++i) {
      const real_t* p = op.x + row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; ++j) {
        s += p[j];
        q = std::fma(p[j], p[j], q);
      }
    }
    sum[ch] = s;
    sumsq[ch] = q;
  }
}

void bn_normalize_ref(const BnOperands& op, const real_t* gamma,
                      const real_t* beta, bool relu, real_t* out) {
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const real_t mean = op.mean[ch], inv = op.inv_std[ch];
      const real_t g = gamma[ch], b = beta[ch];
      const real_t* px = op.x + row_at(op, i, ch);
      real_t* po = out + row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; ++j) {
        const real_t y = std::fma(g, (px[j] - mean) * inv, b);
        po[j] = relu ? relu_of(y) : y;
      }
    }
}

void bn_grad_stats_ref(const BnOperands& op, real_t* sum_dy,
                       real_t* sum_dy_xh) {
  for (index_t ch = 0; ch < op.c; ++ch) {
    const real_t mean = op.mean[ch], inv = op.inv_std[ch];
    real_t s = 0.0, q = 0.0;
    for (index_t i = 0; i < op.n; ++i) {
      const index_t r = row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; ++j) {
        const real_t dy = dy_at(op.g, op.relu_out, r + j);
        s += dy;
        q = std::fma(dy, (op.x[r + j] - mean) * inv, q);
      }
    }
    sum_dy[ch] = s;
    sum_dy_xh[ch] = q;
  }
}

void bn_dx_train_ref(const BnOperands& op, const real_t* k, real_t count,
                     const real_t* sum_dy, const real_t* sum_dy_xh,
                     real_t* gin) {
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const real_t mean = op.mean[ch], inv = op.inv_std[ch], kc = k[ch];
      const real_t sdy = sum_dy[ch], sdx = sum_dy_xh[ch];
      const index_t r = row_at(op, i, ch);
      real_t* pi = gin + r;
      for (index_t j = 0; j < op.hw; ++j) {
        const real_t xh = (op.x[r + j] - mean) * inv;
        real_t t = std::fma(count, dy_at(op.g, op.relu_out, r + j), -sdy);
        t = std::fma(-xh, sdx, t);
        pi[j] = std::fma(kc, t, pi[j]);
      }
    }
}

void bn_dx_eval_ref(const BnOperands& op, const real_t* k, real_t* gin) {
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const real_t kc = k[ch];
      const index_t r = row_at(op, i, ch);
      real_t* pi = gin + r;
      for (index_t j = 0; j < op.hw; ++j)
        pi[j] = std::fma(kc, dy_at(op.g, op.relu_out, r + j), pi[j]);
    }
}

#if defined(__x86_64__) || defined(__i386__)

// ---- AVX-512 --------------------------------------------------------------
// Every access is masked to its w valid lanes, tails included. max, unpack
// and the 128-bit shuffle use their maskz forms: the unmasked intrinsics are
// built on _mm512_undefined_pd(), which GCC 12 warns about.

__attribute__((target("avx512f"), always_inline)) inline __mmask8 lanes512(
    index_t w) {
  return static_cast<__mmask8>((1u << w) - 1u);
}

/// vmaxpd returns its second operand unless the first is greater: y > 0 ? y
/// : +0.0, NaN to +0.0.
__attribute__((target("avx512f"), always_inline)) inline __m512d relu512(
    __m512d y) {
  return _mm512_maskz_max_pd(0xFF, y, _mm512_setzero_pd());
}

/// The lanes m of dy at index k (dy_at).
__attribute__((target("avx512f"), always_inline)) inline __m512d dy512(
    const real_t* g, const real_t* relu_out, index_t k, __mmask8 m) {
  const __m512d gv = _mm512_maskz_loadu_pd(m, g + k);
  if (relu_out == nullptr) return gv;
  const __mmask8 pos =
      _mm512_cmp_pd_mask(_mm512_maskz_loadu_pd(m, relu_out + k),
                         _mm512_setzero_pd(), _CMP_GT_OQ);
  return _mm512_maskz_add_pd(pos, _mm512_setzero_pd(), gv);
}

/// r[l] = w elements of row l at p + l·ld for the first `rows` rows, +0.0
/// elsewhere.
__attribute__((target("avx512f"), always_inline)) inline void load_rows512(
    const real_t* p, index_t ld, index_t rows, index_t w, __m512d (&r)[8]) {
  const __mmask8 m = lanes512(w);
#pragma GCC unroll 8
  for (int l = 0; l < 8; ++l)
    r[l] = l < rows ? _mm512_maskz_loadu_pd(m, p + l * ld)
                    : _mm512_setzero_pd();
}

/// In-register 8x8 transpose, r[l][t] -> r[t][l], in three rounds that
/// pair rows 1, 2, then 4 apart: unpack, two-source permute, 128-bit
/// shuffle. Only the middle round needs index vectors.
__attribute__((target("avx512f"), always_inline)) inline void transpose512(
    __m512d (&r)[8]) {
  const __m512i lo2 = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i hi2 = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  __m512d t[8];
#pragma GCC unroll 4
  for (int k = 0; k < 8; k += 2) {
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
  for (int k = 0; k < 8; ++k) r[k] = t[k];
}

__attribute__((target("avx512f"))) void bn_stats_avx512(const BnOperands& op,
                                                        real_t* sum,
                                                        real_t* sumsq) {
  for (index_t c0 = 0; c0 < op.c; c0 += 8) {
    const index_t rows = std::min<index_t>(8, op.c - c0);
    __m512d s = _mm512_setzero_pd(), q = _mm512_setzero_pd();
    for (index_t i = 0; i < op.n; ++i) {
      const real_t* p = op.x + row_at(op, i, c0);
      for (index_t j = 0; j < op.hw; j += 8) {
        const index_t w = std::min<index_t>(8, op.hw - j);
        __m512d r[8];
        load_rows512(p + j, op.hw, rows, w, r);
        transpose512(r);
#pragma GCC unroll 8
        for (int t = 0; t < 8; ++t)
          if (t < w) {
            s = _mm512_add_pd(s, r[t]);
            q = _mm512_fmadd_pd(r[t], r[t], q);
          }
      }
    }
    _mm512_mask_storeu_pd(sum + c0, lanes512(rows), s);
    _mm512_mask_storeu_pd(sumsq + c0, lanes512(rows), q);
  }
}

__attribute__((target("avx512f"))) void bn_grad_stats_avx512(
    const BnOperands& op, real_t* sum_dy, real_t* sum_dy_xh) {
  for (index_t c0 = 0; c0 < op.c; c0 += 8) {
    const index_t rows = std::min<index_t>(8, op.c - c0);
    const __mmask8 cm = lanes512(rows);
    const __m512d mean = _mm512_maskz_loadu_pd(cm, op.mean + c0);
    const __m512d inv = _mm512_maskz_loadu_pd(cm, op.inv_std + c0);
    __m512d s = _mm512_setzero_pd(), q = _mm512_setzero_pd();
    for (index_t i = 0; i < op.n; ++i) {
      const index_t r0 = row_at(op, i, c0);
      for (index_t j = 0; j < op.hw; j += 8) {
        const index_t w = std::min<index_t>(8, op.hw - j);
        const __mmask8 m = lanes512(w);
        __m512d d[8], x[8];
#pragma GCC unroll 8
        for (int l = 0; l < 8; ++l)
          d[l] = l < rows ? dy512(op.g, op.relu_out, r0 + l * op.hw + j, m)
                          : _mm512_setzero_pd();
        load_rows512(op.x + r0 + j, op.hw, rows, w, x);
        transpose512(d);
        transpose512(x);
#pragma GCC unroll 8
        for (int t = 0; t < 8; ++t)
          if (t < w) {
            const __m512d xh = _mm512_mul_pd(_mm512_sub_pd(x[t], mean), inv);
            s = _mm512_add_pd(s, d[t]);
            q = _mm512_fmadd_pd(d[t], xh, q);
          }
      }
    }
    _mm512_mask_storeu_pd(sum_dy + c0, cm, s);
    _mm512_mask_storeu_pd(sum_dy_xh + c0, cm, q);
  }
}

__attribute__((target("avx512f"))) void bn_normalize_avx512(
    const BnOperands& op, const real_t* gamma, const real_t* beta, bool relu,
    real_t* out) {
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const __m512d mean = _mm512_set1_pd(op.mean[ch]);
      const __m512d inv = _mm512_set1_pd(op.inv_std[ch]);
      const __m512d g = _mm512_set1_pd(gamma[ch]);
      const __m512d b = _mm512_set1_pd(beta[ch]);
      const index_t r = row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; j += 8) {
        const __mmask8 m = lanes512(std::min<index_t>(8, op.hw - j));
        const __m512d x = _mm512_maskz_loadu_pd(m, op.x + r + j);
        const __m512d y =
            _mm512_fmadd_pd(g, _mm512_mul_pd(_mm512_sub_pd(x, mean), inv), b);
        _mm512_mask_storeu_pd(out + r + j, m, relu ? relu512(y) : y);
      }
    }
}

__attribute__((target("avx512f"))) void bn_dx_train_avx512(
    const BnOperands& op, const real_t* k, real_t count, const real_t* sum_dy,
    const real_t* sum_dy_xh, real_t* gin) {
  const __m512d cnt = _mm512_set1_pd(count);
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const __m512d mean = _mm512_set1_pd(op.mean[ch]);
      const __m512d inv = _mm512_set1_pd(op.inv_std[ch]);
      const __m512d kv = _mm512_set1_pd(k[ch]);
      const __m512d sdy = _mm512_set1_pd(sum_dy[ch]);
      const __m512d sdx = _mm512_set1_pd(sum_dy_xh[ch]);
      const index_t r = row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; j += 8) {
        const __mmask8 m = lanes512(std::min<index_t>(8, op.hw - j));
        const __m512d xh = _mm512_mul_pd(
            _mm512_sub_pd(_mm512_maskz_loadu_pd(m, op.x + r + j), mean), inv);
        __m512d t =
            _mm512_fmsub_pd(cnt, dy512(op.g, op.relu_out, r + j, m), sdy);
        t = _mm512_fnmadd_pd(xh, sdx, t);
        _mm512_mask_storeu_pd(
            gin + r + j, m,
            _mm512_fmadd_pd(kv, t, _mm512_maskz_loadu_pd(m, gin + r + j)));
      }
    }
}

__attribute__((target("avx512f"))) void bn_dx_eval_avx512(const BnOperands& op,
                                                          const real_t* k,
                                                          real_t* gin) {
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const __m512d kv = _mm512_set1_pd(k[ch]);
      const index_t r = row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; j += 8) {
        const __mmask8 m = lanes512(std::min<index_t>(8, op.hw - j));
        _mm512_mask_storeu_pd(
            gin + r + j, m,
            _mm512_fmadd_pd(kv, dy512(op.g, op.relu_out, r + j, m),
                            _mm512_maskz_loadu_pd(m, gin + r + j)));
      }
    }
}

__attribute__((target("avx512f"))) void relu_forward_avx512(real_t* out,
                                                            const real_t* x,
                                                            index_t n) {
  for (index_t i = 0; i < n; i += 8) {
    const __mmask8 m = lanes512(std::min<index_t>(8, n - i));
    _mm512_mask_storeu_pd(out + i, m,
                          relu512(_mm512_maskz_loadu_pd(m, x + i)));
  }
}

// acc[i] += g[i] where x[i] > 0: the sum is blended in only on those lanes,
// so the others keep their exact bits (-0.0 included). An ordered compare
// leaves NaN lanes untouched, as the scalar `if` does.
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

__attribute__((target("avx512f"))) void add_forward_avx512(real_t* out,
                                                           const real_t* a,
                                                           const real_t* b,
                                                           index_t n,
                                                           bool relu) {
  for (index_t i = 0; i < n; i += 8) {
    const __mmask8 m = lanes512(std::min<index_t>(8, n - i));
    const __m512d y = _mm512_add_pd(_mm512_maskz_loadu_pd(m, a + i),
                                    _mm512_maskz_loadu_pd(m, b + i));
    _mm512_mask_storeu_pd(out + i, m, relu ? relu512(y) : y);
  }
}

__attribute__((target("avx512f"))) void add_backward_avx512(
    real_t* acc0, real_t* acc1, const real_t* g, const real_t* relu_out,
    index_t n) {
  for (index_t i = 0; i < n; i += 8) {
    const __mmask8 m = lanes512(std::min<index_t>(8, n - i));
    const __m512d dy = dy512(g, relu_out, i, m);
    for (real_t* acc : {acc0, acc1})
      if (acc != nullptr)
        _mm512_mask_storeu_pd(
            acc + i, m, _mm512_add_pd(_mm512_maskz_loadu_pd(m, acc + i), dy));
  }
}

__attribute__((target("avx512f"))) void transpose_avx512(
    const real_t* src, index_t rows, index_t cols, index_t lds, real_t* dst,
    index_t ldd, real_t* sums) {
  for (index_t i = 0; i < rows; i += 8) {
    const index_t h = std::min<index_t>(8, rows - i);
    const __mmask8 hm = lanes512(h);
    __m512d s =
        sums ? _mm512_maskz_loadu_pd(hm, sums + i) : _mm512_setzero_pd();
    for (index_t j = 0; j < cols; j += 8) {
      const index_t w = std::min<index_t>(8, cols - j);
      __m512d r[8];
      load_rows512(src + i * lds + j, lds, h, w, r);
      transpose512(r);
#pragma GCC unroll 8
      for (int t = 0; t < 8; ++t)
        if (t < w) {
          _mm512_mask_storeu_pd(dst + (j + t) * ldd + i, hm, r[t]);
          if (sums) s = _mm512_add_pd(s, r[t]);
        }
    }
    if (sums) _mm512_mask_storeu_pd(sums + i, hm, s);
  }
}

// ---- AVX2 -----------------------------------------------------------------
// Full vectors load and store plainly; a tail of w < 4 lanes goes through
// vmaskmovpd.

__attribute__((target("avx2,fma"), always_inline)) inline __m256i lanes256(
    index_t w) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(w),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

__attribute__((target("avx2,fma"), always_inline)) inline __m256d load256(
    const real_t* p, index_t w) {
  return w >= 4 ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, lanes256(w));
}

__attribute__((target("avx2,fma"), always_inline)) inline void store256(
    real_t* p, index_t w, __m256d v) {
  if (w >= 4)
    _mm256_storeu_pd(p, v);
  else
    _mm256_maskstore_pd(p, lanes256(w), v);
}

__attribute__((target("avx2,fma"), always_inline)) inline __m256d relu256(
    __m256d y) {
  return _mm256_max_pd(y, _mm256_setzero_pd());
}

/// The w lanes of dy at index k (dy_at); +0.0 is all-zero bits, so the
/// masked-off lanes are an and.
__attribute__((target("avx2,fma"), always_inline)) inline __m256d dy256(
    const real_t* g, const real_t* relu_out, index_t k, index_t w) {
  const __m256d gv = load256(g + k, w);
  if (relu_out == nullptr) return gv;
  const __m256d pos = _mm256_cmp_pd(load256(relu_out + k, w),
                                    _mm256_setzero_pd(), _CMP_GT_OQ);
  return _mm256_and_pd(_mm256_add_pd(_mm256_setzero_pd(), gv), pos);
}

__attribute__((target("avx2,fma"), always_inline)) inline void load_rows256(
    const real_t* p, index_t ld, index_t rows, index_t w, __m256d (&r)[4]) {
#pragma GCC unroll 4
  for (int l = 0; l < 4; ++l)
    r[l] = l < rows ? load256(p + l * ld, w) : _mm256_setzero_pd();
}

/// In-register 4x4 transpose, r[l][t] -> r[t][l].
__attribute__((target("avx2,fma"), always_inline)) inline void transpose256(
    __m256d (&r)[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

__attribute__((target("avx2,fma"))) void bn_stats_avx2(const BnOperands& op,
                                                       real_t* sum,
                                                       real_t* sumsq) {
  for (index_t c0 = 0; c0 < op.c; c0 += 4) {
    const index_t rows = std::min<index_t>(4, op.c - c0);
    __m256d s = _mm256_setzero_pd(), q = _mm256_setzero_pd();
    for (index_t i = 0; i < op.n; ++i) {
      const real_t* p = op.x + row_at(op, i, c0);
      for (index_t j = 0; j < op.hw; j += 4) {
        const index_t w = std::min<index_t>(4, op.hw - j);
        __m256d r[4];
        load_rows256(p + j, op.hw, rows, w, r);
        transpose256(r);
#pragma GCC unroll 4
        for (int t = 0; t < 4; ++t)
          if (t < w) {
            s = _mm256_add_pd(s, r[t]);
            q = _mm256_fmadd_pd(r[t], r[t], q);
          }
      }
    }
    store256(sum + c0, rows, s);
    store256(sumsq + c0, rows, q);
  }
}

__attribute__((target("avx2,fma"))) void bn_grad_stats_avx2(
    const BnOperands& op, real_t* sum_dy, real_t* sum_dy_xh) {
  for (index_t c0 = 0; c0 < op.c; c0 += 4) {
    const index_t rows = std::min<index_t>(4, op.c - c0);
    const __m256d mean = load256(op.mean + c0, rows);
    const __m256d inv = load256(op.inv_std + c0, rows);
    __m256d s = _mm256_setzero_pd(), q = _mm256_setzero_pd();
    for (index_t i = 0; i < op.n; ++i) {
      const index_t r0 = row_at(op, i, c0);
      for (index_t j = 0; j < op.hw; j += 4) {
        const index_t w = std::min<index_t>(4, op.hw - j);
        __m256d d[4], x[4];
#pragma GCC unroll 4
        for (int l = 0; l < 4; ++l)
          d[l] = l < rows ? dy256(op.g, op.relu_out, r0 + l * op.hw + j, w)
                          : _mm256_setzero_pd();
        load_rows256(op.x + r0 + j, op.hw, rows, w, x);
        transpose256(d);
        transpose256(x);
#pragma GCC unroll 4
        for (int t = 0; t < 4; ++t)
          if (t < w) {
            const __m256d xh = _mm256_mul_pd(_mm256_sub_pd(x[t], mean), inv);
            s = _mm256_add_pd(s, d[t]);
            q = _mm256_fmadd_pd(d[t], xh, q);
          }
      }
    }
    store256(sum_dy + c0, rows, s);
    store256(sum_dy_xh + c0, rows, q);
  }
}

__attribute__((target("avx2,fma"))) void bn_normalize_avx2(
    const BnOperands& op, const real_t* gamma, const real_t* beta, bool relu,
    real_t* out) {
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const __m256d mean = _mm256_set1_pd(op.mean[ch]);
      const __m256d inv = _mm256_set1_pd(op.inv_std[ch]);
      const __m256d g = _mm256_set1_pd(gamma[ch]);
      const __m256d b = _mm256_set1_pd(beta[ch]);
      const index_t r = row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; j += 4) {
        const index_t w = std::min<index_t>(4, op.hw - j);
        const __m256d x = load256(op.x + r + j, w);
        const __m256d y =
            _mm256_fmadd_pd(g, _mm256_mul_pd(_mm256_sub_pd(x, mean), inv), b);
        store256(out + r + j, w, relu ? relu256(y) : y);
      }
    }
}

__attribute__((target("avx2,fma"))) void bn_dx_train_avx2(
    const BnOperands& op, const real_t* k, real_t count, const real_t* sum_dy,
    const real_t* sum_dy_xh, real_t* gin) {
  const __m256d cnt = _mm256_set1_pd(count);
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const __m256d mean = _mm256_set1_pd(op.mean[ch]);
      const __m256d inv = _mm256_set1_pd(op.inv_std[ch]);
      const __m256d kv = _mm256_set1_pd(k[ch]);
      const __m256d sdy = _mm256_set1_pd(sum_dy[ch]);
      const __m256d sdx = _mm256_set1_pd(sum_dy_xh[ch]);
      const index_t r = row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; j += 4) {
        const index_t w = std::min<index_t>(4, op.hw - j);
        const __m256d xh = _mm256_mul_pd(
            _mm256_sub_pd(load256(op.x + r + j, w), mean), inv);
        __m256d t =
            _mm256_fmsub_pd(cnt, dy256(op.g, op.relu_out, r + j, w), sdy);
        t = _mm256_fnmadd_pd(xh, sdx, t);
        store256(gin + r + j, w,
                 _mm256_fmadd_pd(kv, t, load256(gin + r + j, w)));
      }
    }
}

__attribute__((target("avx2,fma"))) void bn_dx_eval_avx2(const BnOperands& op,
                                                         const real_t* k,
                                                         real_t* gin) {
  for (index_t i = 0; i < op.n; ++i)
    for (index_t ch = 0; ch < op.c; ++ch) {
      const __m256d kv = _mm256_set1_pd(k[ch]);
      const index_t r = row_at(op, i, ch);
      for (index_t j = 0; j < op.hw; j += 4) {
        const index_t w = std::min<index_t>(4, op.hw - j);
        store256(gin + r + j, w,
                 _mm256_fmadd_pd(kv, dy256(op.g, op.relu_out, r + j, w),
                                 load256(gin + r + j, w)));
      }
    }
}

__attribute__((target("avx2,fma"))) void relu_forward_avx2(real_t* out,
                                                           const real_t* x,
                                                           index_t n) {
  for (index_t i = 0; i < n; i += 4) {
    const index_t w = std::min<index_t>(4, n - i);
    store256(out + i, w, relu256(load256(x + i, w)));
  }
}

__attribute__((target("avx2,fma"))) void vadd_where_positive_avx2(
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

__attribute__((target("avx2,fma"))) void add_forward_avx2(real_t* out,
                                                          const real_t* a,
                                                          const real_t* b,
                                                          index_t n,
                                                          bool relu) {
  for (index_t i = 0; i < n; i += 4) {
    const index_t w = std::min<index_t>(4, n - i);
    const __m256d y = _mm256_add_pd(load256(a + i, w), load256(b + i, w));
    store256(out + i, w, relu ? relu256(y) : y);
  }
}

__attribute__((target("avx2,fma"))) void add_backward_avx2(
    real_t* acc0, real_t* acc1, const real_t* g, const real_t* relu_out,
    index_t n) {
  for (index_t i = 0; i < n; i += 4) {
    const index_t w = std::min<index_t>(4, n - i);
    const __m256d dy = dy256(g, relu_out, i, w);
    for (real_t* acc : {acc0, acc1})
      if (acc != nullptr)
        store256(acc + i, w, _mm256_add_pd(load256(acc + i, w), dy));
  }
}

__attribute__((target("avx2,fma"))) void transpose_avx2(
    const real_t* src, index_t rows, index_t cols, index_t lds, real_t* dst,
    index_t ldd, real_t* sums) {
  for (index_t i = 0; i < rows; i += 4) {
    const index_t h = std::min<index_t>(4, rows - i);
    __m256d s = sums ? load256(sums + i, h) : _mm256_setzero_pd();
    for (index_t j = 0; j < cols; j += 4) {
      const index_t w = std::min<index_t>(4, cols - j);
      __m256d r[4];
      load_rows256(src + i * lds + j, lds, h, w, r);
      transpose256(r);
#pragma GCC unroll 4
      for (int t = 0; t < 4; ++t)
        if (t < w) {
          store256(dst + (j + t) * ldd + i, h, r[t]);
          if (sums) s = _mm256_add_pd(s, r[t]);
        }
    }
    if (sums) store256(sums + i, h, s);
  }
}

#endif  // x86

}  // namespace

// Each entry point runs its tier's body, or the scalar loops on the scalar
// tier and NEON.
#if defined(__x86_64__) || defined(__i386__)
#define HYLO_X86_DISPATCH(fn, ...)      \
  switch (active()) {                   \
    case Tier::kAvx512:                 \
      return fn##_avx512(__VA_ARGS__);  \
    case Tier::kAvx2:                   \
      return fn##_avx2(__VA_ARGS__);    \
    default:                            \
      break;                            \
  }
#else
#define HYLO_X86_DISPATCH(fn, ...)
#endif

void bn_stats(const BnOperands& op, real_t* sum, real_t* sumsq) {
  HYLO_X86_DISPATCH(bn_stats, op, sum, sumsq)
  bn_stats_ref(op, sum, sumsq);
}

void bn_normalize(const BnOperands& op, const real_t* gamma,
                  const real_t* beta, bool relu, real_t* out) {
  HYLO_X86_DISPATCH(bn_normalize, op, gamma, beta, relu, out)
  bn_normalize_ref(op, gamma, beta, relu, out);
}

void bn_grad_stats(const BnOperands& op, real_t* sum_dy, real_t* sum_dy_xh) {
  HYLO_X86_DISPATCH(bn_grad_stats, op, sum_dy, sum_dy_xh)
  bn_grad_stats_ref(op, sum_dy, sum_dy_xh);
}

void bn_dx_train(const BnOperands& op, const real_t* k, real_t count,
                 const real_t* sum_dy, const real_t* sum_dy_xh, real_t* gin) {
  HYLO_X86_DISPATCH(bn_dx_train, op, k, count, sum_dy, sum_dy_xh, gin)
  bn_dx_train_ref(op, k, count, sum_dy, sum_dy_xh, gin);
}

void bn_dx_eval(const BnOperands& op, const real_t* k, real_t* gin) {
  HYLO_X86_DISPATCH(bn_dx_eval, op, k, gin)
  bn_dx_eval_ref(op, k, gin);
}

void relu_forward(real_t* out, const real_t* x, index_t n) {
  HYLO_X86_DISPATCH(relu_forward, out, x, n)
  for (index_t i = 0; i < n; ++i) out[i] = relu_of(x[i]);
}

void vadd_where_positive(real_t* acc, const real_t* g, const real_t* x,
                         index_t n) {
  HYLO_X86_DISPATCH(vadd_where_positive, acc, g, x, n)
  for (index_t i = 0; i < n; ++i)
    if (x[i] > 0.0) acc[i] += g[i];
}

void add_forward(real_t* out, const real_t* a, const real_t* b, index_t n,
                 bool relu) {
  HYLO_X86_DISPATCH(add_forward, out, a, b, n, relu)
  for (index_t i = 0; i < n; ++i)
    out[i] = relu ? relu_of(a[i] + b[i]) : a[i] + b[i];
}

void add_backward(real_t* acc0, real_t* acc1, const real_t* g,
                  const real_t* relu_out, index_t n) {
  HYLO_X86_DISPATCH(add_backward, acc0, acc1, g, relu_out, n)
  for (index_t i = 0; i < n; ++i) {
    const real_t dy = dy_at(g, relu_out, i);
    if (acc0 != nullptr) acc0[i] += dy;
    if (acc1 != nullptr) acc1[i] += dy;
  }
}

void transpose(const real_t* src, index_t rows, index_t cols, index_t lds,
               real_t* dst, index_t ldd, real_t* sums) {
  HYLO_X86_DISPATCH(transpose, src, rows, cols, lds, dst, ldd, sums)
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) {
      dst[j * ldd + i] = src[i * lds + j];
      if (sums != nullptr) sums[i] += src[i * lds + j];
    }
}

#undef HYLO_X86_DISPATCH

}  // namespace hylo::kern
