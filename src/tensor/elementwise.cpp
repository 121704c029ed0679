#include "hylo/tensor/elementwise.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "hylo/tensor/kernel_dispatch.hpp"
#include "x86_vec.hpp"

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

}  // namespace

// ---- x86 tiers -------------------------------------------------------------
// elementwise_x86.inc holds each body once; every tier compiles it over its
// vector ops (x86_vec.hpp).

#if defined(__x86_64__) || defined(__i386__)
namespace avx512 {
namespace {
#define HYLO_TARGET HYLO_AVX512_TARGET
#include "elementwise_x86.inc"
#undef HYLO_TARGET
}  // namespace
}  // namespace avx512

namespace avx2 {
namespace {
#define HYLO_TARGET HYLO_AVX2_TARGET
#include "elementwise_x86.inc"
#undef HYLO_TARGET
}  // namespace
}  // namespace avx2
#endif  // x86

// Each entry point runs its tier's body, or the scalar loops on the scalar
// tier and NEON.
#if defined(__x86_64__) || defined(__i386__)
#define HYLO_X86_DISPATCH(fn, ...)    \
  switch (active()) {                 \
    case Tier::kAvx512:               \
      return avx512::fn(__VA_ARGS__); \
    case Tier::kAvx2:                 \
      return avx2::fn(__VA_ARGS__);   \
    default:                          \
      break;                          \
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
