#pragma once
/// \file elementwise.hpp
/// hylo::kern's per-element passes of the nn layers (DESIGN.md §13,
/// "Elementwise kernels"): BatchNorm's statistics, normalize and input
/// gradient, ReLU, and Add, a BatchNorm or Add optionally running the ReLU
/// that consumes it; plus the blocked transpose the direct conv wgrad shares
/// with them.
///
/// Every function dispatches on kern::active(), and every tier gives each
/// output the bits of the scalar tier's loops. Those loops are the
/// reference: they write std::fma wherever a product feeds a sum, so they do
/// not depend on -ffp-contract or -march. BatchNorm's sums run one channel
/// per vector lane (8 on AVX-512, 4 on AVX2): blocks of NCHW rows are
/// transposed in registers, and each lane keeps the scalar chain's order,
/// samples ascending, then positions ascending, so no sum is reassociated.
/// The other passes vectorize across positions. NEON runs the scalar loops.

#include "hylo/common/types.hpp"

namespace hylo::kern {

/// The operands of the BatchNorm kernels: an NCHW tensor of n samples, c
/// channels and hw positions per channel, and its per-channel statistics.
struct BnOperands {
  index_t n = 0, c = 0, hw = 0;
  const real_t* x = nullptr;        ///< the layer input
  const real_t* mean = nullptr;     ///< per channel
  const real_t* inv_std = nullptr;  ///< per channel
  /// Backward: dy, the gradient of the layer output y. With relu_out set,
  /// g is instead the gradient of the fused ReLU's output relu_out, and
  /// dy = relu_out > 0 ? 0.0 + g : +0.0 — what the unfused ReLU backward
  /// leaves in a zero-filled buffer, since relu_out > 0 exactly when y > 0.
  const real_t* g = nullptr;
  const real_t* relu_out = nullptr;
};

/// Per channel: sum = Σ x and sumsq = Σ x², the chains s += x and
/// q = fma(x, x, q) over samples ascending, then positions ascending.
void bn_stats(const BnOperands& op, real_t* sum, real_t* sumsq);

/// out = fma(γ, x̂, β) with x̂ = (x − mean)·inv_std; with `relu`,
/// max(that, 0) (x > 0 ? x : +0.0, NaN to +0.0).
void bn_normalize(const BnOperands& op, const real_t* gamma,
                  const real_t* beta, bool relu, real_t* out);

/// Per channel: sum_dy = Σ dy and sum_dy_xh = Σ dy·x̂, the chains s += dy
/// and q = fma(dy, x̂, q), in bn_stats' order.
void bn_grad_stats(const BnOperands& op, real_t* sum_dy, real_t* sum_dy_xh);

/// Training input gradient, per channel scalars k, sum_dy and sum_dy_xh:
/// gin = fma(k, fma(−x̂, sum_dy_xh, fma(count, dy, −sum_dy)), gin).
void bn_dx_train(const BnOperands& op, const real_t* k, real_t count,
                 const real_t* sum_dy, const real_t* sum_dy_xh, real_t* gin);

/// Eval input gradient: gin = fma(k, dy, gin).
void bn_dx_eval(const BnOperands& op, const real_t* k, real_t* gin);

/// out[i] = x[i] > 0 ? x[i] : +0.0 (ReLU's forward; NaN to +0.0).
void relu_forward(real_t* out, const real_t* x, index_t n);

/// acc[i] += g[i] where x[i] > 0 (ReLU's backward); every other acc[i],
/// NaN x included, keeps its bits.
void vadd_where_positive(real_t* acc, const real_t* g, const real_t* x,
                         index_t n);

/// out[i] = a[i] + b[i], then max(·, 0) with `relu` (Add's forward).
void add_forward(real_t* out, const real_t* a, const real_t* b, index_t n,
                 bool relu);

/// Add's backward: acc0[i] += dy[i], then acc1[i] += dy[i], each skipped
/// when null (the two may be one buffer). dy = g, or with relu_out,
/// relu_out[i] > 0 ? 0.0 + g[i] : +0.0, added on every lane so that a −0.0
/// accumulator becomes +0.0 as under the unfused ReLU.
void add_backward(real_t* acc0, real_t* acc1, const real_t* g,
                  const real_t* relu_out, index_t n);

/// dst[j·ldd + i] = src[i·lds + j] for i < rows, j < cols; with sums,
/// also sums[i] += src row i, the chain over j ascending.
void transpose(const real_t* src, index_t rows, index_t cols, index_t lds,
               real_t* dst, index_t ldd, real_t* sums);

}  // namespace hylo::kern
