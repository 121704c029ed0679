#pragma once
/// \file gemm_packed.hpp
/// Packed, cache-blocked GEMM with explicit SIMD microkernels — the
/// DESIGN.md §13 fast path behind hylo::gemm, the Gram products, the
/// Cholesky trailing update and the fused-im2col convolution. Layout
/// (BLIS-style):
///
///   * B is packed once per call into KC-deep blocks of NR-wide column
///     panels (`bpack[q][kk*NR + c]`), A is packed per (MC, KC) block into
///     MR-tall row panels (`apack[p][kk*MR + r]`), alpha folded into A.
///   * An MRxNR register-tiled microkernel (8x4 AVX2 / 8x8 AVX-512 /
///     8x4 NEON, selected by hylo::kern::active()) accumulates
///     C-tile += Apanel · Bpanel with the k loop innermost.
///   * Edge tiles (m % MR, n % NR, and the symmetric kernels' diagonal
///     straddle) run the same microkernel on a copy-in/copy-out scratch
///     tile, so every element sees the identical fma chain regardless of
///     tiling.
///
/// Determinism: for each C element the accumulation is strictly ascending in
/// k (KC blocks outermost, kk inside the microkernel), independent of the
/// thread partition, tile alignment, or edge handling — results are bitwise
/// identical at any thread count within a tier. Packed entry points
/// partition output rows through hylo::par with an MR-aligned grain and
/// declare the same audit footprints as the scalar kernels.
///
/// All packed_gemm_* entry points accumulate alpha * op(A)·op(B) onto an
/// already beta-prepared C and require kern::active() != Tier::kScalar.

#include <vector>

#include "hylo/tensor/kernel_dispatch.hpp"
#include "hylo/tensor/matrix.hpp"
#include "hylo/tensor/tensor4.hpp"

namespace hylo::kern {

/// C += alpha * A·B (A: m x k, B: k x n).
void packed_gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha);

/// C += alpha * Aᵀ·diag(s)·B (A: k x m, s: k or nullptr for identity).
void packed_gemm_tn(const Matrix& a, const real_t* s, const Matrix& b,
                    Matrix& c, real_t alpha);

/// C += alpha * A·Bᵀ (A: m x k, B: n x k).
void packed_gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha);

/// C = A·Aᵀ, exact-symmetric: the upper triangle is computed through the
/// packed kernel (tiles fully below the diagonal are skipped, straddling
/// tiles write only j >= i) and mirrored once per row block, so
/// C(i,j) and C(j,i) are the same double. C must be m x m, zeroed.
void packed_gram_nt(const Matrix& a, Matrix& c);

/// C = Aᵀ·A (A: k x m) through the same triangle tile loop as
/// packed_gram_nt, reading A's columns in the pack accessors (no transposed
/// copy); bitwise equal to packed_gram_nt(Aᵀ). With `tril`, A is square and
/// lower triangular and each tile skips the rows where A is zero. C must be
/// m x m, zeroed.
void packed_gram_tn(const Matrix& a, Matrix& c, bool tril);

/// Lower triangle of C₂₂ += alpha·P·Pᵀ in place, with C₂₂ = c[k1:n, k1:n]
/// and P = c[k1:n, k0:k1] (c square, n x n). Every element accumulates one
/// FMA per k, ascending.
void packed_syrk_trailing(Matrix& c, index_t k0, index_t k1, real_t alpha);

// ---- Tier-dispatched vector helpers -----------------------------------
// These dispatch on kern::active() internally; the scalar tier runs the
// plain ascending loop (bitwise identical to the seed kernels). vmul,
// vscale and vadd_where_positive are elementwise and therefore bitwise
// identical across tiers; vdot uses lane-partial accumulators in SIMD tiers
// (fixed, deterministic reduction order within a tier, reassociated
// relative to scalar).

/// a[i] *= b[i].
void vmul(real_t* a, const real_t* b, index_t n);
/// dst[i] = s * src[i].
void vscale(real_t* dst, const real_t* src, real_t s, index_t n);
/// acc[i] += g[i] where x[i] > 0 (ReLU's backward); every other acc[i],
/// NaN x included, keeps its bits.
void vadd_where_positive(real_t* acc, const real_t* g, const real_t* x,
                         index_t n);
/// Dot product of two contiguous vectors.
real_t vdot(const real_t* a, const real_t* b, index_t n);

// ---- Fused-im2col convolution (SIMD tiers) ----------------------------
// The conv GEMMs consume im2col patches straight from the NCHW sample, so
// no per-sample patch matrix (the scalar tier's Conv2d::cols_) is ever
// materialized. The forward and wgrad B packs first copy the sample into a
// per-thread zero-padded scratch, C x (H+2·pad) x (W+2·pad); patch element
// (j, p) is then xp[patch_off(j) + pos_off(p)], read through two offset
// tables with no bounds test. That needs every window inside the padded
// input, H + 2·pad >= kernel and W + 2·pad >= kernel, which
// Conv2d::infer_shape checks. Every pass moves values and does no extra
// arithmetic, so its bits equal the materialized GEMMs (test_kernel_tiers
// FusedConvEqualsMaterializedGemmBitwise). These functions are serial by
// design — Conv2d parallelizes over samples (forward/dgrad) and output
// channels (wgrad) around them.

/// Prepacked conv weight operand: MR-interleaved A-side panels per KC block
/// of W_main (forward) or W_mainᵀ (dgrad); `bias` is w(:, patch) (forward
/// packs only).
struct PackedW {
  Tier tier = Tier::kScalar;
  index_t rows = 0;  ///< logical row count of the packed operand
  index_t cols = 0;  ///< logical column count of the packed operand
  std::vector<real_t> data;
  std::vector<real_t> bias;
};

/// A-side pack of W_main (c_out x patch) for the forward GEMM
/// out_plane = W_main · colsᵀ; also captures the bias column.
PackedW pack_conv_forward_w(const Matrix& w_aug);

/// A-side pack of W_mainᵀ (patch x c_out) for the data-gradient GEMM
/// dcolsᵀ = W_mainᵀ · gout_plane.
PackedW pack_conv_dgrad_w(const Matrix& w_aug);

/// out_plane (c_out x s, NCHW plane of one sample) = W_main · cols(x)ᵀ +
/// bias, patches fused. capture_row != nullptr receives the spatial-sum
/// capture Σ_p cols(p, j) for j in [0, patch) (caller owns the bias slot),
/// summed lane-ascending within each NR-wide block of positions, then
/// block-ascending.
void packed_conv_forward(const PackedW& pw, const real_t* x,
                         const ConvGeometry& g, real_t* out_plane,
                         real_t* capture_row);

/// gw rows [o0, o1) += gout_plane[o0:o1, :] · [cols(x) | 1] for one sample
/// (the augmented ones column accumulates the bias gradient).
void packed_conv_wgrad(const real_t* gout_plane, const real_t* x,
                       const ConvGeometry& g, Matrix& gw, index_t o0,
                       index_t o1);

/// gin_plane (one C x H x W sample) += col2im(gout_planeᵀ · W_main), fused:
/// the GEMM runs transposed, dcolsᵀ = W_mainᵀ · gout_plane with gout's
/// contiguous rows as the B panels, and col2im adds contiguous row runs of
/// dcolsᵀ. Bitwise equal to col2im_add(goutᵀ · W_main) onto the same gin.
void packed_conv_dgrad(const real_t* gout_plane, const PackedW& pw,
                       const ConvGeometry& g, real_t* gin_plane);

}  // namespace hylo::kern
