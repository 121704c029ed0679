#pragma once
/// \file gemm_packed.hpp
/// Packed, cache-blocked GEMM with explicit SIMD microkernels — the
/// DESIGN.md §13 fast path behind hylo::gemm, the Gram products, the
/// Cholesky trailing update and the convolution passes. Layout
/// (BLIS-style):
///
///   * B is packed once per call into KC-deep blocks of NR-wide column
///     panels (`bpack[q][kk*NR + c]`), A is packed per (MC, KC) block into
///     MR-tall row panels (`apack[p][kk*MR + r]`), alpha folded into A.
///   * An MRxNR register-tiled microkernel (8x4 AVX2 / 8x16 AVX-512, two
///     vectors per row / 8x4 NEON, selected by hylo::kern::active())
///     accumulates C-tile += Apanel · Bpanel with the k loop innermost, each
///     C element the same fma chain whatever the tile width. On x86 the fma
///     chain is written once (tensor/gemm_x86.inc, compiled per tier over
///     the vector ops of tensor/x86_vec.hpp) as a template whose A and B
///     sources are parameters: the GEMMs read packed panels, the direct conv
///     passes read the phase planes and gout in place, a B row whole or as
///     two half-rows.
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

/// C += alpha * A·B on strided row-major blocks (hylo::gemm_strided): A is
/// m x k at a (row stride lda), B k x n at b, C m x n at c; C overlaps
/// neither. With `b_lower`, B is lower triangular and C is +0.0 on entry:
/// each tile of C starts its k loop at its first column.
void packed_gemm_strided(index_t m, index_t n, index_t k, const real_t* a,
                         index_t lda, const real_t* b, index_t ldb, real_t* c,
                         index_t ldc, real_t alpha, bool b_lower);

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

/// hylo::running_factor on an x86 tier (AVX2, AVX-512; the other tiers run
/// its reference loops): out (n x n) = Σ_r A_rᵀA_r · inv_m,
/// blended as fma(1 − decay, ·, old·decay) when old != nullptr, in one pass
/// over 8 x NR tiles of the upper triangle, each mirrored once.
void packed_running_factor(const std::vector<Matrix>& ranks, real_t inv_m,
                           const Matrix* old, real_t decay, Matrix& out);

/// Column c of a Cholesky panel held transposed (hylo::try_cholesky): panel
/// column u at t + u·ld, one entry per row. Rows [r0, r1) become
/// (t[c·ld + r] − Σ_{u<c} t[u·ld + r]·t[u·ld + c])·inv, one fma per u,
/// ascending; the rows run as vector lanes in the SIMD tiers.
void chol_column(real_t* t, index_t ld, index_t c, index_t r0, index_t r1,
                 real_t inv);

/// One pass over p[0, n): the sum of squares (vdot's reduction in the SIMD
/// tiers, the ascending loop in scalar) and whether every value is finite.
struct NormScan {
  real_t sumsq = 0.0;
  bool finite = true;
};
NormScan norm_scan(const real_t* p, index_t n);

// ---- Tier-dispatched vector helpers -----------------------------------
// These dispatch on kern::active() internally; the scalar tier runs the
// plain ascending loop (bitwise identical to the seed kernels). vmul and
// vscale are elementwise and therefore bitwise identical across tiers; vdot
// uses lane-partial accumulators in SIMD tiers, folded pairwise (fixed,
// deterministic reduction order within a tier, reassociated relative to
// scalar; on x86 one fma per tail element). The nn layers' elementwise
// passes are in elementwise.hpp.

/// a[i] *= b[i].
void vmul(real_t* a, const real_t* b, index_t n);
/// dst[i] = s * src[i].
void vscale(real_t* dst, const real_t* src, real_t s, index_t n);
/// Dot product of two contiguous vectors.
real_t vdot(const real_t* a, const real_t* b, index_t n);

// ---- Convolution (SIMD tiers) ------------------------------------------
// Each conv pass takes one of two routes, picked from the geometry and the
// tier alone (conv_direct), the same for all three passes of a layer:
//
//   * Direct (AVX2, AVX-512; every conv the model zoo builds): no im2col.
//     The forward reads its B rows in place from the sample's stride² phase
//     planes, the wgrad its A broadcasts from the zero-padded sample, and
//     the dgrad adds per-tap register tiles into each gin stride phase.
//     Rows narrower than NR run as two-row tiles, NR/2 lanes from each.
//   * Materialized (NEON, and x86 rows under NR/2 after the phase split):
//     im2col per sample, then the tier's packed GEMMs, run inline inside
//     Conv2d's parallel chunks.
//
// Either way every pass moves values in the order the materialized GEMMs
// use and does no extra arithmetic, so its bits equal them
// (test_kernel_tiers FusedConvEqualsMaterializedGemmBitwise). Reading the
// planes through offsets needs every window inside the padded input,
// H + 2·pad >= kernel and W + 2·pad >= kernel, which Conv2d::infer_shape
// checks. These functions are serial by design — Conv2d parallelizes over
// samples (forward/dgrad) and output channels (wgrad) around them.

/// Prepacked conv weight operand: MR-interleaved A-side panels per KC block
/// of W_main (direct forward) or per (channel block, tap) over o (direct
/// dgrad), or W_main itself (materialized route); `bias` is w(:, patch)
/// (forward packs only).
struct PackedW {
  Tier tier = Tier::kScalar;
  index_t rows = 0;  ///< logical row count of the packed operand
  index_t cols = 0;  ///< logical column count of the packed operand
  std::vector<real_t> data;
  std::vector<real_t> bias;
  Matrix main;  ///< W_main (c_out x patch), materialized route only
};

/// True when the conv passes of geometry `g` take the direct path in the
/// active tier: a tier with direct kernels (AVX2, AVX-512) and tile rows at
/// least NR/2 wide, the output rows and those of each gin stride phase.
bool conv_direct(const ConvGeometry& g);

/// Weight operand of conv_forward for geometry `g`: W_main (c_out x patch),
/// A-side packed for the direct path; also captures the bias column.
PackedW pack_conv_forward_w(const Matrix& w_aug, const ConvGeometry& g);

/// Weight operand of conv_dgrad for geometry `g`: packed per channel block
/// and tap for the direct path, or W_main.
PackedW pack_conv_dgrad_w(const Matrix& w_aug, const ConvGeometry& g);

/// out_plane (c_out x s, NCHW plane of one sample) = W_main · cols(x)ᵀ +
/// bias, each element the bias then a k-ascending fma chain. capture_row !=
/// nullptr receives the spatial-sum capture Σ_p cols(p, j) for j in
/// [0, patch) (caller owns the bias slot), summed lane-ascending within each
/// NR-wide block of flat positions, zero pad lanes included, then
/// block-ascending.
void conv_forward(const PackedW& pw, const real_t* x, const ConvGeometry& g,
                  real_t* out_plane, real_t* capture_row);

/// gw rows [o0, o1) += Σ_i gout_i[o0:o1, :] · [cols(x_i) | 1] over every
/// sample (the augmented ones column accumulates the bias gradient), each
/// element sample-ascending then position-ascending.
void conv_wgrad(const Tensor4& gout, const Tensor4& x, const ConvGeometry& g,
                Matrix& gw, index_t o0, index_t o1);

/// gin_plane (one C x H x W sample) += col2im(gout_planeᵀ · W_main), bitwise
/// equal to col2im_add of that GEMM onto the same gin: each term is the
/// o-ascending chain from +0.0, added oy-ascending then ox-ascending.
void conv_dgrad(const real_t* gout_plane, const PackedW& pw,
                const ConvGeometry& g, real_t* gin_plane);

}  // namespace hylo::kern
