#pragma once
/// \file ops.hpp
/// BLAS-style dense kernels on Matrix. All GEMM variants are blocked and
/// written cache-friendly for row-major storage; they are the compute
/// backbone of both the NN framework (conv = im2col + gemm) and the
/// second-order machinery (Gram/kernel matrices, SMW applications).
/// The GEMM/Gram family and the Cholesky trailing update are multi-threaded
/// over output row blocks through hylo::par (HYLO_NUM_THREADS) and dispatch
/// between the scalar loop nests below and the packed SIMD microkernels
/// (gemm_packed.hpp) via hylo::kern::active() (HYLO_KERNEL). Results are
/// bitwise deterministic at any thread count *within a kernel tier*; the
/// scalar tier preserves the original serial accumulation order exactly —
/// see DESIGN.md §8 and §13.

#include <vector>

#include "hylo/tensor/matrix.hpp"

namespace hylo {

/// C = alpha * A * B + beta * C.  A: m x k, B: k x n, C: m x n.
void gemm(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha = 1.0,
          real_t beta = 0.0);

/// C = alpha * A^T * B + beta * C.  A: k x m, B: k x n, C: m x n.
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha = 1.0,
             real_t beta = 0.0);

/// C = alpha * A * B^T + beta * C.  A: m x k, B: n x k, C: m x n.
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha = 1.0,
             real_t beta = 0.0);

/// C = alpha * A^T * diag(s) * B + beta * C.  A: k x m, s: k-vector (k x 1
/// or 1 x k), B: k x n. The row scaling is fused into the rank-1 update
/// coefficients — no scaled copy of A is formed. With alpha == 1 the result
/// is bitwise identical to scaling A's rows first and calling gemm_tn.
void gemm_tn_diag(const Matrix& a, const Matrix& s, const Matrix& b, Matrix& c,
                  real_t alpha = 1.0, real_t beta = 0.0);

/// C += alpha * A * B on strided row-major blocks, e.g. sub-blocks of one
/// matrix: A is m x k at a (row stride lda), B k x n at b, C m x n at c; C
/// overlaps neither. Per element one multiply-add per k, ascending, from C's
/// value — gemm's chain. With `b_lower`, B is lower triangular and C is +0.0
/// on entry, and the products B's zero triangle contributes ahead of each
/// element's first nonzero term are skipped: exact zeros added to +0.0, so
/// the bits equal the full product on finite operands.
void gemm_strided(index_t m, index_t n, index_t k, const real_t* a,
                  index_t lda, const real_t* b, index_t ldb, real_t* c,
                  index_t ldc, real_t alpha, bool b_lower);

/// Allocating forms.
Matrix matmul(const Matrix& a, const Matrix& b);
Matrix matmul_tn(const Matrix& a, const Matrix& b);
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Symmetric rank-k: C = A * A^T (m x m from m x k). Computes one triangle
/// and mirrors it, so C is exactly symmetric.
Matrix gram_nt(const Matrix& a);
/// C = A^T * A (k x k from m x k), the Kronecker-factor Gram. Exactly
/// symmetric, and bitwise equal to gram_nt(Aᵀ) in every tier: the packed
/// path reads A's columns straight into the same triangle tile loop, with
/// no transposed copy.
Matrix gram_tn(const Matrix& a);
/// C = Xᵀ * X for a square lower-triangular X (its strict upper triangle
/// must be zero). Skips the zero triangle — n³/3 flops against gram_tn's
/// n³ — and, the skipped terms being exact zeros, equals gram_tn(X) bit for
/// bit on any finite X.
Matrix gram_tn_tril(const Matrix& x);

/// The stat_decay running Kronecker factor E[aaᵀ] of one layer from its
/// per-rank captures A_r (m_r x n each, m = Σ m_r > 0):
///   fresh = (Σ_r A_rᵀA_r) · (1/m),   out = fma(1 − decay, fresh, old·decay)
/// (out = fresh when old is null). Each rank's Gram is gram_tn's chain and
/// the ranks are added in rank order, so the result is bitwise equal to
/// gram_tn per rank, +=, *= 1/m and that std::fma blend. On x86 tiers it is
/// one pass over the upper triangle's tiles with no n x n temporary; other
/// tiers run exactly those loops. Exactly symmetric.
Matrix running_factor(const std::vector<Matrix>& ranks, const Matrix* old,
                      real_t decay);

/// Symmetric rank-k update of a trailing block, in place:
///   c(i, j) += alpha * Σ_{k0 <= k < k1} c(i, k) * c(j, k)   for k1 <= j <= i,
/// i.e. the lower triangle of C₂₂ += alpha·P·Pᵀ with C₂₂ = c[k1:n, k1:n] and
/// P = c[k1:n, k0:k1] — the right-looking Cholesky trailing update. Nothing
/// above the diagonal is read or written. Each element accumulates one fused
/// multiply-add per k in ascending order, in every tier, so the result is
/// the same bits in every tier and at any thread count.
void syrk_trailing(Matrix& c, index_t k0, index_t k1, real_t alpha);

/// y = A * x for x given as flat vector; y resized to a.rows().
void matvec(const Matrix& a, const std::vector<real_t>& x,
            std::vector<real_t>& y);
/// y = A^T * x; y resized to a.cols().
void matvec_t(const Matrix& a, const std::vector<real_t>& x,
              std::vector<real_t>& y);

/// Elementwise (Hadamard) product, used for kernel K = (AA^T) ∘ (GG^T).
Matrix hadamard(const Matrix& a, const Matrix& b);

/// In-place: a(i,j) *= b(i,j).
void hadamard_inplace(Matrix& a, const Matrix& b);

/// a += alpha * b  (axpy on matrices).
void axpy(Matrix& a, const Matrix& b, real_t alpha);

/// Add alpha to the diagonal in place (damping).
void add_diagonal(Matrix& a, real_t alpha);

/// Frobenius norm, squared Frobenius norm, dot product of flattened views.
real_t frobenius_norm(const Matrix& a);
real_t frobenius_norm_sq(const Matrix& a);
real_t dot(const Matrix& a, const Matrix& b);

/// Euclidean norm of each row; returns rows()-length vector. Used by KIS
/// scoring (score_j = ||A_j|| * ||G_j||).
std::vector<real_t> row_norms(const Matrix& a);

/// Largest absolute element.
real_t max_abs(const Matrix& a);

/// Trace of a square matrix.
real_t trace(const Matrix& a);

/// Stack matrices vertically (all must share cols). This is the "gather"
/// data movement in the distributed pipeline: A^s = [A_1^s; ...; A_P^s].
Matrix vstack(const std::vector<Matrix>& parts);

/// Block-diagonal assembly: Y = diag(Y_1, ..., Y_P). Used for KID factors.
Matrix block_diag(const std::vector<Matrix>& blocks);

/// Max |a - b| over elements; requires identical shape.
real_t max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace hylo
