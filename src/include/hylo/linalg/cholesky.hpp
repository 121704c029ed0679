#pragma once
/// \file cholesky.hpp
/// Cholesky factorization, SPD solves and the SPD inverse. Used for every
/// symmetric positive-definite inversion in the library: damped kernel
/// matrices (K + αI) of HyLo-KIS and SNGD, solved per step against the
/// factor, and Kronecker factors (AᵀA + γI) of KFAC and KBFGS, inverted
/// explicitly once per refresh.
///
/// The factorization is right-looking and blocked: each kCholeskyPanel-wide
/// panel runs the unblocked dot-form loops, then one symmetric rank-k update
/// (syrk_trailing, on the packed GEMM tiers) subtracts it from the trailing
/// lower triangle in place. Per element that is the unblocked chain — one
/// FMA per k, ascending — so L has the same bits as the unblocked algorithm
/// in every kernel tier and at any thread count.

#include <vector>

#include "hylo/tensor/matrix.hpp"

namespace hylo {

/// Panel width of the blocked factorization, and the size below which the
/// triangular inverse stops splitting. A constant, like the packed GEMM's
/// kKC/kMC.
inline constexpr index_t kCholeskyPanel = 32;

/// Lower-triangular Cholesky factor L with A = L Lᵀ. Throws hylo::Error if A
/// is not (numerically) positive definite.
Matrix cholesky(const Matrix& a);

/// Attempt factorization; returns false instead of throwing on a
/// non-positive or non-finite pivot (caller typically increases damping and
/// retries). Reads only the lower triangle of A; the upper triangle of L is
/// exactly zero. Factors in place in `l`, with no other n x n buffer. With
/// `diag`, its n values stand in for A's diagonal (a damped factor without a
/// damped copy of A).
bool try_cholesky(const Matrix& a, Matrix& l, const real_t* diag = nullptr);

/// Solve L Lᵀ x = b in place for one right-hand side (b.size() == n).
void cholesky_solve_inplace(const Matrix& l, std::vector<real_t>& b);

/// Solve L Lᵀ X = B for a matrix of right-hand sides (B: n x k).
Matrix cholesky_solve(const Matrix& l, const Matrix& b);

/// A⁻¹ = L⁻ᵀL⁻¹ from the Cholesky factor L of A: a blocked triangular
/// inverse, in place in L (pass an rvalue to spare the copy), whose
/// off-diagonal blocks run on the GEMM tiers, then gram_tn_tril(L⁻¹). About
/// 4n³/3 flops (against ~2.3n³ for cholesky_solve(L, I)); the result is
/// exactly symmetric and the same bits at any thread count within a kernel
/// tier.
Matrix cholesky_inverse(Matrix l);

/// Inverse of an SPD matrix: cholesky_inverse(cholesky(a)).
Matrix spd_inverse(const Matrix& a);

/// X = A⁻¹ B for SPD A.
Matrix spd_solve(const Matrix& a, const Matrix& b);

}  // namespace hylo
