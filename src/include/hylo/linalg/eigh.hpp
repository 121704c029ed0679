#pragma once
/// \file eigh.hpp
/// Dense symmetric eigendecomposition: Householder reduction to tridiagonal
/// form, then implicit-shift QL on the tridiagonal (EISPACK tred2/tql2,
/// Golub–Van Loan §8.3), about 9n³ flops with eigenvectors. Used by EKFAC
/// (the Kronecker-factor eigenbasis) and the kernel-rank analysis of
/// Fig. 10. Plain serial loops: the result is deterministic and does not
/// depend on HYLO_KERNEL or HYLO_NUM_THREADS.

#include <vector>

#include "hylo/tensor/matrix.hpp"

namespace hylo {

/// Result of eigh(): eigenvalues ascending; eigenvectors[:, i] pairs with
/// eigenvalues[i] (column eigenvectors, V diag(w) Vᵀ = A).
struct EighResult {
  std::vector<real_t> eigenvalues;
  Matrix eigenvectors;
};

/// Full symmetric eigendecomposition. `a` must be symmetric; only its upper
/// triangle is read. Any finite input works: it is scaled by the power of
/// two nearest 1 / max|a_ij| (exact) and the eigenvalues are scaled back.
/// A NaN or ±Inf in the upper triangle, or an eigenvalue that needs more
/// than 30 QL iterations, gives all-NaN eigenvalues and eigenvectors, which
/// the optimizers' finiteness gate rejects.
EighResult eigh(const Matrix& a);

/// Eigenvalues only: the same reduction without accumulating the
/// transformations, then QL on the values; bitwise equal to
/// eigh(a).eigenvalues.
std::vector<real_t> eigvalsh(const Matrix& a);

/// Numerical rank in the paper's Fig. 10 sense: the number of largest
/// eigenvalues whose partial sum reaches `coverage` (default 90%) of the
/// total eigenvalue sum. Negative eigenvalues are clamped to zero (K is PSD
/// up to roundoff).
index_t numerical_rank(const std::vector<real_t>& eigenvalues,
                       real_t coverage = 0.9);

}  // namespace hylo
