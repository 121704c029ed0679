#include "hylo/linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {

// Inverts the lower-triangular diagonal block x[r0:r1, r0:r1] in place. A
// block of at most kCholeskyPanel rows runs the unblocked column sweep;
// a larger one splits in two, inverts both halves, and forms the
// off-diagonal block X₂₁ = −X₂₂·L₂₁·X₁₁ with two GEMMs (packed in the SIMD
// tiers, so the result is bitwise the same at any thread count).
void invert_lower(Matrix& x, index_t r0, index_t r1) {
  const index_t n = r1 - r0;
  if (n <= kCholeskyPanel) {
    for (index_t j = r0; j < r1; ++j) {
      x(j, j) = 1.0 / x(j, j);
      for (index_t i = j + 1; i < r1; ++i) {
        const real_t* xi = x.row_ptr(i);
        real_t acc = 0.0;
        for (index_t k = j; k < i; ++k) acc += xi[k] * x(k, j);
        x(i, j) = -acc / xi[i];
      }
    }
    return;
  }
  const index_t mid = r0 + n / 2;
  invert_lower(x, r0, mid);
  invert_lower(x, mid, r1);
  auto block = [&x](index_t i0, index_t i1, index_t j0, index_t j1) {
    Matrix b(i1 - i0, j1 - j0);
    for (index_t i = i0; i < i1; ++i)
      std::copy(x.row_ptr(i) + j0, x.row_ptr(i) + j1, b.row_ptr(i - i0));
    return b;
  };
  const Matrix t = matmul(block(mid, r1, r0, mid), block(r0, mid, r0, mid));
  Matrix x21;
  gemm(block(mid, r1, mid, r1), t, x21, -1.0);
  for (index_t i = mid; i < r1; ++i)
    std::copy(x21.row_ptr(i - mid), x21.row_ptr(i - mid) + (mid - r0),
              x.row_ptr(i) + r0);
}

}  // namespace

bool try_cholesky(const Matrix& a, Matrix& l) {
  HYLO_CHECK(a.rows() == a.cols(), "cholesky needs square");
  const index_t n = a.rows();
  l.resize(n, n);
  for (index_t i = 0; i < n; ++i)
    std::copy(a.row_ptr(i), a.row_ptr(i) + i + 1, l.row_ptr(i));
  // Right-looking, kCholeskyPanel columns at a time, in place in the lower
  // triangle of l. Entering a panel, the columns left of it have already
  // been subtracted (syrk_trailing), so each element's chain is
  // a(i, j) − Σ_k l(i, k)·l(j, k) with one FMA per k, ascending: the
  // unblocked dot form's chain, hence its bits.
  for (index_t p0 = 0; p0 < n; p0 += kCholeskyPanel) {
    const index_t p1 = std::min(p0 + kCholeskyPanel, n);
    for (index_t j = p0; j < p1; ++j) {
      real_t* lj = l.row_ptr(j);
      real_t diag = lj[j];
      for (index_t k = p0; k < j; ++k) diag = std::fma(-lj[k], lj[k], diag);
      if (!(diag > 0.0) || !std::isfinite(diag)) return false;
      const real_t ljj = std::sqrt(diag);
      lj[j] = ljj;
      const real_t inv = 1.0 / ljj;
      for (index_t i = j + 1; i < n; ++i) {
        real_t* li = l.row_ptr(i);
        real_t v = li[j];
        for (index_t k = p0; k < j; ++k) v = std::fma(-li[k], lj[k], v);
        li[j] = v * inv;
      }
    }
    syrk_trailing(l, p0, p1, -1.0);
  }
  return true;
}

Matrix cholesky(const Matrix& a) {
  Matrix l;
  HYLO_CHECK(try_cholesky(a, l), "matrix not positive definite (n="
                                     << a.rows() << ")");
  return l;
}

void cholesky_solve_inplace(const Matrix& l, std::vector<real_t>& b) {
  const index_t n = l.rows();
  HYLO_CHECK(l.cols() == n, "cholesky factor is " << n << "x" << l.cols());
  HYLO_CHECK(static_cast<index_t>(b.size()) == n, "rhs size");
  // Forward: L y = b.
  for (index_t i = 0; i < n; ++i) {
    real_t v = b[static_cast<std::size_t>(i)];
    const real_t* li = l.row_ptr(i);
    for (index_t k = 0; k < i; ++k) v -= li[k] * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = v / li[i];
  }
  // Backward: Lᵀ x = y.
  for (index_t i = n - 1; i >= 0; --i) {
    real_t v = b[static_cast<std::size_t>(i)];
    for (index_t k = i + 1; k < n; ++k)
      v -= l(k, i) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = v / l(i, i);
  }
}

Matrix cholesky_solve(const Matrix& l, const Matrix& b) {
  const index_t n = l.rows(), k = b.cols();
  HYLO_CHECK(l.cols() == n, "cholesky factor is " << n << "x" << l.cols());
  HYLO_CHECK(b.rows() == n, "rhs rows");
  Matrix x = b;
  // Forward substitution on all columns at once (row sweep keeps locality).
  for (index_t i = 0; i < n; ++i) {
    const real_t* li = l.row_ptr(i);
    real_t* xi = x.row_ptr(i);
    for (index_t kk = 0; kk < i; ++kk) {
      const real_t lik = li[kk];
      if (lik == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c = 0; c < k; ++c) xi[c] -= lik * xk[c];
    }
    const real_t inv = 1.0 / li[i];
    for (index_t c = 0; c < k; ++c) xi[c] *= inv;
  }
  // Backward substitution with Lᵀ.
  for (index_t i = n - 1; i >= 0; --i) {
    real_t* xi = x.row_ptr(i);
    for (index_t kk = i + 1; kk < n; ++kk) {
      const real_t lki = l(kk, i);
      if (lki == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c = 0; c < k; ++c) xi[c] -= lki * xk[c];
    }
    const real_t inv = 1.0 / l(i, i);
    for (index_t c = 0; c < k; ++c) xi[c] *= inv;
  }
  return x;
}

Matrix cholesky_inverse(const Matrix& l) {
  HYLO_CHECK(l.rows() == l.cols(), "cholesky_inverse needs square");
  Matrix x = l;
  invert_lower(x, 0, x.rows());
  return gram_tn_tril(x);
}

Matrix spd_inverse(const Matrix& a) { return cholesky_inverse(cholesky(a)); }

Matrix spd_solve(const Matrix& a, const Matrix& b) {
  const Matrix l = cholesky(a);
  return cholesky_solve(l, b);
}

}  // namespace hylo
