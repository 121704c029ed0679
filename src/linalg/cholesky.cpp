#include "hylo/linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {

// Inverts the lower-triangular diagonal block x[r0:r1, r0:r1] in place. A
// block of at most kCholeskyPanel rows runs the unblocked column sweep;
// a larger one splits in two, inverts both halves, and forms the
// off-diagonal block X₂₁ = −X₂₂·(L₂₁·X₁₁) with two GEMMs on x's own
// sub-blocks (packed in the SIMD tiers, so the result is bitwise the same at
// any thread count). L₂₁·X₁₁ goes to `t`, which holds (n − n/2)·(n/2)
// values; X₂₁ overwrites L₂₁. The first product skips X₁₁'s zero triangle
// (leading terms, still added to +0.0); the second runs X₂₂ whole, since
// its zero terms trail a nonzero sum and adding one can flip an exact
// zero's sign.
void invert_lower(Matrix& x, index_t r0, index_t r1, real_t* t) {
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
  const index_t mid = r0 + n / 2, h1 = mid - r0, h2 = r1 - mid;
  const index_t ld = x.cols();
  invert_lower(x, r0, mid, t);
  invert_lower(x, mid, r1, t);
  real_t* x21 = x.row_ptr(mid) + r0;
  std::fill_n(t, h2 * h1, 0.0);
  gemm_strided(h2, h1, h1, x21, ld, x.row_ptr(r0) + r0, ld, t, h1, 1.0,
               /*b_lower=*/true);
  for (index_t i = 0; i < h2; ++i) std::fill_n(x21 + i * ld, h1, 0.0);
  gemm_strided(h2, h1, h2, x.row_ptr(mid) + mid, ld, t, h1, x21, ld, -1.0,
               /*b_lower=*/false);
}

}  // namespace

bool try_cholesky(const Matrix& a, Matrix& l, const real_t* diag) {
  HYLO_CHECK(a.rows() == a.cols(), "cholesky needs square");
  const index_t n = a.rows();
  l.resize(n, n);
  for (index_t i = 0; i < n; ++i) {
    std::copy(a.row_ptr(i), a.row_ptr(i) + i + 1, l.row_ptr(i));
    if (diag != nullptr) l(i, i) = diag[i];
  }
  // Right-looking, kCholeskyPanel columns at a time, in place in the lower
  // triangle of l. Entering a panel, the columns left of it have already
  // been subtracted (syrk_trailing), so each element's chain is
  // a(i, j) − Σ_k l(i, k)·l(j, k) with one FMA per k, ascending: the
  // unblocked dot form's chain, hence its bits. The panel runs transposed
  // in pt (panel column u, rows p0.., at pt + u·h), so the rows of a column
  // are the vector lanes of kern::chol_column.
  std::vector<real_t> pt(static_cast<std::size_t>(kCholeskyPanel * n));
  for (index_t p0 = 0; p0 < n; p0 += kCholeskyPanel) {
    const index_t p1 = std::min(p0 + kCholeskyPanel, n);
    const index_t w = p1 - p0, h = n - p0;
    for (index_t r = 0; r < h; ++r) {
      const real_t* lr = l.row_ptr(p0 + r) + p0;
      for (index_t u = 0; u < w; ++u)
        pt[static_cast<std::size_t>(u * h + r)] = lr[u];
    }
    for (index_t c = 0; c < w; ++c) {
      real_t* tc = pt.data() + c * h;
      real_t d = tc[c];
      for (index_t u = 0; u < c; ++u) {
        const real_t ljk = pt[static_cast<std::size_t>(u * h + c)];
        d = std::fma(-ljk, ljk, d);
      }
      if (!(d > 0.0) || !std::isfinite(d)) return false;
      const real_t ljj = std::sqrt(d);
      tc[c] = ljj;
      kern::chol_column(pt.data(), h, c, c + 1, h, 1.0 / ljj);
    }
    for (index_t r = 0; r < h; ++r) {
      real_t* lr = l.row_ptr(p0 + r) + p0;
      for (index_t u = 0; u < std::min(w, r + 1); ++u)
        lr[u] = pt[static_cast<std::size_t>(u * h + r)];
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

Matrix cholesky_inverse(Matrix l) {
  HYLO_CHECK(l.rows() == l.cols(), "cholesky_inverse needs square");
  const index_t n = l.rows();
  std::vector<real_t> t(static_cast<std::size_t>((n - n / 2) * (n / 2)));
  invert_lower(l, 0, n, t.data());
  return gram_tn_tril(l);
}

Matrix spd_inverse(const Matrix& a) { return cholesky_inverse(cholesky(a)); }

Matrix spd_solve(const Matrix& a, const Matrix& b) {
  const Matrix l = cholesky(a);
  return cholesky_solve(l, b);
}

}  // namespace hylo
