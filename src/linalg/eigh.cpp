#include "hylo/linalg/eigh.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

namespace hylo {

namespace {

// EISPACK's tql2 and LAPACK's steqr bound: implicit QL iterations per
// eigenvalue before the solver gives up.
constexpr int kMaxQlIterations = 30;

// The two row kernels below carry almost all of the solver's flops. GCC's
// -O2 cost model will not vectorize a loop that needs a scalar remainder,
// so each runs four independent lanes per trip, all loads before any store,
// which -O2 still packs into SIMD registers.

// y += alpha x over n entries.
void axpy(index_t n, real_t alpha, const real_t* x, real_t* y) {
  index_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const real_t x0 = x[k], x1 = x[k + 1], x2 = x[k + 2], x3 = x[k + 3];
    const real_t y0 = y[k], y1 = y[k + 1], y2 = y[k + 2], y3 = y[k + 3];
    y[k] = y0 + alpha * x0;
    y[k + 1] = y1 + alpha * x1;
    y[k + 2] = y2 + alpha * x2;
    y[k + 3] = y3 + alpha * x3;
  }
  for (; k < n; ++k) y[k] = y[k] + alpha * x[k];
}

// Plane rotation of two rows: (x, y) <- (c x - s y, s x + c y).
void rotate(index_t n, real_t c, real_t s, real_t* x, real_t* y) {
  index_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const real_t x0 = x[k], x1 = x[k + 1], x2 = x[k + 2], x3 = x[k + 3];
    const real_t y0 = y[k], y1 = y[k + 1], y2 = y[k + 2], y3 = y[k + 3];
    x[k] = c * x0 - s * y0;
    x[k + 1] = c * x1 - s * y1;
    x[k + 2] = c * x2 - s * y2;
    x[k + 3] = c * x3 - s * y3;
    y[k] = s * x0 + c * y0;
    y[k + 1] = s * x1 + c * y1;
    y[k + 2] = s * x2 + c * y2;
    y[k + 3] = s * x3 + c * y3;
  }
  for (; k < n; ++k) {
    const real_t xk = x[k], yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

void transpose_in_place(Matrix& m) {
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = i + 1; j < m.cols(); ++j) std::swap(m(i, j), m(j, i));
}

// Householder reduction of the symmetric matrix `w` (held in full) to
// tridiagonal T = Qᵀ w Q with Q = H_0 H_1 ⋯ H_{n-3}, H_k = I − tau_k v_k v_kᵀ
// (Golub–Van Loan §8.3.1, LAPACK sytd2). Step k reads row k right of the
// diagonal and updates the trailing block row by row, so every inner loop
// is contiguous. On return d and e hold T's diagonal and superdiagonal
// (e[n-1] = 0), and row k of `w` holds v_k in columns k+1.. with v_k[0] = 1.
void tridiagonalize(Matrix& w, std::vector<real_t>& d, std::vector<real_t>& e,
                    std::vector<real_t>& tau) {
  const index_t n = w.rows();
  std::vector<real_t> q_buf(static_cast<std::size_t>(n));
  real_t* q = q_buf.data();
  for (index_t k = 0; k + 2 < n; ++k) {
    const index_t m = n - k - 1;
    real_t* v = w.row_ptr(k) + k + 1;
    d[static_cast<std::size_t>(k)] = w(k, k);
    // The reflector maps x = w(k, k+1:n) to beta e_0 (LAPACK larfg). The
    // norm of x[1:] is taken on x / max|x[1:]|, so small rows keep their
    // digits instead of underflowing.
    real_t xmax = 0.0;
    for (index_t j = 1; j < m; ++j) xmax = std::max(xmax, std::abs(v[j]));
    if (xmax == 0.0) {  // row k is already tridiagonal: H_k = I
      e[static_cast<std::size_t>(k)] = v[0];
      tau[static_cast<std::size_t>(k)] = 0.0;
      continue;
    }
    real_t ss = 0.0;
    for (index_t j = 1; j < m; ++j) ss += (v[j] / xmax) * (v[j] / xmax);
    const real_t alpha = v[0];
    const real_t beta =
        -std::copysign(std::hypot(alpha, xmax * std::sqrt(ss)), alpha);
    const real_t t = (beta - alpha) / beta;
    const real_t inv = 1.0 / (alpha - beta);
    for (index_t j = 1; j < m; ++j) v[j] *= inv;
    v[0] = 1.0;
    e[static_cast<std::size_t>(k)] = beta;
    tau[static_cast<std::size_t>(k)] = t;

    // Two-sided update of the trailing block B = w(k+1:n, k+1:n):
    // B <- H B H = B − v qᵀ − q vᵀ, with p = t B v and
    // q = p − (t/2)(pᵀv) v. B is symmetric, so B v sums its rows.
    std::fill_n(q, m, 0.0);
    for (index_t i = 0; i < m; ++i)
      axpy(m, v[i], w.row_ptr(k + 1 + i) + k + 1, q);
    real_t pv = 0.0;
    for (index_t j = 0; j < m; ++j) {
      q[j] *= t;
      pv += q[j] * v[j];
    }
    axpy(m, -0.5 * t * pv, v, q);
    for (index_t i = 0; i < m; ++i) {
      real_t* row = w.row_ptr(k + 1 + i) + k + 1;
      axpy(m, -v[i], q, row);
      axpy(m, -q[i], v, row);
    }
  }
  for (index_t k = std::max<index_t>(0, n - 2); k < n; ++k)
    d[static_cast<std::size_t>(k)] = w(k, k);
  if (n >= 2) e[static_cast<std::size_t>(n - 2)] = w(n - 2, n - 1);
  e[static_cast<std::size_t>(n - 1)] = 0.0;
}

// Q = H_0 (H_1 (⋯ (H_{n-3} I))) from the reflectors tridiagonalize() left
// in `w`, accumulated backwards (LAPACK org2r order): H_k touches only the
// trailing block (k+1:n, k+1:n), so each step is rᵀ = vᵀQ then Q −= t v rᵀ,
// both row sweeps.
void accumulate_q(const Matrix& w, const std::vector<real_t>& tau, Matrix& q) {
  const index_t n = w.rows();
  q = Matrix::identity(n);
  std::vector<real_t> r(static_cast<std::size_t>(n));
  for (index_t k = n - 3; k >= 0; --k) {
    const real_t t = tau[static_cast<std::size_t>(k)];
    if (t == 0.0) continue;
    const index_t m = n - k - 1;
    const real_t* v = w.row_ptr(k) + k + 1;
    std::fill_n(r.begin(), m, 0.0);
    for (index_t i = 0; i < m; ++i)
      axpy(m, v[i], q.row_ptr(k + 1 + i) + k + 1, r.data());
    for (index_t i = 0; i < m; ++i)
      axpy(m, -t * v[i], r.data(), q.row_ptr(k + 1 + i) + k + 1);
  }
}

// Implicit-shift QL on the symmetric tridiagonal (d, e) (EISPACK tql2, with
// e[i] = T(i, i+1)). The eigenvalues replace d, unsorted. Each rotation of
// T's coordinates i, i+1 is applied to rows i, i+1 of `z` when given, so
// z = Vᵀ stays row-contiguous. Returns false when one eigenvalue needs more
// than kMaxQlIterations.
bool implicit_ql(std::vector<real_t>& dv, std::vector<real_t>& ev, Matrix* z) {
  const index_t n = static_cast<index_t>(dv.size());
  real_t* d = dv.data();
  real_t* e = ev.data();
  const real_t eps = std::numeric_limits<real_t>::epsilon();
  real_t shift = 0.0, tst1 = 0.0;
  for (index_t l = 0; l < n; ++l) {
    // Split off the unreduced block l..m at the first negligible e[m].
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    index_t m = l;
    while (m + 1 < n && std::abs(e[m]) > eps * tst1) ++m;
    for (int iter = 0; m > l && std::abs(e[l]) > eps * tst1; ++iter) {
      if (iter == kMaxQlIterations) return false;
      // Shift from the leading 2x2 block, folded into d (origin in `shift`).
      real_t g = d[l];
      real_t p = (d[l + 1] - g) / (2.0 * e[l]);
      const real_t r = std::copysign(std::hypot(p, 1.0), p);
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const real_t dl1 = d[l + 1];
      real_t h = g - d[l];
      for (index_t i = l + 2; i < n; ++i) d[i] -= h;
      shift += h;
      // Chase the bulge from m up to l.
      p = d[m];
      real_t c = 1.0, c2 = 1.0, c3 = 1.0, s = 0.0, s2 = 0.0;
      const real_t el1 = e[l + 1];
      for (index_t i = m - 1; i >= l; --i) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        const real_t rr = std::hypot(p, e[i]);
        e[i + 1] = s * rr;
        s = e[i] / rr;
        c = p / rr;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        if (z != nullptr) rotate(n, c, s, z->row_ptr(i), z->row_ptr(i + 1));
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift;
    e[l] = 0.0;
  }
  return true;
}

// eigh and eigvalsh in one: ascending eigenvalues into `w` and, when `v` is
// given, the matching column eigenvectors.
void solve(const Matrix& a, std::vector<real_t>& w, Matrix* v) {
  HYLO_CHECK(a.rows() == a.cols(), "eigh needs square");
  const index_t n = a.rows();
  const auto n_sz = static_cast<std::size_t>(n);
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const auto fail = [&] {
    w.assign(n_sz, nan);
    if (v != nullptr) *v = Matrix(n, n, nan);
  };

  // One scan of the upper triangle: a NaN or ±Inf poisons the whole result
  // at once, and max|a_ij| picks the power-of-two scaling.
  real_t amax = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j) {
      const real_t x = a(i, j);
      if (!std::isfinite(x)) return fail();
      amax = std::max(amax, std::abs(x));
    }
  if (amax == 0.0) {
    w.assign(n_sz, 0.0);
    if (v != nullptr) *v = Matrix::identity(n);
    return;
  }
  // Scaling by 2^-scale_exp brings max|a_ij| into [0.5, 1), so no
  // intermediate can overflow whatever the input's magnitude; it is exact
  // for every entry larger than 2^-1022 times the maximum.
  int scale_exp = 0;
  std::frexp(amax, &scale_exp);

  std::vector<real_t> d(n_sz), e(n_sz);
  {
    Matrix work(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = i; j < n; ++j)
        work(i, j) = work(j, i) = std::ldexp(a(i, j), -scale_exp);
    std::vector<real_t> tau(n_sz);
    tridiagonalize(work, d, e, tau);
    if (v != nullptr) {
      accumulate_q(work, tau, *v);
      transpose_in_place(*v);  // rows of Qᵀ are what QL rotates
    }
  }
  if (!implicit_ql(d, e, v)) return fail();

  // Selection sort, ascending, carrying the eigenvector rows along.
  for (index_t i = 0; i + 1 < n; ++i) {
    const index_t k = std::min_element(d.begin() + i, d.end()) - d.begin();
    if (k == i) continue;
    std::iter_swap(d.begin() + i, d.begin() + k);
    if (v != nullptr)
      std::swap_ranges(v->row_ptr(i), v->row_ptr(i) + n, v->row_ptr(k));
  }
  if (v != nullptr) transpose_in_place(*v);
  for (real_t& x : d) x = std::ldexp(x, scale_exp);
  w = std::move(d);
}

}  // namespace

EighResult eigh(const Matrix& a) {
  EighResult res;
  solve(a, res.eigenvalues, &res.eigenvectors);
  return res;
}

std::vector<real_t> eigvalsh(const Matrix& a) {
  std::vector<real_t> w;
  solve(a, w, nullptr);
  return w;
}

index_t numerical_rank(const std::vector<real_t>& eigenvalues, real_t coverage) {
  std::vector<real_t> w;
  w.reserve(eigenvalues.size());
  for (const real_t v : eigenvalues) w.push_back(std::max(v, real_t{0}));
  std::sort(w.begin(), w.end(), std::greater<>());
  real_t total = 0.0;
  for (const real_t v : w) total += v;
  if (total <= 0.0) return 0;
  real_t acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    acc += w[i];
    if (acc >= coverage * total) return static_cast<index_t>(i + 1);
  }
  return static_cast<index_t>(w.size());
}

}  // namespace hylo
