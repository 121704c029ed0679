#include "hylo/tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"

namespace hylo {

namespace {
// Cache blocking parameters: tuned for ~32KB L1d with doubles. The kernels
// below use an i-k-j loop order so the innermost loop streams rows of B and
// C, which vectorizes well for row-major storage.
constexpr index_t kBlockI = 64;
constexpr index_t kBlockK = 64;
constexpr index_t kBlockJ = 256;

// Shared prologue of the three GEMM variants: shape the output and fold in
// beta. C(i,j) += alpha * (A·B)(i,j) afterwards is bitwise equal to the
// single-pass "alpha*acc + beta*c" epilogue because the addition commutes.
void prepare_c(Matrix& c, index_t m, index_t n, real_t beta,
               const char* kernel) {
  if (c.rows() != m || c.cols() != n) {
    HYLO_CHECK(beta == 0.0, "beta != 0 with mismatched C in " << kernel);
    c.resize(m, n);
  }
  if (beta == 0.0)
    c.zero();
  else if (beta != 1.0)  // hylo-lint: allow(float_compare: exactly 1.0 means skip the scale; a tolerance would corrupt C)
    c *= beta;
}

// C rows [i0, i1) of C = alpha * A B + (already-applied beta) * C. Each
// output row accumulates over k in ascending order whatever the row
// partition, so the parallel result is bitwise identical to the serial one.
void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
               index_t i0, index_t i1) {
  const index_t k = a.cols(), n = b.cols();
  for (index_t ib = i0; ib < i1; ib += kBlockI)
    for (index_t kb = 0; kb < k; kb += kBlockK)
      for (index_t jb = 0; jb < n; jb += kBlockJ) {
        const index_t iend = std::min(ib + kBlockI, i1);
        const index_t kend = std::min(kb + kBlockK, k);
        const index_t jend = std::min(jb + kBlockJ, n);
        for (index_t i = ib; i < iend; ++i) {
          real_t* ci = c.row_ptr(i);
          const real_t* ai = a.row_ptr(i);
          // No `aik == 0.0` early-out here: a data-dependent branch in the
          // hottest loop defeats vectorization and only pays off for
          // pathological sparsity (see BENCH_gemm.json notes.early_out).
          for (index_t kk = kb; kk < kend; ++kk) {
            const real_t aik = alpha * ai[kk];
            const real_t* bk = b.row_ptr(kk);
            for (index_t j = jb; j < jend; ++j) ci[j] += aik * bk[j];
          }
        }
      }
}

// Core of gemm_tn / gemm_tn_diag: C = alpha * A^T diag(s) B (+ beta * C,
// already applied), with s == nullptr meaning the identity scaling. The k
// loop stays outermost inside each thread's private row block of C, so per
// element the accumulation order is k-ascending — the serial order — at any
// thread count; the row blocks are disjoint, so the "merge" is free.
void gemm_tn_core(const Matrix& a, const Matrix& b, const real_t* s,
                  Matrix& c, real_t alpha) {
  if (kern::active() != kern::Tier::kScalar) {
    kern::packed_gemm_tn(a, s, b, c, alpha);
    return;
  }
  const index_t k = a.rows(), m = a.cols(), n = b.cols();
  par::parallel_for(
      0, m, kBlockI,
      [&](index_t i0, index_t i1) {
        for (index_t kk = 0; kk < k; ++kk) {
          const real_t* ak = a.row_ptr(kk);
          const real_t* bk = b.row_ptr(kk);
          const real_t scale = s == nullptr ? alpha : alpha * s[kk];
          for (index_t i = i0; i < i1; ++i) {
            const real_t aik = scale * ak[i];
            real_t* ci = c.row_ptr(i);
            for (index_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
          }
        }
      },
      "tensor/gemm_tn", audit::row_block(c));
}
}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
          real_t beta) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  HYLO_CHECK(b.rows() == k, "gemm inner dim " << b.rows() << " != " << k);
  prepare_c(c, m, n, beta, "gemm");
  if (kern::active() != kern::Tier::kScalar) {
    kern::packed_gemm_nn(a, b, c, alpha);
    return;
  }
  par::parallel_for(
      0, m, kBlockI,
      [&](index_t i0, index_t i1) { gemm_rows(a, b, c, alpha, i0, i1); },
      "tensor/gemm", audit::row_block(c));
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
             real_t beta) {
  // C = alpha * A^T B + beta * C, A: k x m, B: k x n. Rank-1 updates over
  // rows of A and B — good locality without transposing A.
  const index_t k = a.rows(), m = a.cols(), n = b.cols();
  HYLO_CHECK(b.rows() == k, "gemm_tn inner dim " << b.rows() << " != " << k);
  prepare_c(c, m, n, beta, "gemm_tn");
  gemm_tn_core(a, b, nullptr, c, alpha);
}

void gemm_tn_diag(const Matrix& a, const Matrix& s, const Matrix& b, Matrix& c,
                  real_t alpha, real_t beta) {
  // C = alpha * A^T diag(s) B + beta * C. The scale folds into the rank-1
  // update coefficient, so no scaled copy of A is ever materialized.
  const index_t k = a.rows();
  HYLO_CHECK(b.rows() == k, "gemm_tn_diag inner dim " << b.rows() << " != " << k);
  HYLO_CHECK(s.size() == k, "gemm_tn_diag scale length " << s.size()
                                                         << " != " << k);
  prepare_c(c, a.cols(), b.cols(), beta, "gemm_tn_diag");
  gemm_tn_core(a, b, s.data(), c, alpha);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
             real_t beta) {
  // C = alpha * A B^T + beta * C, A: m x k, B: n x k. Inner loop is a dot of
  // two contiguous rows; beta is folded by the shared prologue instead of a
  // re-test in the innermost loop.
  const index_t m = a.rows(), k = a.cols(), n = b.rows();
  HYLO_CHECK(b.cols() == k, "gemm_nt inner dim " << b.cols() << " != " << k);
  prepare_c(c, m, n, beta, "gemm_nt");
  if (kern::active() != kern::Tier::kScalar) {
    kern::packed_gemm_nt(a, b, c, alpha);
    return;
  }
  par::parallel_for(
      0, m, kBlockI,
      [&](index_t i0, index_t i1) {
        for (index_t i = i0; i < i1; ++i) {
          const real_t* ai = a.row_ptr(i);
          real_t* ci = c.row_ptr(i);
          for (index_t j = 0; j < n; ++j) {
            const real_t* bj = b.row_ptr(j);
            real_t acc = 0.0;
            for (index_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
            ci[j] += alpha * acc;
          }
        }
      },
      "tensor/gemm_nt", audit::row_block(c));
}

void gemm_strided(index_t m, index_t n, index_t k, const real_t* a,
                  index_t lda, const real_t* b, index_t ldb, real_t* c,
                  index_t ldc, real_t alpha, bool b_lower) {
  if (kern::active() != kern::Tier::kScalar) {
    kern::packed_gemm_strided(m, n, k, a, lda, b, ldb, c, ldc, alpha, b_lower);
    return;
  }
  // gemm_rows' i-k-j order; row kk of a lower-triangular B is zero past
  // column kk.
  par::parallel_for(
      0, m, kBlockI,
      [&](index_t i0, index_t i1) {
        for (index_t i = i0; i < i1; ++i) {
          real_t* ci = c + i * ldc;
          const real_t* ai = a + i * lda;
          for (index_t kk = 0; kk < k; ++kk) {
            const real_t aik = alpha * ai[kk];
            const real_t* bk = b + kk * ldb;
            const index_t jend = b_lower ? std::min(n, kk + 1) : n;
            for (index_t j = 0; j < jend; ++j) ci[j] += aik * bk[j];
          }
        }
      },
      "tensor/gemm_strided",
      audit::Footprint([c, ldc, m, n](index_t i0, index_t i1,
                                      audit::WriteSet& ws) {
        ws.track(c, sizeof(real_t) *
                        static_cast<std::size_t>((m - 1) * ldc + n));
        for (index_t i = i0; i < i1; ++i) ws.add_range(c + i * ldc, 0, n);
      }));
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm(a, b, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_tn(a, b, c);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_nt(a, b, c);
  return c;
}

Matrix gram_nt(const Matrix& a) {
  const index_t m = a.rows(), k = a.cols();
  Matrix c(m, m);
  if (kern::active() != kern::Tier::kScalar) {
    kern::packed_gram_nt(a, c);
    return c;
  }
  // Each (i, j) pair with i <= j is computed by exactly one thread (the one
  // owning row i) and written to both mirror slots — disjoint elements, so
  // the row partition is race-free and bitwise deterministic. Grain 8 keeps
  // the triangular row costs reasonably balanced across chunks.
  par::parallel_for(
      0, m, 8,
      [&](index_t i0, index_t i1) {
        for (index_t i = i0; i < i1; ++i) {
          const real_t* ai = a.row_ptr(i);
          for (index_t j = i; j < m; ++j) {
            const real_t* aj = a.row_ptr(j);
            real_t acc = 0.0;
            for (index_t kk = 0; kk < k; ++kk) acc += ai[kk] * aj[kk];
            c(i, j) = acc;
            c(j, i) = acc;
          }
        }
      },
      "tensor/gram_nt",
      audit::Footprint([&c](index_t i0, index_t i1, audit::WriteSet& ws) {
        ws.add_row_tail(c, i0, i1);
        ws.add_col_tail(c, i0, i1);
      }));
  return c;
}

namespace {
// C = AᵀA; with `tril`, A is square and lower triangular (gram_tn_tril).
Matrix gram_tn_impl(const Matrix& a, bool tril) {
  const index_t m = a.rows(), k = a.cols();
  Matrix c(k, k);
  if (kern::active() != kern::Tier::kScalar) {
    kern::packed_gram_tn(a, c, tril);
    return c;
  }
  // Rank-1 accumulation over rows of A; the r loop stays outermost inside
  // each thread's private block of output rows, so every element sums in
  // r-ascending (serial) order. Row r of a lower-triangular A is zero past
  // column r, so `tril` stops both inner loops there. Fill upper triangle
  // then mirror.
  par::parallel_for(
      0, k, 8,
      [&](index_t i0, index_t i1) {
        for (index_t r = 0; r < m; ++r) {
          const real_t* ar = a.row_ptr(r);
          const index_t iend = tril ? std::min(i1, r + 1) : i1;
          const index_t jend = tril ? r + 1 : k;
          for (index_t i = i0; i < iend; ++i) {
            const real_t v = ar[i];
            real_t* ci = c.row_ptr(i);
            for (index_t j = i; j < jend; ++j) ci[j] += v * ar[j];
          }
        }
      },
      "tensor/gram_tn",
      audit::Footprint([&c](index_t i0, index_t i1, audit::WriteSet& ws) {
        ws.add_row_tail(c, i0, i1);
      }));
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  return c;
}
}  // namespace

Matrix gram_tn(const Matrix& a) { return gram_tn_impl(a, false); }

Matrix gram_tn_tril(const Matrix& x) {
  HYLO_CHECK(x.rows() == x.cols(), "gram_tn_tril needs square, got "
                                       << x.rows() << "x" << x.cols());
  return gram_tn_impl(x, true);
}

Matrix running_factor(const std::vector<Matrix>& ranks, const Matrix* old,
                      real_t decay) {
  HYLO_CHECK(!ranks.empty(), "running factor of no ranks");
  const index_t n = ranks.front().cols();
  index_t m = 0;
  for (const Matrix& a : ranks) m += a.rows();
  HYLO_CHECK(m > 0, "running factor of an empty capture");
  HYLO_CHECK(old == nullptr || (old->rows() == n && old->cols() == n),
             "running factor is " << n << "x" << n << ", old one "
                                  << old->rows() << "x" << old->cols());
  const real_t inv_m = 1.0 / static_cast<real_t>(m);
  const kern::Tier tier = kern::active();
  if (tier == kern::Tier::kAvx2 || tier == kern::Tier::kAvx512) {
    Matrix out(n, n);
    kern::packed_running_factor(ranks, inv_m, old, decay, out);
    return out;
  }
  Matrix out = gram_tn(ranks.front());
  for (std::size_t r = 1; r < ranks.size(); ++r) out += gram_tn(ranks[r]);
  out *= inv_m;
  if (old != nullptr)
    for (index_t i = 0; i < out.size(); ++i)
      out[i] = std::fma(1.0 - decay, out[i], (*old)[i] * decay);
  return out;
}

void syrk_trailing(Matrix& c, index_t k0, index_t k1, real_t alpha) {
  const index_t n = c.rows();
  HYLO_CHECK(c.cols() == n && 0 <= k0 && k0 <= k1 && k1 <= n,
             "syrk_trailing range [" << k0 << ", " << k1 << ") on "
                                     << c.rows() << "x" << c.cols());
  if (k0 == k1 || k1 == n) return;
  if (kern::active() != kern::Tier::kScalar) {
    kern::packed_syrk_trailing(c, k0, k1, alpha);
    return;
  }
  // std::fma per term, k ascending: the packed microkernel's exact chain, so
  // every tier gives the same bits whether or not the build contracts. Chunk
  // [i0, i1) owns rows k1+i0 .. k1+i1-1 from column k1 through the diagonal;
  // the P columns it reads lie left of k1 and are never written.
  par::parallel_for(
      0, n - k1, 8,
      [&](index_t i0, index_t i1) {
        for (index_t i = k1 + i0; i < k1 + i1; ++i) {
          real_t* ci = c.row_ptr(i);
          for (index_t j = k1; j <= i; ++j) {
            const real_t* cj = c.row_ptr(j);
            real_t acc = ci[j];
            for (index_t kk = k0; kk < k1; ++kk)
              acc = std::fma(alpha * ci[kk], cj[kk], acc);
            ci[j] = acc;
          }
        }
      },
      "tensor/syrk_trailing",
      audit::Footprint([&c, k1](index_t i0, index_t i1, audit::WriteSet& ws) {
        ws.add_row_head(c, k1 + i0, k1 + i1, k1);
      }));
}

void matvec(const Matrix& a, const std::vector<real_t>& x,
            std::vector<real_t>& y) {
  HYLO_CHECK(static_cast<index_t>(x.size()) == a.cols(), "matvec dim");
  y.assign(static_cast<std::size_t>(a.rows()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const real_t* ai = a.row_ptr(i);
    real_t acc = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) acc += ai[j] * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
}

void matvec_t(const Matrix& a, const std::vector<real_t>& x,
              std::vector<real_t>& y) {
  HYLO_CHECK(static_cast<index_t>(x.size()) == a.rows(), "matvec_t dim");
  y.assign(static_cast<std::size_t>(a.cols()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const real_t xi = x[static_cast<std::size_t>(i)];
    if (xi == 0.0) continue;
    const real_t* ai = a.row_ptr(i);
    for (index_t j = 0; j < a.cols(); ++j) y[static_cast<std::size_t>(j)] += xi * ai[j];
  }
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  hadamard_inplace(out, b);
  return out;
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  HYLO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "hadamard shape");
  real_t* pa = a.data();
  const real_t* pb = b.data();
  par::parallel_for(
      0, a.size(), 1 << 14,
      [&](index_t i0, index_t i1) { kern::vmul(pa + i0, pb + i0, i1 - i0); },
      "tensor/hadamard", audit::elem_block(pa));
}

void axpy(Matrix& a, const Matrix& b, real_t alpha) {
  HYLO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "axpy shape");
  real_t* pa = a.data();
  const real_t* pb = b.data();
  for (index_t i = 0; i < a.size(); ++i) pa[i] += alpha * pb[i];
}

void add_diagonal(Matrix& a, real_t alpha) {
  const index_t n = std::min(a.rows(), a.cols());
  for (index_t i = 0; i < n; ++i) a(i, i) += alpha;
}

real_t frobenius_norm_sq(const Matrix& a) {
  const real_t* p = a.data();
  real_t acc = 0.0;
  for (index_t i = 0; i < a.size(); ++i) acc += p[i] * p[i];
  return acc;
}

real_t frobenius_norm(const Matrix& a) { return std::sqrt(frobenius_norm_sq(a)); }

real_t dot(const Matrix& a, const Matrix& b) {
  HYLO_CHECK(a.size() == b.size(), "dot size");
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  real_t acc = 0.0;
  for (index_t i = 0; i < a.size(); ++i) acc += pa[i] * pb[i];
  return acc;
}

std::vector<real_t> row_norms(const Matrix& a) {
  std::vector<real_t> out(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i) {
    const real_t* ai = a.row_ptr(i);
    real_t acc = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) acc += ai[j] * ai[j];
    out[static_cast<std::size_t>(i)] = std::sqrt(acc);
  }
  return out;
}

real_t max_abs(const Matrix& a) {
  real_t best = 0.0;
  const real_t* p = a.data();
  for (index_t i = 0; i < a.size(); ++i) best = std::max(best, std::abs(p[i]));
  return best;
}

real_t trace(const Matrix& a) {
  HYLO_CHECK(a.rows() == a.cols(), "trace needs square");
  real_t acc = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) acc += a(i, i);
  return acc;
}

Matrix vstack(const std::vector<Matrix>& parts) {
  HYLO_CHECK(!parts.empty(), "vstack of nothing");
  const index_t cols = parts.front().cols();
  index_t rows = 0;
  for (const auto& p : parts) {
    HYLO_CHECK(p.cols() == cols, "vstack column mismatch");
    rows += p.rows();
  }
  Matrix out(rows, cols);
  index_t r = 0;
  for (const auto& p : parts) {
    std::copy(p.data(), p.data() + p.size(), out.row_ptr(r));
    r += p.rows();
  }
  return out;
}

Matrix block_diag(const std::vector<Matrix>& blocks) {
  HYLO_CHECK(!blocks.empty(), "block_diag of nothing");
  index_t n = 0;
  for (const auto& b : blocks) {
    HYLO_CHECK(b.rows() == b.cols(), "block_diag needs square blocks");
    n += b.rows();
  }
  Matrix out(n, n);
  index_t off = 0;
  for (const auto& b : blocks) {
    for (index_t i = 0; i < b.rows(); ++i)
      for (index_t j = 0; j < b.cols(); ++j) out(off + i, off + j) = b(i, j);
    off += b.rows();
  }
  return out;
}

real_t max_abs_diff(const Matrix& a, const Matrix& b) {
  HYLO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "shape");
  real_t best = 0.0;
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  for (index_t i = 0; i < a.size(); ++i)
    best = std::max(best, std::abs(pa[i] - pb[i]));
  return best;
}

}  // namespace hylo
