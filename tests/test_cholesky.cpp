// Cholesky factorization, SPD solves and the SPD inverse across a size
// sweep. The blocked factorization is pinned bit for bit to an unblocked
// reference in every kernel tier and at 1 and 2 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/eigh.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

using testutil::bitwise_equal;

constexpr index_t kNb = kCholeskyPanel;

// The unblocked dot-form Cholesky the blocked one replaced, with its
// multiply-subtracts written as the fused operations an FMA build compiles
// them to. Returns -1 on success, else the column whose pivot failed.
index_t reference_cholesky(const Matrix& a, Matrix& l) {
  const index_t n = a.rows();
  l.resize(n, n);
  for (index_t j = 0; j < n; ++j) {
    real_t diag = a(j, j);
    const real_t* lj = l.row_ptr(j);
    for (index_t k = 0; k < j; ++k) diag = std::fma(-lj[k], lj[k], diag);
    if (!(diag > 0.0) || !std::isfinite(diag)) return j;
    const real_t ljj = std::sqrt(diag);
    l(j, j) = ljj;
    const real_t inv = 1.0 / ljj;
    for (index_t i = j + 1; i < n; ++i) {
      real_t v = a(i, j);
      const real_t* li = l.row_ptr(i);
      for (index_t k = 0; k < j; ++k) v = std::fma(-li[k], lj[k], v);
      l(i, j) = v * inv;
    }
  }
  return -1;
}

std::vector<kern::Tier> available_tiers() {
  std::vector<kern::Tier> out;
  for (const kern::Tier t : {kern::Tier::kScalar, kern::Tier::kNeon,
                             kern::Tier::kAvx2, kern::Tier::kAvx512})
    if (kern::available(t)) out.push_back(t);
  return out;
}

// Restores the ambient kernel tier and thread count when it goes out of
// scope, so a test that sweeps them leaks nothing into later tests.
class TierThreadGuard {
 public:
  TierThreadGuard() : tier_(kern::active()) {}
  ~TierThreadGuard() {
    kern::set_tier(tier_);
    par::set_num_threads(0);
  }
  TierThreadGuard(const TierThreadGuard&) = delete;
  TierThreadGuard& operator=(const TierThreadGuard&) = delete;

 private:
  kern::Tier tier_;
};

Matrix leading(const Matrix& a, index_t k) {
  Matrix out(k, k);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < k; ++j) out(i, j) = a(i, j);
  return out;
}

// A Kronecker-factor-like input: the Gram of m samples divided by m, plus
// damping — rank-deficient before damping when m < n.
Matrix factor_like(Rng& rng, index_t n, index_t m, real_t damping) {
  Matrix a = gram_tn(testutil::random_matrix(rng, m, n));
  a *= 1.0 / static_cast<real_t>(m);
  add_diagonal(a, damping);
  return a;
}

real_t inverse_residual(const Matrix& a, const Matrix& inv) {
  return max_abs_diff(matmul(a, inv), Matrix::identity(a.rows()));
}

class CholeskySizes : public ::testing::TestWithParam<index_t> {};

TEST_P(CholeskySizes, FactorReconstructs) {
  const index_t n = GetParam();
  Rng rng(n);
  const Matrix a = testutil::random_spd(rng, n);
  const Matrix l = cholesky(a);
  EXPECT_LT(max_abs_diff(matmul_nt(l, l), a), 1e-8 * max_abs(a));
  // L is lower triangular.
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) EXPECT_EQ(l(i, j), 0.0);
}

TEST_P(CholeskySizes, SolveMatchesResidual) {
  const index_t n = GetParam();
  Rng rng(1000 + n);
  const Matrix a = testutil::random_spd(rng, n);
  const Matrix b = testutil::random_matrix(rng, n, 3);
  const Matrix x = spd_solve(a, b);
  EXPECT_LT(max_abs_diff(matmul(a, x), b), 1e-7);
}

TEST_P(CholeskySizes, InverseIsInverse) {
  const index_t n = GetParam();
  Rng rng(2000 + n);
  const Matrix a = testutil::random_spd(rng, n);
  const Matrix inv = spd_inverse(a);
  EXPECT_LT(max_abs_diff(matmul(a, inv), Matrix::identity(n)), 1e-7);
}

TEST_P(CholeskySizes, BlockedMatchesUnblockedReferenceBitwise) {
  const index_t n = GetParam();
  Rng rng(3000 + n);
  const Matrix a = factor_like(rng, n, 16 + n / 2, 1e-3);
  Matrix want;
  ASSERT_EQ(reference_cholesky(a, want), -1);
  TierThreadGuard guard;
  for (const kern::Tier tier : available_tiers()) {
    kern::set_tier(tier);
    for (const int threads : {1, 2}) {
      par::set_num_threads(threads);
      Matrix l;
      ASSERT_TRUE(try_cholesky(a, l))
          << kern::tier_name(tier) << " @" << threads;
      EXPECT_TRUE(bitwise_equal(l, want))
          << kern::tier_name(tier) << " @" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CholeskySizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 37, 64, 100,
                                           kNb - 1, kNb, kNb + 1, 2 * kNb + 3,
                                           217, 433));

// A failing pivot is reported at the column the unblocked reference stops
// at: the leading block just before it factors (to the reference's bits)
// and the one including it does not.
void expect_fails_at_reference_column(const Matrix& a, index_t want_col) {
  Matrix ref;
  ASSERT_EQ(reference_cholesky(a, ref), want_col);
  TierThreadGuard guard;
  for (const kern::Tier tier : available_tiers()) {
    kern::set_tier(tier);
    for (const int threads : {1, 2}) {
      par::set_num_threads(threads);
      Matrix l, lead_ref;
      EXPECT_FALSE(try_cholesky(a, l)) << kern::tier_name(tier);
      const Matrix before = leading(a, want_col);
      ASSERT_EQ(reference_cholesky(before, lead_ref), -1);
      ASSERT_TRUE(try_cholesky(before, l)) << kern::tier_name(tier);
      EXPECT_TRUE(bitwise_equal(l, lead_ref)) << kern::tier_name(tier);
      EXPECT_FALSE(try_cholesky(leading(a, want_col + 1), l))
          << kern::tier_name(tier) << " @" << threads;
    }
  }
}

TEST(Cholesky, IndefinitePivotInLaterPanelFailsAtReferenceColumn) {
  Rng rng(41);
  const index_t n = 3 * kNb + 7, bad = 2 * kNb + 5;
  Matrix a = testutil::random_spd(rng, n);
  a(bad, bad) = -1.0;
  expect_fails_at_reference_column(a, bad);
}

TEST(Cholesky, NaNInTrailingBlockFailsAtReferenceColumn) {
  Rng rng(42);
  const index_t n = 3 * kNb + 7, i = 2 * kNb + 9, j = kNb + 3;
  Matrix a = testutil::random_spd(rng, n);
  a(i, j) = a(j, i) = std::numeric_limits<real_t>::quiet_NaN();
  // l(i, j) turns NaN; the first pivot that reads it is column i's.
  expect_fails_at_reference_column(a, i);
}

TEST(Cholesky, InverseOfFactorLikeInputs) {
  // KAISA's 3x3-conv A-factor sizes, at batch-like sample counts.
  TierThreadGuard guard;
  for (const index_t n : {28, 109, 217, 433})
    for (const index_t m : {16, 64}) {
      Rng rng(static_cast<std::uint64_t>(100 * n + m));
      const Matrix a = factor_like(rng, n, m, 1e-3);
      const std::vector<real_t> ev = eigvalsh(a);
      const real_t kappa = ev.back() / ev.front();
      const real_t eps = std::numeric_limits<real_t>::epsilon();
      // The route the blocked inverse replaced: solve against I.
      const real_t solve_res = inverse_residual(
          a, cholesky_solve(cholesky(a), Matrix::identity(n)));
      for (const kern::Tier tier : available_tiers()) {
        kern::set_tier(tier);
        par::set_num_threads(1);
        const Matrix inv = spd_inverse(a);
        const real_t res = inverse_residual(a, inv);
        EXPECT_LT(res, static_cast<real_t>(n) * eps * kappa)
            << kern::tier_name(tier) << " n=" << n << " m=" << m;
        EXPECT_LE(res, 4.0 * solve_res)
            << kern::tier_name(tier) << " n=" << n << " m=" << m;
        for (index_t r = 0; r < n; ++r)
          for (index_t c = 0; c < r; ++c)
            ASSERT_EQ(std::memcmp(inv.row_ptr(r) + c, inv.row_ptr(c) + r,
                                  sizeof(real_t)),
                      0)
                << kern::tier_name(tier) << " n=" << n << " (" << r << ","
                << c << ")";
        for (const int threads : {2, 4}) {
          par::set_num_threads(threads);
          EXPECT_TRUE(bitwise_equal(spd_inverse(a), inv))
              << kern::tier_name(tier) << " n=" << n << " @" << threads;
        }
      }
    }
}

TEST(Cholesky, VectorSolve) {
  Rng rng(9);
  const Matrix a = testutil::random_spd(rng, 12);
  const Matrix l = cholesky(a);
  std::vector<real_t> b(12);
  for (auto& v : b) v = rng.normal();
  const std::vector<real_t> b0 = b;
  cholesky_solve_inplace(l, b);
  std::vector<real_t> back;
  matvec(a, b, back);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(back[i], b0[i], 1e-8);
}

TEST(Cholesky, IndefiniteFailsGracefully) {
  Matrix a{{1, 0}, {0, -1}};
  Matrix l;
  EXPECT_FALSE(try_cholesky(a, l));
  EXPECT_THROW(cholesky(a), Error);
}

TEST(Cholesky, SingularFails) {
  Matrix a{{1, 1}, {1, 1}};
  Matrix l;
  EXPECT_FALSE(try_cholesky(a, l));
}

TEST(Cholesky, NonSquareThrows) { EXPECT_THROW(cholesky(Matrix(2, 3)), Error); }

TEST(Cholesky, DampingRescuesSemiDefinite) {
  Rng rng(10);
  // Rank-deficient Gram matrix becomes PD after adding damping.
  Matrix a = gram_nt(testutil::random_matrix(rng, 10, 3));
  Matrix l;
  EXPECT_FALSE(try_cholesky(a, l));
  add_diagonal(a, 1e-3);
  EXPECT_TRUE(try_cholesky(a, l));
}

// ---- The in-place triangular inverse --------------------------------------

// The copying blocked inverse cholesky_inverse ran before it worked in place:
// each split copies L₂₁, X₁₁ and X₂₂ out, multiplies them whole (X₁₁'s zero
// triangle included) through the GEMM tiers and copies X₂₁ back.
void copying_invert_lower(Matrix& x, index_t r0, index_t r1) {
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
  copying_invert_lower(x, r0, mid);
  copying_invert_lower(x, mid, r1);
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

Matrix copying_cholesky_inverse(const Matrix& l) {
  Matrix x = l;
  copying_invert_lower(x, 0, x.rows());
  return gram_tn_tril(x);
}

// A damped factor with a dead input channel every 7th (its row and column
// zero, -0.0 below the diagonal in every other one), so L has exactly-zero
// rows and columns and -0.0 entries.
Matrix dead_channel_factor(Rng& rng, index_t n) {
  Matrix a = factor_like(rng, n, 16 + n / 3, 1e-2);
  for (index_t d = 3; d < n; d += 7)
    for (index_t j = 0; j < n; ++j) {
      if (j == d) continue;
      const real_t zero = d % 2 == 0 && j < d ? -0.0 : 0.0;
      a(d, j) = zero;
      a(j, d) = zero;
    }
  return a;
}

TEST(CholeskyInverse, InPlaceMatchesCopyingReferenceBitwise) {
  TierThreadGuard guard;
  for (const index_t n : {1, 31, 32, 33, 64, 65, 109, 217, 433}) {
    Rng rng(static_cast<std::uint64_t>(500 + n));
    for (const bool dead : {false, true}) {
      const Matrix a = dead ? dead_channel_factor(rng, n)
                            : factor_like(rng, n, 16 + n / 2, 1e-3);
      for (const kern::Tier tier : available_tiers()) {
        kern::set_tier(tier);
        par::set_num_threads(1);
        Matrix l;
        ASSERT_TRUE(try_cholesky(a, l)) << kern::tier_name(tier) << " " << n;
        if (dead && n > 10) {
          // Row 3 is zero off the diagonal; row 10 starts with -0.0.
          for (index_t j = 0; j < 3; ++j) EXPECT_EQ(l(3, j), 0.0);
          EXPECT_TRUE(l(10, 0) == 0.0 && std::signbit(l(10, 0)));
        }
        const Matrix want = copying_cholesky_inverse(l);
        for (const int threads : {1, 3}) {
          par::set_num_threads(threads);
          EXPECT_TRUE(bitwise_equal(cholesky_inverse(l), want))
              << kern::tier_name(tier) << " n=" << n << " dead=" << dead
              << " @" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hylo
