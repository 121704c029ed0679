// Symmetric eigensolver (Householder tridiagonalization + implicit QL):
// reconstruction, orthonormality, ordering and eigvalsh agreement from n = 1
// up to EKFAC's largest factor (n = 289) and on the spectra that stress a QL
// solver (rank-deficient factor Grams, repeats, clusters, decoupled blocks,
// Wilkinson's near-degenerate pairs, graded entries);
// the closed-form Laplacian spectrum; the input contract (power-of-two
// scaling, non-finite input, upper triangle only, thread and kernel-tier
// independence); and the Fig. 10 numerical-rank definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <ostream>

#include "hylo/linalg/eigh.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

// Relative reconstruction and orthonormality bound for every input below.
constexpr real_t kTol = 1e-12;

// max |V diag(w) Vᵀ − A|.
real_t reconstruction_error(const Matrix& a, const EighResult& r) {
  Matrix vd = r.eigenvectors;
  for (index_t i = 0; i < vd.rows(); ++i)
    for (index_t j = 0; j < vd.cols(); ++j)
      vd(i, j) *= r.eigenvalues[static_cast<std::size_t>(j)];
  return max_abs_diff(matmul_nt(vd, r.eigenvectors), a);
}

// max |VᵀV − I|.
real_t orthonormality_error(const Matrix& v) {
  return max_abs_diff(matmul_tn(v, v), Matrix::identity(v.cols()));
}

using testutil::bitwise_equal;

bool bitwise_equal(const std::vector<real_t>& x, const std::vector<real_t>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), sizeof(real_t) * x.size()) == 0;
}

// The whole eigh contract on `a`.
void expect_eigh_contract(const Matrix& a) {
  const index_t n = a.rows();
  const EighResult r = eigh(a);
  ASSERT_EQ(static_cast<index_t>(r.eigenvalues.size()), n);
  ASSERT_EQ(r.eigenvectors.rows(), n);
  ASSERT_EQ(r.eigenvectors.cols(), n);
  EXPECT_LE(reconstruction_error(a, r), kTol * max_abs(a));
  EXPECT_LE(orthonormality_error(r.eigenvectors), kTol);
  EXPECT_TRUE(std::is_sorted(r.eigenvalues.begin(), r.eigenvalues.end()));
  EXPECT_TRUE(bitwise_equal(eigvalsh(a), r.eigenvalues));
}

// An EKFAC Kronecker factor (1/m) XᵀX over m samples whose last feature is
// the constant bias input: PSD with rank min(m, n), so m < n gives the
// rank-deficient factors of a small capture.
Matrix factor_gram(index_t n, index_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x = testutil::random_matrix(rng, m, n);
  for (index_t i = 0; i < m; ++i) x(i, n - 1) = 1.0;
  Matrix f = gram_tn(x);
  f *= 1.0 / static_cast<real_t>(m);
  return f;
}

// The [-1, 2, -1] second-difference matrix.
Matrix laplacian(index_t n) {
  Matrix t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = 2.0;
    if (i + 1 < n) t(i, i + 1) = t(i + 1, i) = -1.0;
  }
  return t;
}

// H diag(d) H for a random Householder reflector H: dense, with spectrum d.
Matrix with_spectrum(const std::vector<real_t>& d, std::uint64_t seed) {
  const auto n = static_cast<index_t>(d.size());
  Rng rng(seed);
  const Matrix u = testutil::random_matrix(rng, n, 1);
  Matrix h = Matrix::identity(n);
  axpy(h, gram_nt(u), -2.0 / frobenius_norm(u) / frobenius_norm(u));
  Matrix dm(n, n);
  for (index_t i = 0; i < n; ++i) dm(i, i) = d[static_cast<std::size_t>(i)];
  return matmul(matmul(h, dm), h);
}

// Two tight clusters (spread 1e-13) around 1 and 2, an exact triple at -1,
// and isolated values in between.
std::vector<real_t> clustered_spectrum() {
  std::vector<real_t> d;
  for (int k = 0; k < 20; ++k) d.push_back(1.0 + 1e-13 * k);
  for (int k = 0; k < 20; ++k) d.push_back(2.0 - 1e-13 * k);
  for (int k = 0; k < 3; ++k) d.push_back(-1.0);
  for (int k = 0; k < 21; ++k) d.push_back(-0.9 + 0.1 * k);
  return d;
}

// -------------------------------------------------------------------------
// Random symmetric inputs across sizes.

class EighSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(EighSizes, Reconstructs) {
  const index_t n = GetParam();
  Rng rng(n);
  const Matrix a = testutil::random_symmetric(rng, n);
  EXPECT_LE(reconstruction_error(a, eigh(a)), kTol * max_abs(a));
}

TEST_P(EighSizes, EigenvectorsOrthonormal) {
  const index_t n = GetParam();
  Rng rng(100 + n);
  const auto [w, v] = eigh(testutil::random_symmetric(rng, n));
  EXPECT_LE(orthonormality_error(v), kTol);
}

TEST_P(EighSizes, EigenvaluesAscending) {
  const index_t n = GetParam();
  Rng rng(200 + n);
  const auto [w, v] = eigh(testutil::random_symmetric(rng, n));
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i - 1], w[i]);
}

TEST_P(EighSizes, EigvalshAgrees) {
  const index_t n = GetParam();
  Rng rng(300 + n);
  const Matrix a = testutil::random_symmetric(rng, n);
  EXPECT_TRUE(bitwise_equal(eigh(a).eigenvalues, eigvalsh(a)));
}

// 145 and 289 are the ResNet-32 proxy's largest EKFAC factor sizes
// (16·9+1 and 32·9+1).
INSTANTIATE_TEST_SUITE_P(Sweep, EighSizes,
                         ::testing::Values(1, 2, 3, 5, 10, 24, 50, 80, 145,
                                           289));

// -------------------------------------------------------------------------
// Structured inputs: every one must meet the full contract.

struct EighInput {
  const char* name;
  Matrix (*make)();
};

void PrintTo(const EighInput& in, std::ostream* os) { *os << in.name; }

class EighInputs : public ::testing::TestWithParam<EighInput> {};

TEST_P(EighInputs, MeetsContract) { expect_eigh_contract(GetParam().make()); }

INSTANTIATE_TEST_SUITE_P(
    Spectra, EighInputs,
    ::testing::Values(
        EighInput{"factor_n145_m64", [] { return factor_gram(145, 64, 1); }},
        EighInput{"factor_n289_m128", [] { return factor_gram(289, 128, 2); }},
        EighInput{"factor_n289_m1024",
                  [] { return factor_gram(289, 1024, 3); }},
        EighInput{"laplacian_n145", [] { return laplacian(145); }},
        EighInput{"wilkinson_n21",
                  [] {
                    // W21+: diagonal |i − 10|, unit off-diagonal. Its
                    // largest eigenvalues come in pairs that agree to
                    // ~1e-14, the classic test of vector orthogonality.
                    Matrix a = laplacian(21) * -1.0;
                    for (index_t i = 0; i < 21; ++i)
                      a(i, i) = std::abs(static_cast<real_t>(i - 10));
                    return a;
                  }},
        EighInput{"graded_n60",
                  [] {
                    // Entries scaled by 10^-(i+j)/5, spanning 24 orders of
                    // magnitude from the top-left corner to the bottom-right.
                    Rng rng(6);
                    Matrix a = testutil::random_symmetric(rng, 60);
                    for (index_t i = 0; i < 60; ++i)
                      for (index_t j = 0; j < 60; ++j)
                        a(i, j) *= std::pow(
                            10.0, -0.2 * static_cast<real_t>(i + j));
                    return a;
                  }},
        EighInput{"zero_n10", [] { return Matrix(10, 10); }},
        EighInput{"identity_n50", [] { return Matrix::identity(50); }},
        EighInput{"repeated_diagonal_n80",
                  [] {
                    Matrix a(80, 80);
                    const real_t values[] = {3.0, -1.0, 0.0, 2.0, 3.0};
                    for (index_t i = 0; i < 80; ++i)
                      a(i, i) = values[(7 * i) % 5];
                    return a;
                  }},
        EighInput{"decoupled_blocks_n60",
                  [] {
                    // Three copies of one block: every eigenvalue is a
                    // triple whose eigenvectors live in different blocks.
                    Rng rng(4);
                    const Matrix b = testutil::random_symmetric(rng, 20);
                    Matrix a(60, 60);
                    for (index_t k = 0; k < 3; ++k)
                      for (index_t i = 0; i < 20; ++i)
                        for (index_t j = 0; j < 20; ++j)
                          a(20 * k + i, 20 * k + j) = b(i, j);
                    return a;
                  }},
        EighInput{"clustered_n64",
                  [] { return with_spectrum(clustered_spectrum(), 5); }}),
    [](const ::testing::TestParamInfo<EighInput>& info) {
      return std::string(info.param.name);
    });

TEST(Eigh, LaplacianMatchesClosedForm) {
  // Eigenvalues of the n x n [-1, 2, -1] matrix: 2 − 2cos(kπ/(n+1)).
  for (const index_t n : {24, 145, 289}) {
    const std::vector<real_t> w = eigvalsh(laplacian(n));
    ASSERT_EQ(static_cast<index_t>(w.size()), n);
    for (index_t k = 1; k <= n; ++k) {
      const real_t want =
          2.0 - 2.0 * std::cos(static_cast<real_t>(k) * std::numbers::pi /
                               static_cast<real_t>(n + 1));
      EXPECT_NEAR(w[static_cast<std::size_t>(k - 1)], want, kTol)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Eigh, ClusteredSpectrumRecovered) {
  std::vector<real_t> want = clustered_spectrum();
  const std::vector<real_t> w = eigvalsh(with_spectrum(want, 5));
  std::sort(want.begin(), want.end());
  ASSERT_EQ(w.size(), want.size());
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_NEAR(w[i], want[i], kTol);
}

TEST(Eigh, DiagonalMatrix) {
  Matrix a{{3, 0, 0}, {0, -1, 0}, {0, 0, 2}};
  const auto [w, v] = eigh(a);
  EXPECT_NEAR(w[0], -1.0, 1e-12);
  EXPECT_NEAR(w[1], 2.0, 1e-12);
  EXPECT_NEAR(w[2], 3.0, 1e-12);
}

TEST(Eigh, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const auto [w, v] = eigh(Matrix{{2, 1}, {1, 2}});
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 3.0, 1e-12);
}

TEST(Eigh, PsdGramHasNonNegativeEigs) {
  Rng rng(42);
  const Matrix k = gram_nt(testutil::random_matrix(rng, 20, 8));
  const auto w = eigvalsh(k);
  for (const auto v : w) EXPECT_GT(v, -1e-9);
  // Gram of a 20x8 matrix has rank <= 8: at least 12 (near-)zero eigs.
  int zeros = 0;
  for (const auto v : w) zeros += std::abs(v) < 1e-9;
  EXPECT_GE(zeros, 12);
}

// -------------------------------------------------------------------------
// Input contract.

TEST(Eigh, AnyFiniteMagnitudeKeepsRelativeAccuracy) {
  // The solver works on the input scaled by a power of two, so neither an
  // overflowing norm (max|a_ij| ≳ 1e154) nor an underflowing one costs
  // accuracy relative to max|a_ij|.
  for (const index_t n : {24, 50}) {
    for (const real_t amax : {1e-300, 1e-150, 1.0, 1e150, 1e300}) {
      Rng rng(n);
      Matrix a = testutil::random_symmetric(rng, n);
      a *= amax / max_abs(a);
      const EighResult r = eigh(a);
      EXPECT_LE(reconstruction_error(a, r), kTol * max_abs(a))
          << "n=" << n << " max|a|=" << amax;
      EXPECT_LE(orthonormality_error(r.eigenvectors), kTol)
          << "n=" << n << " max|a|=" << amax;
      EXPECT_TRUE(bitwise_equal(eigvalsh(a), r.eigenvalues));
    }
  }
}

TEST(Eigh, NonFiniteUpperTriangleGivesAllNaN) {
  const index_t n = 24;
  const real_t inf = std::numeric_limits<real_t>::infinity();
  for (const real_t poison :
       {std::numeric_limits<real_t>::quiet_NaN(), inf, -inf}) {
    for (const auto& [i, j] : {std::pair<index_t, index_t>{0, 0},
                              {3, 17}, {n - 1, n - 1}}) {
      Rng rng(6);
      Matrix a = testutil::random_symmetric(rng, n);
      a(i, j) = poison;
      const EighResult r = eigh(a);
      ASSERT_EQ(static_cast<index_t>(r.eigenvalues.size()), n);
      ASSERT_EQ(r.eigenvectors.rows(), n);
      ASSERT_EQ(r.eigenvectors.cols(), n);
      for (const real_t x : r.eigenvalues) EXPECT_TRUE(std::isnan(x));
      for (index_t k = 0; k < r.eigenvectors.size(); ++k)
        EXPECT_TRUE(std::isnan(r.eigenvectors[k]));
      const std::vector<real_t> w = eigvalsh(a);
      ASSERT_EQ(static_cast<index_t>(w.size()), n);
      for (const real_t x : w) EXPECT_TRUE(std::isnan(x));
    }
  }
}

TEST(Eigh, ReadsOnlyTheUpperTriangle) {
  // Junk below the diagonal, a non-finite entry included, changes no bit.
  const Matrix a = factor_gram(73, 40, 7);
  Matrix junk = a;
  Rng rng(8);
  for (index_t i = 1; i < junk.rows(); ++i)
    for (index_t j = 0; j < i; ++j) junk(i, j) = 1e6 * rng.normal();
  junk(5, 2) = std::numeric_limits<real_t>::quiet_NaN();
  junk(60, 0) = std::numeric_limits<real_t>::infinity();
  const EighResult clean = eigh(a), dirty = eigh(junk);
  EXPECT_TRUE(bitwise_equal(clean.eigenvalues, dirty.eigenvalues));
  EXPECT_TRUE(bitwise_equal(clean.eigenvectors, dirty.eigenvectors));
  EXPECT_TRUE(bitwise_equal(eigvalsh(a), eigvalsh(junk)));
}

TEST(Eigh, SameBitsAtAnyThreadCountAndKernelTier) {
  const Matrix a = factor_gram(145, 64, 9);
  std::vector<EighResult> runs;
  for (const char* threads : {"1", "2"}) {
    const testutil::ScopedEnv env("HYLO_NUM_THREADS", threads);
    par::set_num_threads(0);  // 0 re-reads the variable
    for (const kern::Tier tier : {kern::Tier::kScalar, kern::best()}) {
      const kern::Tier prev = kern::set_tier(tier);
      runs.push_back(eigh(a));
      kern::set_tier(prev);
    }
  }
  par::set_num_threads(0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(runs[0].eigenvalues, runs[i].eigenvalues)) << i;
    EXPECT_TRUE(bitwise_equal(runs[0].eigenvectors, runs[i].eigenvectors))
        << i;
  }
}

// -------------------------------------------------------------------------
// Fig. 10 numerical rank.

TEST(NumericalRank, ExactLowRank) {
  Rng rng(3);
  const Matrix k = gram_nt(testutil::random_low_rank(rng, 30, 30, 4));
  EXPECT_LE(numerical_rank(eigvalsh(k), 0.999), 4);
}

TEST(NumericalRank, CoverageDefinition) {
  // Eigenvalues {10, 5, 3, 1, 1}: sum=20; 90% coverage needs 10+5+3 = 18.
  EXPECT_EQ(numerical_rank({10, 5, 3, 1, 1}, 0.9), 3);
  // 70% needs 10+5 = 15 >= 14.
  EXPECT_EQ(numerical_rank({10, 5, 3, 1, 1}, 0.7), 2);
}

TEST(NumericalRank, ClampsNegatives) {
  EXPECT_EQ(numerical_rank({5.0, -2.0, 0.0}, 0.9), 1);
}

TEST(NumericalRank, AllZero) { EXPECT_EQ(numerical_rank({0.0, 0.0}), 0); }

TEST(NumericalRank, IdentityNeedsAll) {
  EXPECT_EQ(numerical_rank({1, 1, 1, 1}, 0.9), 4);
}

}  // namespace
}  // namespace hylo
