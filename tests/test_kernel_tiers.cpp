// DESIGN.md §13 kernel-tier contract. Three layers are pinned here:
// (1) dispatch — HYLO_KERNEL-style name parsing with loud rejection of
// unknown/unavailable tiers, native resolving to best(); (2) per-tier
// determinism — every GEMM-family kernel and the conv passes are bitwise
// identical at 1/2/7 threads *within* each available tier; (3) cross-tier
// accuracy — SIMD tiers reassociate the k-accumulation, so scalar-vs-SIMD
// drift is bounded with norm-relative tolerances on random and adversarial
// (large exponent spread) inputs, and the fused-im2col conv matches the
// scalar materialized-im2col path to the same bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/nn/layers.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/nn/network.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "hylo/tensor/ops.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

using kern::Tier;

// Every test restores the ambient tier and thread count so ordering between
// cases cannot leak a dispatch change into other suites.
class KernelTiers : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kern::active(); }
  void TearDown() override {
    kern::set_tier(saved_);
    par::set_num_threads(0);
  }
  Tier saved_ = Tier::kScalar;
};

std::vector<Tier> simd_tiers() {
  std::vector<Tier> out;
  for (const Tier t : {Tier::kNeon, Tier::kAvx2, Tier::kAvx512})
    if (kern::available(t)) out.push_back(t);
  return out;
}

std::vector<Tier> all_tiers() {
  std::vector<Tier> out{Tier::kScalar};
  for (const Tier t : simd_tiers()) out.push_back(t);
  return out;
}

using testutil::bitwise_equal;

bool bitwise_equal(const Tensor4& x, const Tensor4& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(real_t) * static_cast<std::size_t>(x.size())) == 0;
}

// Largest elementwise deviation, relative to the Frobenius scale of the
// reference — the natural bound for a reassociated sum (each element's
// error is O(k * eps) of its own accumulation magnitude).
real_t norm_rel_err(const Matrix& ref, const Matrix& got) {
  EXPECT_EQ(ref.rows(), got.rows());
  EXPECT_EQ(ref.cols(), got.cols());
  return max_abs_diff(ref, got) / (frobenius_norm(ref) + 1e-300);
}

// Adversarial accumulation input: normal values spread across ~16 orders of
// magnitude, so reassociated partial sums round very differently.
Matrix exponent_spread_matrix(Rng& rng, index_t rows, index_t cols) {
  Matrix m(rows, cols);
  for (index_t i = 0; i < m.size(); ++i)
    m[i] = std::ldexp(rng.normal(),
                      static_cast<int>(rng.uniform(-26.0, 26.0)));
  return m;
}

// The lower triangle of a square matrix, zeros above the diagonal.
Matrix lower_triangle(Matrix m) {
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = i + 1; j < m.cols(); ++j) m(i, j) = 0.0;
  return m;
}

// ---- Dispatch ----------------------------------------------------------

TEST_F(KernelTiers, ParseAcceptsCanonicalNames) {
  EXPECT_EQ(kern::parse_tier("scalar"), Tier::kScalar);
  EXPECT_EQ(kern::parse_tier("neon"), Tier::kNeon);
  EXPECT_EQ(kern::parse_tier("avx2"), Tier::kAvx2);
  EXPECT_EQ(kern::parse_tier("avx512"), Tier::kAvx512);
  EXPECT_EQ(kern::parse_tier("native"), kern::best());
}

TEST_F(KernelTiers, ParseRejectsUnknownNames) {
  EXPECT_THROW(kern::parse_tier(""), Error);
  EXPECT_THROW(kern::parse_tier("AVX2"), Error);  // names are case-sensitive
  EXPECT_THROW(kern::parse_tier("sse"), Error);
  EXPECT_THROW(kern::parse_tier("scalar "), Error);
  EXPECT_THROW(kern::set_tier_by_name("fastest"), Error);
}

TEST_F(KernelTiers, SetTierRejectsUnavailableTiers) {
  bool found_unavailable = false;
  for (const Tier t : {Tier::kNeon, Tier::kAvx2, Tier::kAvx512})
    if (!kern::available(t)) {
      found_unavailable = true;
      EXPECT_THROW(kern::set_tier(t), Error);
    }
  if (!found_unavailable)
    GTEST_SKIP() << "every SIMD tier is available on this host";
}

TEST_F(KernelTiers, ScalarAlwaysAvailableAndBestIsAvailable) {
  EXPECT_TRUE(kern::available(Tier::kScalar));
  EXPECT_TRUE(kern::available(kern::best()));
  const Tier prev = kern::set_tier(Tier::kScalar);
  EXPECT_EQ(kern::active(), Tier::kScalar);
  kern::set_tier(prev);
}

// ---- Bitwise identity across thread counts, within each tier -----------

TEST_F(KernelTiers, GemmFamilyBitwiseAcrossThreadCountsWithinTier) {
  Rng rng(1234);
  // Odd shapes: not multiples of MR/NR or of any grain, so edge tiles and
  // straddled chunk boundaries are exercised.
  const Matrix a = testutil::random_matrix(rng, 37, 53);
  const Matrix b = testutil::random_matrix(rng, 53, 29);
  const Matrix at = testutil::random_matrix(rng, 53, 37);
  const Matrix bt = testutil::random_matrix(rng, 29, 53);
  const Matrix tri = lower_triangle(testutil::random_matrix(rng, 45, 45));
  Matrix y(53, 1);
  for (index_t i = 0; i < 53; ++i) y[i] = rng.normal();

  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    par::set_num_threads(1);
    const Matrix r_nn = matmul(a, b);
    const Matrix r_tn = matmul_tn(at, b);
    const Matrix r_nt = matmul_nt(a, bt);
    const Matrix r_gram = gram_nt(a);
    const Matrix r_gram_tn = gram_tn(a);
    const Matrix r_gram_tril = gram_tn_tril(tri);
    Matrix r_diag;
    gemm_tn_diag(at, y, b, r_diag);

    for (const int t : {2, 7}) {
      par::set_num_threads(t);
      EXPECT_TRUE(bitwise_equal(matmul(a, b), r_nn))
          << kern::tier_name(tier) << " gemm @" << t;
      EXPECT_TRUE(bitwise_equal(matmul_tn(at, b), r_tn))
          << kern::tier_name(tier) << " gemm_tn @" << t;
      EXPECT_TRUE(bitwise_equal(matmul_nt(a, bt), r_nt))
          << kern::tier_name(tier) << " gemm_nt @" << t;
      EXPECT_TRUE(bitwise_equal(gram_nt(a), r_gram))
          << kern::tier_name(tier) << " gram_nt @" << t;
      EXPECT_TRUE(bitwise_equal(gram_tn(a), r_gram_tn))
          << kern::tier_name(tier) << " gram_tn @" << t;
      EXPECT_TRUE(bitwise_equal(gram_tn_tril(tri), r_gram_tril))
          << kern::tier_name(tier) << " gram_tn_tril @" << t;
      Matrix d;
      gemm_tn_diag(at, y, b, d);
      EXPECT_TRUE(bitwise_equal(d, r_diag))
          << kern::tier_name(tier) << " gemm_tn_diag @" << t;
    }
  }
}

TEST_F(KernelTiers, ConvPassesBitwiseAcrossThreadCountsWithinTier) {
  auto make_net = [] {
    Rng wrng(77);
    Network n("tier_conv");
    int x = n.add_input({2, 6, 6});
    x = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    x = n.add(std::make_unique<ReLU>(), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  };
  Rng rng(78);
  Tensor4 x(5, 2, 6, 6);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  const std::vector<int> labels = {0, 2, 1, 0, 2};
  const PassContext ctx{.training = true, .capture = true};

  auto run = [&](Tensor4& out, std::vector<Matrix>& state) {
    Network net = make_net();
    net.zero_grad();
    const Tensor4& logits = net.forward(x, ctx);
    out = logits;
    const LossResult lr = SoftmaxCrossEntropy().compute(logits, labels);
    net.backward(lr.grad, ctx);
    for (auto* pb : net.param_blocks()) {
      state.push_back(pb->gw);
      state.push_back(pb->a_samples);
      state.push_back(pb->g_samples);
    }
  };

  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    par::set_num_threads(1);
    Tensor4 out1;
    std::vector<Matrix> s1;
    run(out1, s1);
    for (const int t : {2, 7}) {
      par::set_num_threads(t);
      Tensor4 out;
      std::vector<Matrix> s;
      run(out, s);
      EXPECT_TRUE(bitwise_equal(out, out1)) << kern::tier_name(tier) << " @" << t;
      ASSERT_EQ(s.size(), s1.size());
      for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_TRUE(bitwise_equal(s[i], s1[i]))
            << kern::tier_name(tier) << " @" << t << " state " << i;
    }
  }
}

// ---- Scalar-vs-SIMD accuracy bounds ------------------------------------

TEST_F(KernelTiers, SimdMatchesScalarOnRandomMatrices) {
  Rng rng(99);
  const Matrix a = testutil::random_matrix(rng, 61, 83);
  const Matrix b = testutil::random_matrix(rng, 83, 47);
  const Matrix at = testutil::random_matrix(rng, 83, 61);
  const Matrix bt = testutil::random_matrix(rng, 47, 83);

  // A damped factor-like SPD matrix for the inverse (κ ≈ 1e3).
  Matrix spd = gram_tn(testutil::random_matrix(rng, 48, 97));
  spd *= 1.0 / 48.0;
  add_diagonal(spd, 1e-2);

  kern::set_tier(Tier::kScalar);
  const Matrix r_nn = matmul(a, b);
  const Matrix r_tn = matmul_tn(at, b);
  const Matrix r_nt = matmul_nt(a, bt);
  const Matrix r_gram = gram_nt(a);
  const Matrix r_gram_tn = gram_tn(at);
  const Matrix r_inv = spd_inverse(spd);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    EXPECT_LT(norm_rel_err(r_nn, matmul(a, b)), 1e-13) << kern::tier_name(tier);
    EXPECT_LT(norm_rel_err(r_tn, matmul_tn(at, b)), 1e-13)
        << kern::tier_name(tier);
    EXPECT_LT(norm_rel_err(r_nt, matmul_nt(a, bt)), 1e-13)
        << kern::tier_name(tier);
    EXPECT_LT(norm_rel_err(r_gram, gram_nt(a)), 1e-13) << kern::tier_name(tier);
    EXPECT_LT(norm_rel_err(r_gram_tn, gram_tn(at)), 1e-13)
        << kern::tier_name(tier);
    // The inverse amplifies the GEMMs' reassociation by about κ.
    EXPECT_LT(norm_rel_err(r_inv, spd_inverse(spd)), 1e-10)
        << kern::tier_name(tier);
  }
}

TEST_F(KernelTiers, SimdMatchesScalarOnExponentSpreadMatrices) {
  Rng rng(100);
  const Matrix a = exponent_spread_matrix(rng, 45, 67);
  const Matrix b = exponent_spread_matrix(rng, 67, 33);

  kern::set_tier(Tier::kScalar);
  const Matrix r_nn = matmul(a, b);
  const Matrix r_gram = gram_nt(a);
  // The drift bound must be relative to the accumulation magnitude, not the
  // (possibly cancelled) result: scale by |A|_F * |B|_F.
  const real_t scale_nn = frobenius_norm(a) * frobenius_norm(b);
  const real_t scale_gram = frobenius_norm(a) * frobenius_norm(a);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    EXPECT_LT(max_abs_diff(r_nn, matmul(a, b)) / scale_nn, 1e-13)
        << kern::tier_name(tier);
    EXPECT_LT(max_abs_diff(r_gram, gram_nt(a)) / scale_gram, 1e-13)
        << kern::tier_name(tier);
  }
}

TEST_F(KernelTiers, AlphaBetaHandledIdenticallyAcrossTiers) {
  Rng rng(101);
  const Matrix a = testutil::random_matrix(rng, 19, 31);
  const Matrix b = testutil::random_matrix(rng, 31, 23);
  const Matrix c0 = testutil::random_matrix(rng, 19, 23);

  kern::set_tier(Tier::kScalar);
  Matrix ref = c0;
  gemm(a, b, ref, /*alpha=*/2.5, /*beta=*/-0.75);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    Matrix c = c0;
    gemm(a, b, c, 2.5, -0.75);
    EXPECT_LT(norm_rel_err(ref, c), 1e-13) << kern::tier_name(tier);
    // beta == 0 with a mismatched C must still resize-and-overwrite.
    Matrix fresh;
    gemm(a, b, fresh, 2.5, 0.0);
    Matrix fresh_ref = Matrix(19, 23);
    kern::set_tier(Tier::kScalar);
    gemm(a, b, fresh_ref, 2.5, 0.0);
    kern::set_tier(tier);
    EXPECT_LT(norm_rel_err(fresh_ref, fresh), 1e-13) << kern::tier_name(tier);
  }
}

// ---- Gram symmetry -----------------------------------------------------

TEST_F(KernelTiers, GramIsExactlySymmetricInEveryTier) {
  Rng rng(102);
  const Matrix a = testutil::random_matrix(rng, 53, 21);
  const Matrix tri = lower_triangle(testutil::random_matrix(rng, 37, 37));
  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    const Matrix g_tn = gram_tn(a);
    for (const Matrix& g : {gram_nt(a), g_tn})
      for (index_t i = 0; i < g.rows(); ++i)
        for (index_t j = 0; j < i; ++j) {
          const real_t lo = g(i, j), up = g(j, i);
          EXPECT_EQ(std::memcmp(&lo, &up, sizeof(real_t)), 0)
              << kern::tier_name(tier) << " (" << i << "," << j << ")";
        }
    // One tile loop, two sets of pack accessors: AᵀA read through A's
    // columns is AᵀA formed from an explicit transpose, bit for bit.
    EXPECT_TRUE(bitwise_equal(g_tn, gram_nt(a.transposed())))
        << kern::tier_name(tier);
    // Skipping the zero triangle drops only exact zeros.
    EXPECT_TRUE(bitwise_equal(gram_tn_tril(tri), gram_tn(tri)))
        << kern::tier_name(tier);
  }
}

// ---- Fused conv vs materialized im2col ---------------------------------

TEST_F(KernelTiers, FusedConvMatchesMaterializedIm2col) {
  if (simd_tiers().empty()) GTEST_SKIP() << "no SIMD tier on this host";
  auto make_net = [] {
    Rng wrng(55);
    Network n("fused_conv");
    int x = n.add_input({3, 7, 5});
    x = n.add(std::make_unique<Conv2d>(4, 3, 2, 1, wrng), x);  // stride 2
    x = n.add(std::make_unique<ReLU>(), x);
    x = n.add(std::make_unique<Conv2d>(5, 3, 1, 1, wrng), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  };
  Rng rng(56);
  Tensor4 x(6, 3, 7, 5);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  const std::vector<int> labels = {0, 2, 1, 0, 2, 1};
  const PassContext ctx{.training = true, .capture = true};

  auto run = [&](Tensor4& out, std::vector<Matrix>& state) {
    Network net = make_net();
    net.zero_grad();
    const Tensor4& logits = net.forward(x, ctx);
    out = logits;
    const LossResult lr = SoftmaxCrossEntropy().compute(logits, labels);
    net.backward(lr.grad, ctx);
    for (auto* pb : net.param_blocks()) {
      state.push_back(pb->gw);
      state.push_back(pb->a_samples);
      state.push_back(pb->g_samples);
    }
  };

  // Scalar tier materializes per-sample im2col patch matrices; the SIMD
  // tiers generate patches inside the packed GEMM. Same math, different
  // association — norm-relative agreement is the contract.
  kern::set_tier(Tier::kScalar);
  Tensor4 out_ref;
  std::vector<Matrix> s_ref;
  run(out_ref, s_ref);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    Tensor4 out;
    std::vector<Matrix> s;
    run(out, s);
    ASSERT_EQ(out.size(), out_ref.size());
    real_t worst = 0.0;
    for (index_t i = 0; i < out.size(); ++i)
      worst = std::max(worst, std::abs(out[i] - out_ref[i]));
    EXPECT_LT(worst, 1e-10) << kern::tier_name(tier);
    ASSERT_EQ(s.size(), s_ref.size());
    for (std::size_t i = 0; i < s.size(); ++i)
      EXPECT_LT(norm_rel_err(s_ref[i], s[i]), 1e-12)
          << kern::tier_name(tier) << " state " << i;
  }
}

// ---- Vector helpers ----------------------------------------------------

TEST_F(KernelTiers, ElementwiseHelpersBitwiseIdenticalAcrossTiers) {
  Rng rng(103);
  std::vector<real_t> a0(131), b(131);
  for (auto& v : a0) v = rng.normal();
  for (auto& v : b) v = rng.normal();

  kern::set_tier(Tier::kScalar);
  std::vector<real_t> mul_ref = a0, scale_ref(a0.size());
  kern::vmul(mul_ref.data(), b.data(), static_cast<index_t>(a0.size()));
  kern::vscale(scale_ref.data(), a0.data(), 1.7,
               static_cast<index_t>(a0.size()));
  const real_t dot_scalar =
      kern::vdot(a0.data(), b.data(), static_cast<index_t>(a0.size()));

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    std::vector<real_t> mul = a0, scale(a0.size());
    kern::vmul(mul.data(), b.data(), static_cast<index_t>(a0.size()));
    kern::vscale(scale.data(), a0.data(), 1.7,
                 static_cast<index_t>(a0.size()));
    // vmul/vscale are elementwise: bitwise identical across tiers.
    EXPECT_EQ(std::memcmp(mul.data(), mul_ref.data(),
                          sizeof(real_t) * mul.size()),
              0)
        << kern::tier_name(tier);
    EXPECT_EQ(std::memcmp(scale.data(), scale_ref.data(),
                          sizeof(real_t) * scale.size()),
              0)
        << kern::tier_name(tier);
    // vdot reassociates: bound, don't bit-compare.
    const real_t d =
        kern::vdot(a0.data(), b.data(), static_cast<index_t>(a0.size()));
    EXPECT_NEAR(d, dot_scalar, 1e-12 * std::abs(dot_scalar) + 1e-12)
        << kern::tier_name(tier);
  }
}

}  // namespace
}  // namespace hylo
