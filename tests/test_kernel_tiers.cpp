// DESIGN.md §13 kernel-tier contract. Three layers are pinned here:
// (1) dispatch — HYLO_KERNEL-style name parsing with loud rejection of
// unknown/unavailable tiers, native resolving to best(); (2) per-tier
// determinism — every GEMM-family kernel and the conv passes are bitwise
// identical at 1/2/7 threads *within* each available tier; (3) cross-tier
// accuracy — SIMD tiers reassociate the k-accumulation, so scalar-vs-SIMD
// drift is bounded with norm-relative tolerances on random and adversarial
// (large exponent spread) inputs, and the SIMD conv passes match the
// scalar tier's per-sample patch matrices to the same bounds. The x86 tiers'
// fma chain is also pinned bit for bit against an explicit std::fma chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/nn/layers.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/nn/network.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/elementwise.hpp"
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

  // The scalar tier's loops and the SIMD tiers' fma chains compute the same
  // math in a different association — norm-relative agreement is the
  // contract.
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

// Both conv routes pin their bits to the materialized GEMMs: the forward to
// W_main·im2col(x)ᵀ on a bias-filled C, the wgrad to one [cols | 1] GEMM
// per sample, the dgrad to col2im of goutᵀ·W_main onto the values already
// in gin. The capture sums each NR-lane block of positions lane-ascending
// (pad lanes are +0.0), then adds the block sums in order. The sweep covers
// lane blocks that span output rows, patches deeper than one KC block,
// s > KC with s % NR != 0, strides 2 and 3, pad 0 and 2, kernels 1, 2, 3
// and 5, and a gin row phase with no rows; it runs with the capture off and
// on. Cases flagged `zoo` are the
// geometries make_resnet (widths 8 and 12), make_c3f1, make_densenet and
// make_unet build at the bench shapes, and each must take the direct path
// (kern::conv_direct) in both x86 tiers: stride-2 3x3 and 1x1 convs through
// the phase planes, the 4x4 maps through two-row tiles at NR = 8, c_out %
// MR != 0, a 1-channel stem and a 1-channel head. Every tier must also reach
// the materialized route (rows under NR/2: a 2x2 map and 7x5 stride 2 at
// NR = 8, 1-wide rows at NR = 4), and each x86 tier the direct path, with
// a partial last lane block, a direct forward with patch > KC and a dgrad
// o-chain longer than KC.
TEST_F(KernelTiers, FusedConvEqualsMaterializedGemmBitwise) {
  if (simd_tiers().empty()) GTEST_SKIP() << "no SIMD tier on this host";
  struct Case {
    const char* name;
    Shape in;
    index_t c_out, kernel, stride, pad;
    bool zoo = false;
  };
  const Case cases[] = {
      {"stem", {3, 16, 16}, 8, 3, 1, 1, true},
      {"stride2_3x3", {8, 16, 16}, 16, 3, 2, 1, true},
      {"downsample_1x1", {8, 16, 16}, 16, 1, 2, 0, true},
      {"4x4_c32", {32, 4, 4}, 8, 3, 1, 1},
      {"4x4_c48", {48, 4, 4}, 12, 3, 1, 1},
      {"17x17", {2, 17, 17}, 5, 3, 1, 1},
      {"20x20_pad0", {2, 20, 20}, 3, 3, 1, 0},
      {"7x5_stride2", {3, 7, 5}, 4, 3, 2, 1},
      {"k5_pad2", {2, 9, 9}, 3, 5, 1, 2},
      {"pad0", {2, 9, 9}, 3, 3, 1, 0},
      {"stride3", {2, 11, 10}, 3, 3, 3, 1},
      {"k2", {3, 6, 7}, 4, 2, 1, 1},
      {"2x2_map", {4, 2, 2}, 5, 3, 1, 1},
      {"1wide", {3, 6, 1}, 4, 3, 1, 1},
      {"1row_stride2", {2, 1, 16}, 3, 3, 2, 1},
      {"resnet_16x16", {8, 16, 16}, 8, 3, 1, 1, true},
      {"resnet_8x8", {16, 8, 8}, 16, 3, 1, 1, true},
      {"cout12", {12, 16, 16}, 12, 3, 1, 1, true},
      {"4x4_c32_to_32", {32, 4, 4}, 32, 3, 1, 1, true},
      {"stride2_3x3_8x8", {16, 8, 8}, 32, 3, 2, 1, true},
      {"downsample_1x1_8x8", {16, 8, 8}, 32, 1, 2, 0, true},
      {"w12_stride2_3x3", {12, 16, 16}, 24, 3, 2, 1, true},
      {"w12_downsample_1x1", {12, 16, 16}, 24, 1, 2, 0, true},
      {"w12_8x8", {24, 8, 8}, 24, 3, 1, 1, true},
      {"w12_stride2_3x3_8x8", {24, 8, 8}, 48, 3, 2, 1, true},
      {"w12_downsample_1x1_8x8", {24, 8, 8}, 48, 1, 2, 0, true},
      {"w12_4x4", {48, 4, 4}, 48, 3, 1, 1, true},
      {"c3f1_stem", {1, 16, 16}, 8, 3, 1, 1, true},
      {"densenet_transition", {48, 16, 16}, 24, 1, 1, 0, true},
      {"unet_head", {8, 16, 16}, 1, 1, 1, 0, true},
      {"28x28_partial_lanes", {3, 28, 28}, 8, 3, 1, 1},
      {"patch_over_kc", {32, 8, 8}, 8, 3, 1, 1},
      {"cout_over_kc", {2, 8, 8}, 264, 3, 1, 1},
  };
  const index_t n = 3;

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    // Register-tile width of the B panels (gemm_packed.hpp): 8 on AVX-512,
    // 4 on AVX2 and NEON.
    const index_t nr = tier == Tier::kAvx512 ? 8 : 4;
    const bool has_direct = tier == Tier::kAvx2 || tier == Tier::kAvx512;
    int direct = 0, materialized = 0;
    for (const int threads : {1, 3}) {
      par::set_num_threads(threads);
      for (const bool capture : {false, true}) {
        const PassContext ctx{.training = true, .capture = capture};
        for (const Case& cs : cases) {
          SCOPED_TRACE(std::string(kern::tier_name(tier)) + " @" +
                       std::to_string(threads) +
                       (capture ? " capture " : " ") + cs.name);
          Rng rng(321);
          Conv2d conv(cs.c_out, cs.kernel, cs.stride, cs.pad, rng);
          const Shape os = conv.infer_shape({cs.in});
          const ConvGeometry g{.in_c = cs.in.c, .in_h = cs.in.h,
                               .in_w = cs.in.w, .kernel_h = cs.kernel,
                               .kernel_w = cs.kernel, .stride = cs.stride,
                               .pad = cs.pad};
          ++(kern::conv_direct(g) ? direct : materialized);
          if (cs.zoo && has_direct) {
            EXPECT_TRUE(kern::conv_direct(g)) << "zoo geometry not direct";
          }
          const index_t s = os.h * os.w, patch = g.patch_size();
          ParamBlock& pb = *conv.param_block();
          for (index_t o = 0; o < cs.c_out; ++o)
            pb.w(o, patch) = rng.normal();
          Matrix w_main(cs.c_out, patch);
          for (index_t o = 0; o < cs.c_out; ++o)
            for (index_t j = 0; j < patch; ++j) w_main(o, j) = pb.w(o, j);

          Tensor4 x(n, cs.in.c, cs.in.h, cs.in.w);
          Tensor4 gout(n, os.c, os.h, os.w);
          Tensor4 gin(n, cs.in.c, cs.in.h, cs.in.w);
          for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
          for (index_t i = 0; i < gout.size(); ++i) gout[i] = rng.normal();
          for (index_t i = 0; i < gin.size(); ++i) gin[i] = rng.normal();
          Tensor4 gin_ref = gin;

          Tensor4 out;
          conv.forward({&x}, out, ctx);
          conv.backward({&x}, out, gout, {&gin}, ctx);

          Matrix gw_ref(cs.c_out, patch + 1);
          bool out_ok = true, a_ok = true;
          for (index_t i = 0; i < n; ++i) {
            Matrix cols;
            im2col(x.sample_ptr(i), g, cols);

            Matrix y(cs.c_out, s);
            for (index_t o = 0; o < cs.c_out; ++o)
              for (index_t p = 0; p < s; ++p) y(o, p) = pb.w(o, patch);
            kern::packed_gemm_nt(w_main, cols, y, 1.0);
            out_ok = out_ok && std::memcmp(y.data(), out.sample_ptr(i),
                                           sizeof(real_t) * y.size()) == 0;

            if (capture) {
              Matrix a_row(1, patch + 1);
              for (index_t j = 0; j < patch; ++j)
                for (index_t p0 = 0; p0 < s; p0 += nr) {
                  real_t block = 0.0;
                  for (index_t l = 0; l < nr; ++l)
                    block += p0 + l < s ? cols(p0 + l, j) : 0.0;
                  a_row(0, j) += block;
                }
              a_row(0, patch) = static_cast<real_t>(s);
              a_ok = a_ok &&
                     std::memcmp(a_row.data(), pb.a_samples.row_ptr(i),
                                 sizeof(real_t) * a_row.size()) == 0;
            }

            Matrix g_i(cs.c_out, s), cols_aug(s, patch + 1);
            std::copy(gout.sample_ptr(i), gout.sample_ptr(i) + g_i.size(),
                      g_i.data());
            for (index_t p = 0; p < s; ++p) {
              for (index_t j = 0; j < patch; ++j) cols_aug(p, j) = cols(p, j);
              cols_aug(p, patch) = 1.0;
            }
            kern::packed_gemm_nn(g_i, cols_aug, gw_ref, 1.0);

            Matrix dcols(s, patch);
            kern::packed_gemm_tn(g_i, nullptr, w_main, dcols, 1.0);
            col2im_add(dcols, g, gin_ref.sample_ptr(i));
          }
          EXPECT_TRUE(out_ok) << "forward output";
          EXPECT_TRUE(a_ok) << "a_samples capture";
          EXPECT_TRUE(bitwise_equal(pb.gw, gw_ref)) << "weight gradient";
          EXPECT_TRUE(bitwise_equal(gin, gin_ref)) << "input gradient";
        }
      }
    }
    EXPECT_EQ(direct > 0, has_direct) << kern::tier_name(tier);
    EXPECT_GT(materialized, 0) << kern::tier_name(tier);
  }
}

// A null grad_in entry — the Network passes one for its input node — skips
// that input's gradient and nothing else: every layer type that can come
// first keeps its parameter gradients, its capture and its other inputs'
// gradients bit for bit, in every kernel tier (Conv2d on its direct path,
// stride 1 and 2, and on its materialized route, a 1-wide map).
TEST_F(KernelTiers, NullGradInKeepsParameterGradientsBitwise) {
  using Make = std::function<std::unique_ptr<Layer>(Rng&)>;
  struct Case {
    const char* name;
    std::vector<Shape> in;
    Make make;
  };
  const std::vector<Case> cases = {
      {"Linear", {{3, 4, 4}},
       [](Rng& r) { return std::make_unique<Linear>(5, r); }},
      {"Conv2d", {{3, 8, 8}},
       [](Rng& r) { return std::make_unique<Conv2d>(4, 3, 1, 1, r); }},
      {"Conv2d_stride2", {{3, 8, 8}},
       [](Rng& r) { return std::make_unique<Conv2d>(4, 3, 2, 1, r); }},
      {"Conv2d_narrow", {{3, 5, 1}},
       [](Rng& r) { return std::make_unique<Conv2d>(4, 3, 1, 1, r); }},
      {"BatchNorm2d", {{3, 4, 4}},
       [](Rng&) { return std::make_unique<BatchNorm2d>(); }},
      {"ReLU", {{3, 4, 4}}, [](Rng&) { return std::make_unique<ReLU>(); }},
      {"MaxPool2d", {{2, 4, 4}},
       [](Rng&) { return std::make_unique<MaxPool2d>(2, 2); }},
      {"AvgPool2d", {{2, 4, 4}},
       [](Rng&) { return std::make_unique<AvgPool2d>(2); }},
      {"GlobalAvgPool", {{2, 4, 4}},
       [](Rng&) { return std::make_unique<GlobalAvgPool>(); }},
      {"Upsample2x", {{2, 3, 3}},
       [](Rng&) { return std::make_unique<Upsample2x>(); }},
      {"Concat", {{2, 4, 4}, {3, 4, 4}},
       [](Rng&) { return std::make_unique<Concat>(); }},
      {"Add", {{2, 4, 4}, {2, 4, 4}},
       [](Rng&) { return std::make_unique<Add>(); }},
  };
  const PassContext ctx{.training = true, .capture = true};
  // Backward with input 0's gradient null or real; returns the parameter
  // state and the gradients of the other inputs.
  auto run = [&](const Case& cs, bool null_first) {
    Rng rng(77);
    std::unique_ptr<Layer> layer = cs.make(rng);
    const Shape os = layer->infer_shape(cs.in);
    std::vector<Tensor4> xs, gins;
    std::vector<const Tensor4*> in_ptrs;
    std::vector<Tensor4*> gin_ptrs;
    for (const Shape& sh : cs.in) {
      xs.emplace_back(3, sh.c, sh.h, sh.w);
      gins.emplace_back(3, sh.c, sh.h, sh.w);
      Tensor4& x = xs.back();
      for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
    }
    for (std::size_t k = 0; k < xs.size(); ++k) {
      in_ptrs.push_back(&xs[k]);
      gin_ptrs.push_back(null_first && k == 0 ? nullptr : &gins[k]);
    }
    Tensor4 out, gout(3, os.c, os.h, os.w);
    for (index_t i = 0; i < gout.size(); ++i) gout[i] = rng.normal();
    layer->forward(in_ptrs, out, ctx);
    layer->backward(in_ptrs, out, gout, gin_ptrs, ctx);
    std::vector<Matrix> state;
    if (ParamBlock* pb = layer->param_block()) {
      state.push_back(pb->gw);
      state.push_back(pb->a_samples);
      state.push_back(pb->g_samples);
    }
    for (const auto& pp : layer->plain_params()) {
      Matrix g(1, static_cast<index_t>(pp.grad->size()));
      std::copy(pp.grad->begin(), pp.grad->end(), g.data());
      state.push_back(g);
    }
    for (std::size_t k = 1; k < gins.size(); ++k)
      state.push_back(gins[k].as_matrix());
    return state;
  };
  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    for (const Case& cs : cases) {
      SCOPED_TRACE(std::string(kern::tier_name(tier)) + " " + cs.name);
      const std::vector<Matrix> full = run(cs, false);
      const std::vector<Matrix> skipped = run(cs, true);
      ASSERT_EQ(full.size(), skipped.size());
      for (std::size_t i = 0; i < full.size(); ++i)
        EXPECT_TRUE(bitwise_equal(full[i], skipped[i])) << "state " << i;
    }
  }
}

// The SIMD forward keeps no im2col cache, so a scalar-tier backward after
// it has nothing to read: it must fail loudly, not index an empty cache.
TEST_F(KernelTiers, ScalarBackwardAfterSimdForwardIsRejected) {
  if (simd_tiers().empty()) GTEST_SKIP() << "no SIMD tier on this host";
  Rng rng(58);
  Conv2d conv(3, 3, 1, 1, rng);
  const Shape os = conv.infer_shape({Shape{2, 5, 5}});
  Tensor4 x(2, 2, 5, 5), gout(2, os.c, os.h, os.w), gin(2, 2, 5, 5), out;
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  for (index_t i = 0; i < gout.size(); ++i) gout[i] = rng.normal();
  const PassContext ctx{.training = true, .capture = false};
  kern::set_tier(simd_tiers().back());
  conv.forward({&x}, out, ctx);
  kern::set_tier(Tier::kScalar);
  EXPECT_THROW(conv.backward({&x}, out, gout, {&gin}, ctx), Error);
}

// ---- The x86 fma chain, bit for bit ------------------------------------
// gemm_packed.hpp's chain, written out with std::fma: each C element starts
// from C's value and takes one fma per k, k ascending across KC blocks, with
// alpha (and the diag s, as (alpha·s_k)·a) folded into the A operand first.
// The Grams run the upper triangle's chains from +0.0 and mirror them. vdot
// keeps one sum per vector lane, folds them pairwise, ((l0 + l1) + (l2 + l3))
// + …, then takes one fma per tail element. The x86 tiers must give these
// bits exactly, whatever the tiling, packing and edge handling.

std::vector<Tier> x86_tiers() {
  std::vector<Tier> out;
  for (const Tier t : {Tier::kAvx2, Tier::kAvx512})
    if (kern::available(t)) out.push_back(t);
  return out;
}

/// C(i, j) = the chain of fma(a(i, k), b(k, j), ·) over k ascending, from C.
template <typename A, typename B>
Matrix fma_chain(Matrix c, index_t k, const A& a, const B& b) {
  for (index_t i = 0; i < c.rows(); ++i)
    for (index_t j = 0; j < c.cols(); ++j) {
      real_t acc = c(i, j);
      for (index_t kk = 0; kk < k; ++kk)
        acc = std::fma(a(i, kk), b(kk, j), acc);
      c(i, j) = acc;
    }
  return c;
}

/// The m x m Gram of rows a(i, ·): upper-triangle chains from +0.0, mirrored.
template <typename A>
Matrix gram_chain(index_t m, index_t k, const A& a) {
  Matrix c(m, m);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = i; j < m; ++j) {
      real_t acc = 0.0;
      for (index_t kk = 0; kk < k; ++kk)
        acc = std::fma(a(i, kk), a(j, kk), acc);
      c(i, j) = acc;
      c(j, i) = acc;
    }
  return c;
}

real_t vdot_chain(const std::vector<real_t>& a, const std::vector<real_t>& b,
                  index_t lanes) {
  const index_t n = static_cast<index_t>(a.size()), body = n / lanes * lanes;
  std::vector<real_t> sum(static_cast<std::size_t>(lanes), 0.0);
  for (index_t i = 0; i < body; ++i) {
    real_t& s = sum[static_cast<std::size_t>(i % lanes)];
    s = std::fma(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)],
                 s);
  }
  for (index_t h = 1; h < lanes; h *= 2)
    for (index_t l = 0; l < lanes; l += 2 * h)
      sum[static_cast<std::size_t>(l)] += sum[static_cast<std::size_t>(l + h)];
  real_t out = sum[0];
  for (index_t i = body; i < n; ++i)
    out = std::fma(a[static_cast<std::size_t>(i)],
                   b[static_cast<std::size_t>(i)], out);
  return out;
}

TEST_F(KernelTiers, X86KernelsFollowTheDocumentedFmaChainBitwise) {
  if (x86_tiers().empty()) GTEST_SKIP() << "no x86 SIMD tier on this CPU";
  struct Shape {
    index_t m, n, k;
  };
  // MR = 8, NR = 4 (AVX2) or 8 (AVX-512), KC = 256, MC = 64: partial row
  // panels and column panels, k just past one and two KC blocks, m past MC.
  const Shape shapes[] = {
      {1, 1, 1}, {8, 8, 256}, {13, 11, 300}, {17, 5, 257}, {130, 70, 513}};
  Rng rng(105);
  for (const Shape& sh : shapes) {
    const index_t m = sh.m, n = sh.n, k = sh.k;
    const Matrix a = testutil::random_matrix(rng, m, k);
    const Matrix at = testutil::random_matrix(rng, k, m);
    const Matrix b = testutil::random_matrix(rng, k, n);
    const Matrix bt = testutil::random_matrix(rng, n, k);
    const Matrix c0 = testutil::random_matrix(rng, m, n);
    const Matrix tri = lower_triangle(testutil::random_matrix(rng, m, m));
    std::vector<real_t> s(static_cast<std::size_t>(k));
    for (real_t& v : s) v = rng.normal();
    const auto b_nn = [&b](index_t kk, index_t j) { return b(kk, j); };
    const auto b_nt = [&bt](index_t kk, index_t j) { return bt(j, kk); };
    const std::string dims = std::to_string(m) + "x" + std::to_string(n) +
                                 "x" + std::to_string(k);

    for (const real_t alpha : {1.0, 0.37}) {
      const auto a_nn = [&a, alpha](index_t i, index_t kk) {
        return alpha * a(i, kk);
      };
      const auto a_tn = [&at, alpha](index_t i, index_t kk) {
        return alpha * at(kk, i);
      };
      const auto a_tn_s = [&at, &s, alpha](index_t i, index_t kk) {
        return (alpha * s[static_cast<std::size_t>(kk)]) * at(kk, i);
      };
      const Matrix ref_nn = fma_chain(c0, k, a_nn, b_nn);
      const Matrix ref_nt = fma_chain(c0, k, a_nn, b_nt);
      const Matrix ref_tn = fma_chain(c0, k, a_tn, b_nn);
      const Matrix ref_tn_s = fma_chain(c0, k, a_tn_s, b_nn);
      for (const Tier tier : x86_tiers()) {
        kern::set_tier(tier);
        const std::string where = std::string(kern::tier_name(tier)) + " " +
                                  dims + " alpha " + std::to_string(alpha);
        Matrix c = c0;
        kern::packed_gemm_nn(a, b, c, alpha);
        EXPECT_TRUE(bitwise_equal(c, ref_nn)) << "gemm_nn " << where;
        c = c0;
        kern::packed_gemm_nt(a, bt, c, alpha);
        EXPECT_TRUE(bitwise_equal(c, ref_nt)) << "gemm_nt " << where;
        c = c0;
        kern::packed_gemm_tn(at, nullptr, b, c, alpha);
        EXPECT_TRUE(bitwise_equal(c, ref_tn)) << "gemm_tn " << where;
        c = c0;
        kern::packed_gemm_tn(at, s.data(), b, c, alpha);
        EXPECT_TRUE(bitwise_equal(c, ref_tn_s)) << "gemm_tn diag " << where;
      }
    }

    // The skipped zero rows of a lower-triangular operand are exact zeros
    // added to +0.0, so gram_tn's tril sweep has the full chain's bits.
    const Matrix ref_gram_nt = gram_chain(
        m, k, [&a](index_t i, index_t kk) { return a(i, kk); });
    const Matrix ref_gram_tn = gram_chain(
        m, k, [&at](index_t i, index_t kk) { return at(kk, i); });
    const Matrix ref_tril = gram_chain(
        m, m, [&tri](index_t i, index_t kk) { return tri(kk, i); });
    for (const Tier tier : x86_tiers()) {
      kern::set_tier(tier);
      const std::string where =
          std::string(kern::tier_name(tier)) + " " + dims;
      Matrix g(m, m);
      kern::packed_gram_nt(a, g);
      EXPECT_TRUE(bitwise_equal(g, ref_gram_nt)) << "gram_nt " << where;
      g = Matrix(m, m);
      kern::packed_gram_tn(at, g, false);
      EXPECT_TRUE(bitwise_equal(g, ref_gram_tn)) << "gram_tn " << where;
      g = Matrix(m, m);
      kern::packed_gram_tn(tri, g, true);
      EXPECT_TRUE(bitwise_equal(g, ref_tril)) << "gram_tn tril " << where;
    }
  }

  for (const index_t n : {0, 1, 3, 4, 7, 8, 9, 16, 1003}) {
    std::vector<real_t> a(static_cast<std::size_t>(n)),
        b(static_cast<std::size_t>(n));
    for (real_t& v : a) v = rng.normal();
    for (real_t& v : b) v = rng.normal();
    for (const Tier tier : x86_tiers()) {
      kern::set_tier(tier);
      const real_t got = kern::vdot(a.data(), b.data(), n);
      const real_t want = vdot_chain(a, b, tier == Tier::kAvx512 ? 8 : 4);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(real_t)), 0)
          << "vdot " << kern::tier_name(tier) << " n " << n << ": " << got
          << " vs " << want;
    }
  }
}

// ---- Vector helpers ----------------------------------------------------

TEST_F(KernelTiers, ElementwiseHelpersBitwiseIdenticalAcrossTiers) {
  Rng rng(103);
  std::vector<real_t> a0(131), b(131);
  for (auto& v : a0) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  // ReLU backward operands: x holds ±0, ±Inf, NaN and denormals among
  // normals; every third accumulator is -0.0, which an unmasked
  // `acc + (x > 0 ? g : 0)` would turn into +0.0.
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t specials[] = {0.0,   -0.0, inf, -inf,
                             std::numeric_limits<real_t>::quiet_NaN(),
                             std::numeric_limits<real_t>::denorm_min(),
                             -std::numeric_limits<real_t>::denorm_min(),
                             1e-310};
  std::vector<real_t> relu_x(a0.size()), relu_acc0(a0.size());
  for (std::size_t i = 0; i < relu_x.size(); ++i) {
    relu_x[i] = i % 2 == 0 ? specials[(i / 2) % std::size(specials)]
                           : rng.normal();
    relu_acc0[i] = i % 3 == 0 ? -0.0 : rng.normal();
  }
  const index_t n = static_cast<index_t>(a0.size());

  kern::set_tier(Tier::kScalar);
  std::vector<real_t> mul_ref = a0, scale_ref(a0.size());
  kern::vmul(mul_ref.data(), b.data(), n);
  kern::vscale(scale_ref.data(), a0.data(), 1.7, n);
  const real_t dot_scalar = kern::vdot(a0.data(), b.data(), n);
  std::vector<real_t> relu_ref = relu_acc0;
  kern::vadd_where_positive(relu_ref.data(), b.data(), relu_x.data(), n);
  for (std::size_t i = 0; i < relu_x.size(); ++i) {
    if (!(relu_x[i] > 0.0)) {
      EXPECT_EQ(std::memcmp(&relu_ref[i], &relu_acc0[i], sizeof(real_t)), 0)
          << "masked-off accumulator " << i << " changed";
    }
  }

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    std::vector<real_t> mul = a0, scale(a0.size()), relu = relu_acc0;
    kern::vmul(mul.data(), b.data(), n);
    kern::vscale(scale.data(), a0.data(), 1.7, n);
    kern::vadd_where_positive(relu.data(), b.data(), relu_x.data(), n);
    // vmul/vscale/vadd_where_positive are elementwise: bitwise identical
    // across tiers.
    EXPECT_EQ(std::memcmp(mul.data(), mul_ref.data(),
                          sizeof(real_t) * mul.size()),
              0)
        << kern::tier_name(tier);
    EXPECT_EQ(std::memcmp(scale.data(), scale_ref.data(),
                          sizeof(real_t) * scale.size()),
              0)
        << kern::tier_name(tier);
    EXPECT_EQ(std::memcmp(relu.data(), relu_ref.data(),
                          sizeof(real_t) * relu.size()),
              0)
        << kern::tier_name(tier);
    // vdot reassociates: bound, don't bit-compare.
    const real_t d = kern::vdot(a0.data(), b.data(), n);
    EXPECT_NEAR(d, dot_scalar, 1e-12 * std::abs(dot_scalar) + 1e-12)
        << kern::tier_name(tier);
  }
}

}  // namespace
}  // namespace hylo
