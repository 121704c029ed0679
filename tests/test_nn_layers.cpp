// Finite-difference gradient validation of every layer's backward pass, via
// small networks trained under softmax cross-entropy. This is the linchpin
// test: all second-order machinery consumes these gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hylo/nn/layers.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/nn/network.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

Tensor4 random_batch(Rng& rng, index_t n, Shape s, real_t scale = 1.0) {
  Tensor4 x(n, s.c, s.h, s.w);
  for (index_t i = 0; i < x.size(); ++i) x[i] = scale * rng.normal();
  return x;
}

std::vector<int> random_labels(Rng& rng, index_t n, index_t classes) {
  std::vector<int> y(static_cast<std::size_t>(n));
  for (auto& v : y) v = static_cast<int>(rng.uniform_int(classes));
  return y;
}

real_t eval_loss(Network& net, const Tensor4& x, const std::vector<int>& y) {
  const PassContext ctx{.training = true, .capture = false};
  const Tensor4& logits = net.forward(x, ctx);
  return SoftmaxCrossEntropy().compute(logits, y).loss;
}

// Max relative error between analytic and central-difference gradients over
// all weights of all param blocks (and plain params).
real_t grad_check(Network& net, const Tensor4& x, const std::vector<int>& y,
                  real_t eps = 1e-5) {
  const PassContext ctx{.training = true, .capture = false};
  net.zero_grad();
  const Tensor4& logits = net.forward(x, ctx);
  const LossResult lr = SoftmaxCrossEntropy().compute(logits, y);
  net.backward(lr.grad, ctx);

  real_t worst = 0.0;
  auto check_scalar = [&](real_t& w, real_t analytic) {
    const real_t saved = w;
    w = saved + eps;
    const real_t lp = eval_loss(net, x, y);
    w = saved - eps;
    const real_t lm = eval_loss(net, x, y);
    w = saved;
    const real_t numeric = (lp - lm) / (2.0 * eps);
    const real_t denom = std::max({std::abs(analytic), std::abs(numeric), real_t{1e-4}});
    worst = std::max(worst, std::abs(analytic - numeric) / denom);
  };
  for (auto* pb : net.param_blocks())
    for (index_t i = 0; i < pb->w.size(); ++i)
      check_scalar(pb->w.data()[i], pb->gw.data()[i]);
  for (auto pp : net.plain_params())
    for (std::size_t i = 0; i < pp.value->size(); ++i)
      check_scalar((*pp.value)[i], (*pp.grad)[i]);
  return worst;
}

TEST(GradCheck, LinearChain) {
  Rng rng(1);
  Network net = [&] {
    Rng wrng(11);
    Network n("t");
    int x = n.add_input({5, 1, 1});
    x = n.add(std::make_unique<Linear>(7, wrng), x);
    x = n.add(std::make_unique<ReLU>(), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  }();
  const Tensor4 x = random_batch(rng, 6, {5, 1, 1});
  EXPECT_LT(grad_check(net, x, random_labels(rng, 6, 3)), 1e-5);
}

TEST(GradCheck, ConvChain) {
  Rng rng(2);
  Network net = [&] {
    Rng wrng(12);
    Network n("t");
    int x = n.add_input({2, 6, 6});
    x = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    x = n.add(std::make_unique<ReLU>(), x);
    x = n.add(std::make_unique<Conv2d>(4, 3, 2, 1, wrng), x);
    x = n.add(std::make_unique<ReLU>(), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  }();
  const Tensor4 x = random_batch(rng, 4, {2, 6, 6});
  EXPECT_LT(grad_check(net, x, random_labels(rng, 4, 3)), 1e-5);
}

TEST(GradCheck, BatchNorm) {
  Rng rng(3);
  Network net = [&] {
    Rng wrng(13);
    Network n("t");
    int x = n.add_input({2, 4, 4});
    x = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    x = n.add(std::make_unique<BatchNorm2d>(), x);
    x = n.add(std::make_unique<ReLU>(), x);
    n.add(std::make_unique<Linear>(2, wrng), x);
    return n;
  }();
  const Tensor4 x = random_batch(rng, 5, {2, 4, 4});
  EXPECT_LT(grad_check(net, x, random_labels(rng, 5, 2)), 1e-5);
}

TEST(GradCheck, PoolingLayers) {
  Rng rng(4);
  Network net = [&] {
    Rng wrng(14);
    Network n("t");
    int x = n.add_input({2, 8, 8});
    x = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    x = n.add(std::make_unique<MaxPool2d>(2, 2), x);
    x = n.add(std::make_unique<ReLU>(), x);
    x = n.add(std::make_unique<AvgPool2d>(2), x);
    x = n.add(std::make_unique<GlobalAvgPool>(), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  }();
  const Tensor4 x = random_batch(rng, 4, {2, 8, 8});
  EXPECT_LT(grad_check(net, x, random_labels(rng, 4, 3)), 1e-5);
}

TEST(GradCheck, ResidualAdd) {
  Rng rng(5);
  Network net = [&] {
    Rng wrng(15);
    Network n("t");
    int x = n.add_input({3, 4, 4});
    int y = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    y = n.add(std::make_unique<ReLU>(), y);
    y = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), y);
    x = n.add(std::make_unique<Add>(), {y, x});
    x = n.add(std::make_unique<ReLU>(), x);
    x = n.add(std::make_unique<GlobalAvgPool>(), x);
    n.add(std::make_unique<Linear>(2, wrng), x);
    return n;
  }();
  const Tensor4 x = random_batch(rng, 4, {3, 4, 4});
  EXPECT_LT(grad_check(net, x, random_labels(rng, 4, 2)), 1e-5);
}

TEST(GradCheck, ConcatAndUpsample) {
  Rng rng(6);
  Network net = [&] {
    Rng wrng(16);
    Network n("t");
    int x = n.add_input({2, 4, 4});
    int enc = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    int down = n.add(std::make_unique<MaxPool2d>(2, 2), enc);
    int up = n.add(std::make_unique<Upsample2x>(), down);
    int cat = n.add(std::make_unique<Concat>(), {up, enc});
    int y = n.add(std::make_unique<Conv2d>(2, 3, 1, 1, wrng), cat);
    y = n.add(std::make_unique<GlobalAvgPool>(), y);
    n.add(std::make_unique<Linear>(2, wrng), y);
    return n;
  }();
  const Tensor4 x = random_batch(rng, 3, {2, 4, 4});
  EXPECT_LT(grad_check(net, x, random_labels(rng, 3, 2)), 1e-5);
}

TEST(BatchNorm, NormalizesInTrainingMode) {
  Rng wrng(21);
  Network net("t");
  int x = net.add_input({2, 3, 3});
  net.add(std::make_unique<BatchNorm2d>(), x);
  Rng rng(22);
  Tensor4 in = random_batch(rng, 8, {2, 3, 3}, 3.0);
  for (index_t i = 0; i < in.size(); ++i) in[i] += 5.0;  // biased input
  const PassContext ctx{.training = true, .capture = false};
  const Tensor4& out = net.forward(in, ctx);
  // Per-channel mean ~0, var ~1.
  for (index_t c = 0; c < 2; ++c) {
    real_t sum = 0.0, sumsq = 0.0;
    for (index_t i = 0; i < 8; ++i)
      for (index_t j = 0; j < 9; ++j) {
        const real_t v = out.sample_ptr(i)[c * 9 + j];
        sum += v;
        sumsq += v * v;
      }
    const real_t mean = sum / 72.0;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(sumsq / 72.0 - mean * mean, 1.0, 1e-3);
  }
  (void)wrng;
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Network net("t");
  int x = net.add_input({1, 2, 2});
  net.add(std::make_unique<BatchNorm2d>(0.5), x);
  Rng rng(23);
  const Tensor4 in = random_batch(rng, 16, {1, 2, 2}, 2.0);
  const PassContext train{.training = true, .capture = false};
  for (int it = 0; it < 20; ++it) net.forward(in, train);
  const PassContext eval{.training = false, .capture = false};
  const Tensor4& out = net.forward(in, eval);
  // After many updates on the same batch, eval output ~ train output.
  const Tensor4& tout = net.forward(in, train);
  real_t diff = 0.0;
  for (index_t i = 0; i < out.size(); ++i)
    diff = std::max(diff, std::abs(out[i] - tout[i]));
  EXPECT_LT(diff, 0.05);
}

// BatchNorm2d with x̂ materialized in forward and read back in backward —
// the layout the layer had before it recomputed x̂ from the saved
// statistics. Same expressions, so the same roundings: std::fma wherever a
// product feeds a sum, as in the layer's kernels (elementwise.hpp), so the
// two agree under any -ffp-contract or -march.
struct StoredXHatBatchNorm {
  real_t momentum = 0.1, eps = 1e-5;
  std::vector<real_t> gamma, beta, grad_gamma, grad_beta;
  std::vector<real_t> running_mean, running_var, saved_inv_std;
  Tensor4 x_hat;

  void forward(const Tensor4& x, Tensor4& out, bool training) {
    const index_t n = x.n(), c = x.c(), hw = x.h() * x.w();
    out.resize(n, c, x.h(), x.w());
    x_hat.resize(n, c, x.h(), x.w());
    saved_inv_std.assign(static_cast<std::size_t>(c), 0.0);
    const real_t count = static_cast<real_t>(n * hw);
    for (index_t ch = 0; ch < c; ++ch) {
      const auto k = static_cast<std::size_t>(ch);
      real_t mean, var;
      if (training) {
        real_t sum = 0.0, sumsq = 0.0;
        for (index_t i = 0; i < n; ++i) {
          const real_t* p = x.sample_ptr(i) + ch * hw;
          for (index_t j = 0; j < hw; ++j) {
            sum += p[j];
            sumsq = std::fma(p[j], p[j], sumsq);
          }
        }
        mean = sum / count;
        var = sumsq / count - mean * mean;
        if (var < 0.0) var = 0.0;
        running_mean[k] = (1.0 - momentum) * running_mean[k] + momentum * mean;
        running_var[k] = (1.0 - momentum) * running_var[k] + momentum * var;
      } else {
        mean = running_mean[k];
        var = running_var[k];
      }
      const real_t inv_std = 1.0 / std::sqrt(var + eps);
      saved_inv_std[k] = inv_std;
      for (index_t i = 0; i < n; ++i) {
        const real_t* px = x.sample_ptr(i) + ch * hw;
        real_t* ph = x_hat.sample_ptr(i) + ch * hw;
        real_t* po = out.sample_ptr(i) + ch * hw;
        for (index_t j = 0; j < hw; ++j) {
          const real_t xh = (px[j] - mean) * inv_std;
          ph[j] = xh;
          po[j] = std::fma(gamma[k], xh, beta[k]);
        }
      }
    }
  }

  void backward(const Tensor4& gout, Tensor4& gin, bool training) {
    const index_t n = gout.n(), c = gout.c(), hw = gout.h() * gout.w();
    const real_t count = static_cast<real_t>(n * hw);
    for (index_t ch = 0; ch < c; ++ch) {
      const auto kc = static_cast<std::size_t>(ch);
      const real_t inv_std = saved_inv_std[kc];
      real_t sum_dy = 0.0, sum_dy_xh = 0.0;
      for (index_t i = 0; i < n; ++i) {
        const real_t* pg = gout.sample_ptr(i) + ch * hw;
        const real_t* ph = x_hat.sample_ptr(i) + ch * hw;
        for (index_t j = 0; j < hw; ++j) {
          sum_dy += pg[j];
          sum_dy_xh = std::fma(pg[j], ph[j], sum_dy_xh);
        }
      }
      grad_beta[kc] += sum_dy;
      grad_gamma[kc] += sum_dy_xh;
      if (training) {
        const real_t k = gamma[kc] * inv_std / count;
        for (index_t i = 0; i < n; ++i) {
          const real_t* pg = gout.sample_ptr(i) + ch * hw;
          const real_t* ph = x_hat.sample_ptr(i) + ch * hw;
          real_t* pi = gin.sample_ptr(i) + ch * hw;
          for (index_t j = 0; j < hw; ++j) {
            const real_t t = std::fma(-ph[j], sum_dy_xh,
                                      std::fma(count, pg[j], -sum_dy));
            pi[j] = std::fma(k, t, pi[j]);
          }
        }
      } else {
        const real_t k = gamma[kc] * inv_std;
        for (index_t i = 0; i < n; ++i) {
          const real_t* pg = gout.sample_ptr(i) + ch * hw;
          real_t* pi = gin.sample_ptr(i) + ch * hw;
          for (index_t j = 0; j < hw; ++j) pi[j] = std::fma(k, pg[j], pi[j]);
        }
      }
    }
  }
};

bool same_bits(const Tensor4& a, const Tensor4& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(real_t) * static_cast<std::size_t>(a.size())) == 0;
}

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(real_t) * a.size()) == 0;
}

// BatchNorm2d keeps no x̂: backward recomputes it from x and the saved
// statistics. Output, input gradient, scale/shift gradients and running
// statistics must equal the stored-x̂ layout bit for bit, over training
// steps and an eval pass (whose grad_gamma uses the running statistics).
TEST(BatchNorm, RecomputedXHatEqualsStoredXHatBitwise) {
  Rng rng(24);
  const Shape s{3, 5, 4};
  BatchNorm2d bn;
  bn.infer_shape({s});
  StoredXHatBatchNorm ref;
  const auto params = bn.plain_params();
  for (auto& v : *params[0].value) v = rng.normal();
  for (auto& v : *params[1].value) v = rng.normal();
  ref.gamma = *params[0].value;
  ref.beta = *params[1].value;
  ref.grad_gamma = *params[0].grad;
  ref.grad_beta = *params[1].grad;
  ref.running_mean = *bn.mutable_state()[0];
  ref.running_var = *bn.mutable_state()[1];

  for (const bool training : {true, true, false}) {
    SCOPED_TRACE(training ? "train" : "eval");
    const Tensor4 x = random_batch(rng, 6, s, 2.0);
    const Tensor4 gout = random_batch(rng, 6, s);
    Tensor4 gin = random_batch(rng, 6, s);
    Tensor4 gin_ref = gin;
    Tensor4 out, out_ref;
    const PassContext ctx{.training = training, .capture = false};
    bn.forward({&x}, out, ctx);
    bn.backward({&x}, out, gout, {&gin}, ctx);
    ref.forward(x, out_ref, training);
    ref.backward(gout, gin_ref, training);
    EXPECT_TRUE(same_bits(out, out_ref)) << "output";
    EXPECT_TRUE(same_bits(gin, gin_ref)) << "input gradient";
    EXPECT_TRUE(same_bits(*params[0].grad, ref.grad_gamma)) << "grad_gamma";
    EXPECT_TRUE(same_bits(*params[1].grad, ref.grad_beta)) << "grad_beta";
    EXPECT_TRUE(same_bits(*bn.mutable_state()[0], ref.running_mean));
    EXPECT_TRUE(same_bits(*bn.mutable_state()[1], ref.running_var));
  }
}

TEST(Capture, LinearGradientIdentity) {
  // gw must equal (1/m) G_capᵀ A_cap exactly for fully-connected layers.
  Rng rng(7), wrng(17);
  Network net("t");
  int x = net.add_input({4, 1, 1});
  net.add(std::make_unique<Linear>(3, wrng), x);
  const index_t m = 6;
  const Tensor4 in = random_batch(rng, m, {4, 1, 1});
  const auto labels = random_labels(rng, m, 3);
  const PassContext ctx{.training = true, .capture = true};
  net.zero_grad();
  const Tensor4& logits = net.forward(in, ctx);
  const LossResult lr = SoftmaxCrossEntropy().compute(logits, labels);
  net.backward(lr.grad, ctx);

  ParamBlock* pb = net.param_blocks()[0];
  ASSERT_EQ(pb->a_samples.rows(), m);
  ASSERT_EQ(pb->a_samples.cols(), 5);  // d_in + 1
  ASSERT_EQ(pb->g_samples.rows(), m);
  const Matrix recon =
      matmul_tn(pb->g_samples, pb->a_samples) * (1.0 / static_cast<real_t>(m));
  EXPECT_LT(max_abs_diff(recon, pb->gw), 1e-10);
}

TEST(Capture, ConvGradientIdentityWhenSpatialIsOne) {
  // With a single output position, the Sec. IV spatial-sum capture is exact:
  // gw == (1/m) Ĝᵀ Â.
  Rng rng(8), wrng(18);
  Network net("t");
  int x = net.add_input({2, 3, 3});
  net.add(std::make_unique<Conv2d>(4, 3, 1, 0, wrng), x);  // out 1x1
  const index_t m = 5;
  const Tensor4 in = random_batch(rng, m, {2, 3, 3});
  const PassContext ctx{.training = true, .capture = true};
  net.zero_grad();
  const Tensor4& out = net.forward(in, ctx);
  // Drive with an arbitrary smooth loss: L = mean(out²)/2.
  Tensor4 g(out.n(), out.c(), out.h(), out.w());
  for (index_t i = 0; i < out.size(); ++i)
    g[i] = out[i] / static_cast<real_t>(m);
  net.backward(g, ctx);

  ParamBlock* pb = net.param_blocks()[0];
  ASSERT_EQ(pb->a_samples.cols(), pb->d_in + 1);
  // Augmentation column holds S = 1.
  for (index_t i = 0; i < m; ++i)
    EXPECT_EQ(pb->a_samples(i, pb->d_in), 1.0);
  const Matrix recon =
      matmul_tn(pb->g_samples, pb->a_samples) * (1.0 / static_cast<real_t>(m));
  EXPECT_LT(max_abs_diff(recon, pb->gw), 1e-10);
}

TEST(Capture, ConvBiasColumnIsExactWithSpatialExtent) {
  // Even with S > 1, the bias column of (1/m) Ĝᵀ Â matches the true bias
  // gradient — this is why the augmentation stores S, not 1.
  Rng rng(9), wrng(19);
  Network net("t");
  int x = net.add_input({2, 6, 6});
  net.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);  // out 6x6, S=36
  const index_t m = 4;
  const Tensor4 in = random_batch(rng, m, {2, 6, 6});
  const PassContext ctx{.training = true, .capture = true};
  net.zero_grad();
  const Tensor4& out = net.forward(in, ctx);
  Tensor4 g(out.n(), out.c(), out.h(), out.w());
  Rng grng(99);
  for (index_t i = 0; i < g.size(); ++i) g[i] = grng.normal() / static_cast<real_t>(m);
  net.backward(g, ctx);

  ParamBlock* pb = net.param_blocks()[0];
  const index_t d = pb->d_in;
  for (index_t i = 0; i < m; ++i) EXPECT_EQ(pb->a_samples(i, d), 36.0);
  // True bias gradient is the last column of gw; captured version:
  // (1/m) Σ_i ĝ_i · Â_i(bias) / S... — directly: ĝ_i already sums g over
  // spatial, so Σ_i ĝ_i/m (per output channel) is the bias gradient.
  for (index_t o = 0; o < pb->d_out; ++o) {
    real_t acc = 0.0;
    for (index_t i = 0; i < m; ++i) acc += pb->g_samples(i, o);
    EXPECT_NEAR(acc / static_cast<real_t>(m), pb->gw(o, d), 1e-10);
  }
}

TEST(Layers, ShapeInferenceErrors) {
  Rng wrng(20);
  EXPECT_THROW(MaxPool2d(2, 2).infer_shape({Shape{1, 1, 1}}), Error);
  EXPECT_THROW(AvgPool2d(2).infer_shape({Shape{1, 3, 3}}), Error);
  EXPECT_THROW(Add().infer_shape({Shape{1, 2, 2}, Shape{2, 2, 2}}), Error);
  EXPECT_THROW(Concat().infer_shape({Shape{1, 2, 2}, Shape{1, 3, 3}}), Error);
  EXPECT_THROW(Conv2d(4, 5, 1, 0, wrng).infer_shape({Shape{1, 3, 3}}), Error);
}

// out_h()/out_w() truncate toward zero, so a 3x3 window at stride 2 over an
// unpadded 2x2 input would get one output position whose taps run past the
// edge. Every window must fit inside the padded input, in both dimensions.
TEST(Layers, ConvRejectsWindowPastThePaddedInput) {
  Rng wrng(21);
  EXPECT_THROW(Conv2d(2, 3, 2, 0, wrng).infer_shape({Shape{1, 2, 2}}), Error);
  EXPECT_THROW(Conv2d(2, 3, 1, 0, wrng).infer_shape({Shape{1, 2, 5}}), Error);
  EXPECT_THROW(Conv2d(2, 3, 1, 0, wrng).infer_shape({Shape{1, 5, 2}}), Error);
  // Padding that brings the input up to the kernel is enough.
  const Shape s = Conv2d(2, 3, 2, 1, wrng).infer_shape({Shape{1, 1, 1}});
  EXPECT_EQ(s.h, 1);
  EXPECT_EQ(s.w, 1);
  const Shape t = Conv2d(2, 3, 2, 0, wrng).infer_shape({Shape{1, 3, 4}});
  EXPECT_EQ(t.h, 1);
  EXPECT_EQ(t.w, 1);
}

// ---- Elementwise passes: every kernel tier against the scalar reference ----

const real_t kNaN = std::numeric_limits<real_t>::quiet_NaN();

/// The same bits in every entry, except that a NaN matches any NaN. IEEE 754
/// leaves the sign and payload of a NaN result open, and they do differ: a
/// vector fmsub or fnmadd passes a NaN operand through as it is, while
/// std::fma on a negated operand (a libm call in a build without hardware
/// fma, such as the sanitizer lane) passes on the flipped sign. Every other
/// value, ±0.0 included, is compared bit for bit.
bool same_values(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(std::isnan(a[i]) && std::isnan(b[i])) &&
        std::memcmp(&a[i], &b[i], sizeof(real_t)) != 0)
      return false;
  return true;
}

/// Restores the ambient kernel tier on scope exit.
class TierScope {
 public:
  TierScope() : saved_(kern::active()) {}
  ~TierScope() { kern::set_tier(saved_); }
  TierScope(const TierScope&) = delete;
  TierScope& operator=(const TierScope&) = delete;

 private:
  kern::Tier saved_;
};

std::vector<kern::Tier> cpu_tiers() {
  std::vector<kern::Tier> out;
  for (const kern::Tier t : {kern::Tier::kScalar, kern::Tier::kNeon,
                             kern::Tier::kAvx2, kern::Tier::kAvx512})
    if (kern::available(t)) out.push_back(t);
  return out;
}

/// Replace one in `every` entries of x by the next of `specials`, in the
/// channels ch with ch % period == period − 1 only: with period 3 the other
/// channels' BatchNorm statistics stay finite, so their chains are compared
/// bit for bit at every shape.
void sprinkle(Rng& rng, Tensor4& x, const std::vector<real_t>& specials,
              index_t every, index_t period) {
  const index_t hw = x.h() * x.w();
  std::size_t next = 0;
  for (index_t i = 0; i < x.size(); ++i)
    if ((i / hw) % x.c() % period == period - 1 &&
        rng.uniform_int(static_cast<std::uint64_t>(every)) == 0)
      x[i] = specials[next++ % specials.size()];
}

std::vector<real_t> values(const Tensor4& t) {
  return {t.data(), t.data() + t.size()};
}

/// Named results of one run, compared part by part.
using Results = std::vector<std::pair<std::string, std::vector<real_t>>>;

/// same_values of every part; on a mismatch, one failure naming the first
/// part.
void expect_same(const Results& got, const Results& want,
                 const std::string& where, int& failures) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    if (!same_values(got[k].second, want[k].second)) {
      if (failures++ < 5) ADD_FAILURE() << where << ": " << got[k].first;
      return;
    }
}

/// The operands of one sweep case.
struct BnCase {
  Shape s;
  Tensor4 x, g, gin0, x_eval, g_eval;
  std::vector<real_t> gamma, beta;
};

BnCase bn_case(Rng& rng, index_t n, Shape s) {
  BnCase c{s, random_batch(rng, n, s, 2.0), random_batch(rng, n, s),
           random_batch(rng, n, s), random_batch(rng, n, s, 2.0),
           random_batch(rng, n, s), {}, {}};
  for (Tensor4* x : {&c.x, &c.x_eval}) {
    sprinkle(rng, *x, {0.0, -0.0}, 11, 1);
    sprinkle(rng, *x, {kNaN, INFINITY, -INFINITY}, 97, 3);
  }
  for (Tensor4* g : {&c.g, &c.g_eval}) {
    sprinkle(rng, *g, {-0.0, 0.0}, 7, 1);
    sprinkle(rng, *g, {kNaN}, 97, 3);
  }
  sprinkle(rng, c.gin0, {-0.0}, 5, 1);
  for (index_t ch = 0; ch < s.c; ++ch) {
    c.gamma.push_back(rng.normal());
    c.beta.push_back(ch % 4 == 0 ? -0.0 : rng.normal());
  }
  return c;
}

/// One BatchNorm2d, a training pass then an eval pass, each a forward and a
/// backward into a prefilled gin. With `relu` the layer's ReLU consumer
/// runs too: inside the layer when `fused`, else as a ReLU layer whose
/// gradient buffer starts zeroed, as Network's does.
Results run_bn(const BnCase& c, bool relu, bool fused) {
  BatchNorm2d bn;
  bn.infer_shape({c.s});
  *bn.plain_params()[0].value = c.gamma;
  *bn.plain_params()[1].value = c.beta;
  ReLU act;
  Results r;
  for (const bool training : {true, false}) {
    const Tensor4& x = training ? c.x : c.x_eval;
    const Tensor4& g = training ? c.g : c.g_eval;
    const PassContext ctx{.training = training, .capture = false,
                          .fused_relu = relu && fused};
    Tensor4 y, out, gy(x.n(), x.c(), x.h(), x.w()), gin = c.gin0;
    if (relu && !fused) {
      bn.forward({&x}, y, ctx);
      act.forward({&y}, out, ctx);
      act.backward({&y}, out, g, {&gy}, ctx);
      bn.backward({&x}, y, gy, {&gin}, ctx);
    } else {
      bn.forward({&x}, out, ctx);
      bn.backward({&x}, out, g, {&gin}, ctx);
    }
    const std::string pass = training ? "train " : "eval ";
    r.emplace_back(pass + "output", values(out));
    r.emplace_back(pass + "gin", values(gin));
  }
  r.emplace_back("grad_gamma", *bn.plain_params()[0].grad);
  r.emplace_back("grad_beta", *bn.plain_params()[1].grad);
  r.emplace_back("running_mean", *bn.mutable_state()[0]);
  r.emplace_back("running_var", *bn.mutable_state()[1]);
  return r;
}

/// Add, then its ReLU consumer when `relu` (fused or as a layer), forward
/// and backward into two prefilled input gradients.
Results run_add(const BnCase& c, bool relu, bool fused) {
  Add add;
  add.infer_shape({c.s, c.s});
  ReLU act;
  const PassContext ctx{.training = true, .capture = false,
                        .fused_relu = relu && fused};
  const Tensor4& a = c.x;
  const Tensor4& b = c.x_eval;
  Tensor4 y, out, gy(a.n(), a.c(), a.h(), a.w()), ga = c.gin0, gb = c.g_eval;
  if (relu && !fused) {
    add.forward({&a, &b}, y, ctx);
    act.forward({&y}, out, ctx);
    act.backward({&y}, out, c.g, {&gy}, ctx);
    add.backward({&a, &b}, y, gy, {&ga, &gb}, ctx);
  } else {
    add.forward({&a, &b}, out, ctx);
    add.backward({&a, &b}, out, c.g, {&ga, &gb}, ctx);
  }
  return {{"output", values(out)},
          {"gin a", values(ga)},
          {"gin b", values(gb)}};
}

/// ReLU alone, forward and backward into a prefilled gradient.
Results run_relu(const BnCase& c) {
  ReLU act;
  const PassContext ctx{.training = true, .capture = false};
  Tensor4 out, gin = c.gin0;
  act.forward({&c.x}, out, ctx);
  act.backward({&c.x}, out, c.g, {&gin}, ctx);
  return {{"output", values(out)}, {"gin", values(gin)}};
}

// The per-element passes of BatchNorm2d (training and eval), Add and ReLU
// give every tier the scalar tier's bits (same_values): channel counts
// around and off the lane widths (1, 3, 8, 12, 17, 48), spatial extents with
// and without position tails (1x1 to 16x16), batches 1, 6 and 16, inputs
// with NaN, ±Inf and ±0.0, gradients with −0.0. A BatchNorm2d or Add running
// its ReLU (PassContext::fused_relu) equals the layer pair, in every tier.
TEST(ElementwiseTiers, EveryTierMatchesTheScalarReferenceBitwise) {
  TierScope scope;
  Rng rng(2026);
  int failures = 0;
  for (const index_t c : {1, 3, 8, 12, 17, 48})
    for (const auto& [h, w] : {std::pair<index_t, index_t>{1, 1},
                               {4, 4}, {5, 4}, {7, 7}, {16, 16}})
      for (const index_t n : {1, 6, 16}) {
        const BnCase cs = bn_case(rng, n, Shape{c, h, w});
        kern::set_tier(kern::Tier::kScalar);
        const Results bn_ref = run_bn(cs, false, false);
        const Results bn_relu_ref = run_bn(cs, true, false);
        const Results add_ref = run_add(cs, false, false);
        const Results add_relu_ref = run_add(cs, true, false);
        const Results relu_ref = run_relu(cs);
        for (const kern::Tier t : cpu_tiers()) {
          kern::set_tier(t);
          const std::string where = std::string(kern::tier_name(t)) + " " +
                                    std::to_string(n) + "x" +
                                    std::to_string(c) + "x" +
                                    std::to_string(h) + "x" + std::to_string(w);
          expect_same(run_bn(cs, false, false), bn_ref, where + " bn",
                      failures);
          expect_same(run_bn(cs, true, false), bn_relu_ref,
                      where + " bn+relu", failures);
          expect_same(run_bn(cs, true, true), bn_relu_ref,
                      where + " bn+relu fused", failures);
          expect_same(run_add(cs, false, false), add_ref, where + " add",
                      failures);
          expect_same(run_add(cs, true, false), add_relu_ref,
                      where + " add+relu", failures);
          expect_same(run_add(cs, true, true), add_relu_ref,
                      where + " add+relu fused", failures);
          expect_same(run_relu(cs), relu_ref, where + " relu", failures);
        }
      }
  EXPECT_EQ(failures, 0);
}

// The fused ReLU gradient rule at the edges: a positive output passes
// 0.0 + g (−0.0 becomes +0.0), anything else, NaN included, gives +0.0, and
// Add adds that value into a −0.0 accumulator rather than skip it.
TEST(ElementwiseTiers, FusedReluGradientIsZeroPlusG) {
  TierScope scope;
  const Shape s{1, 1, 4};
  Tensor4 a(1, 1, 1, 4), b(1, 1, 1, 4), g(1, 1, 1, 4);
  const real_t av[] = {1.0, -1.0, kNaN, 0.0};
  const real_t gv[] = {-0.0, 2.0, 3.0, 4.0};
  for (index_t i = 0; i < 4; ++i) {
    a[i] = av[i];
    g[i] = gv[i];
  }
  for (const kern::Tier t : cpu_tiers()) {
    kern::set_tier(t);
    Add add;
    add.infer_shape({s, s});
    const PassContext ctx{.training = true, .capture = false,
                          .fused_relu = true};
    Tensor4 out, ga(1, 1, 1, 4), gb(1, 1, 1, 4);
    for (index_t i = 0; i < 4; ++i) ga[i] = -0.0;
    add.forward({&a, &b}, out, ctx);
    add.backward({&a, &b}, out, g, {&ga, &gb}, ctx);
    for (index_t i = 0; i < 4; ++i) {
      SCOPED_TRACE(std::string(kern::tier_name(t)) + " lane " +
                   std::to_string(i));
      EXPECT_FALSE(std::signbit(out[i]));
      EXPECT_EQ(out[i], i == 0 ? 1.0 : 0.0);
      EXPECT_FALSE(std::signbit(ga[i]));
      EXPECT_EQ(ga[i], 0.0);
    }
  }
}

// ---- ReLU fusion in Network ---------------------------------------------

/// A layer's weight gradient, plain-parameter gradients and persistent state.
void append_state(Layer& l, Results& r) {
  if (ParamBlock* pb = l.param_block())
    r.emplace_back("gw", std::vector<real_t>(pb->gw.data(),
                                             pb->gw.data() + pb->gw.size()));
  for (auto pp : l.plain_params()) r.emplace_back("plain grad", *pp.grad);
  for (auto* st : l.mutable_state()) r.emplace_back("layer state", *st);
}

/// The same graph as a Network, and as a layer list that a plain
/// layer-by-layer executor runs with no fusion: the reference.
struct Graph {
  std::vector<std::pair<std::unique_ptr<Layer>, std::vector<int>>> layers;
  int add(std::unique_ptr<Layer> layer, std::vector<int> inputs) {
    layers.emplace_back(std::move(layer), std::move(inputs));
    return static_cast<int>(layers.size());
  }
};

struct LayerByLayer {
  Graph graph;
  std::vector<Tensor4> out, grad;

  explicit LayerByLayer(Graph g, Shape in) : graph(std::move(g)) {
    std::vector<Shape> shapes{in};
    for (auto& [layer, inputs] : graph.layers) {
      std::vector<Shape> s;
      for (const int id : inputs)
        s.push_back(shapes[static_cast<std::size_t>(id)]);
      shapes.push_back(layer->infer_shape(s));
    }
  }

  const Tensor4& forward(const Tensor4& x, const PassContext& ctx) {
    out.assign(graph.layers.size() + 1, Tensor4());
    out[0] = x;
    for (std::size_t k = 1; k < out.size(); ++k) {
      auto& [layer, inputs] = graph.layers[k - 1];
      std::vector<const Tensor4*> in;
      for (const int id : inputs)
        in.push_back(&out[static_cast<std::size_t>(id)]);
      layer->forward(in, out[k], ctx);
    }
    return out.back();
  }

  void backward(const Tensor4& g, const PassContext& ctx) {
    grad.assign(out.size(), Tensor4());
    for (std::size_t k = 1; k + 1 < out.size(); ++k)
      grad[k] = Tensor4(out[k].n(), out[k].c(), out[k].h(), out[k].w());
    grad.back() = g;
    for (std::size_t k = out.size(); k-- > 1;) {
      auto& [layer, inputs] = graph.layers[k - 1];
      std::vector<const Tensor4*> in;
      std::vector<Tensor4*> gin;
      for (const int id : inputs) {
        in.push_back(&out[static_cast<std::size_t>(id)]);
        gin.push_back(id == 0 ? nullptr : &grad[static_cast<std::size_t>(id)]);
      }
      layer->backward(in, out[k], grad[k], gin, ctx);
    }
  }

  Results state() {
    Results r;
    for (auto& entry : graph.layers) append_state(*entry.first, r);
    return r;
  }
};

Results network_state(Network& net) {
  Results r;
  for (index_t k = 1; k < net.num_nodes(); ++k)
    append_state(const_cast<Layer&>(*net.layer(k)), r);
  return r;
}

/// A training and an eval step of `make`'s graph through Network equal the
/// layer-by-layer executor's: logits, every parameter gradient (summed over
/// both steps), BatchNorm's running statistics.
void expect_network_matches_layer_by_layer(Graph (*make)(Rng&), Shape in) {
  Rng wa(41), wb(41), rng(42);
  Graph ga = make(wa);
  Network net("fusion");
  net.add_input(in);
  for (auto& [layer, inputs] : ga.layers) net.add(std::move(layer), inputs);
  LayerByLayer ref(make(wb), in);
  int failures = 0;
  for (const bool training : {true, false}) {
    const PassContext ctx{.training = training, .capture = false};
    const Tensor4 x = random_batch(rng, 6, in, 2.0);
    const auto labels = random_labels(rng, 6, 3);
    const Tensor4 logits = net.forward(x, ctx);
    const LossResult lr = SoftmaxCrossEntropy().compute(logits, labels);
    net.backward(lr.grad, ctx);
    const Tensor4 ref_logits = ref.forward(x, ctx);
    ref.backward(lr.grad, ctx);
    const std::string where = training ? "train" : "eval";
    EXPECT_TRUE(same_bits(logits, ref_logits)) << where << ": logits";
    expect_same(network_state(net), ref.state(), where, failures);
  }
  EXPECT_EQ(failures, 0);
}

// conv → BN → ReLU → add(ReLU, BN) → ReLU → pool → linear: the BN has two
// consumers, so its ReLU runs as a layer and the Add reads the BN's own
// output; the Add's ReLU fuses.
Graph shared_bn_graph(Rng& wrng) {
  Graph g;
  const int conv = g.add(std::make_unique<Conv2d>(4, 3, 1, 1, wrng), {0});
  const int bn = g.add(std::make_unique<BatchNorm2d>(), {conv});
  const int relu = g.add(std::make_unique<ReLU>(), {bn});
  const int add = g.add(std::make_unique<Add>(), {relu, bn});
  const int relu2 = g.add(std::make_unique<ReLU>(), {add});
  const int pool = g.add(std::make_unique<GlobalAvgPool>(), {relu2});
  g.add(std::make_unique<Linear>(3, wrng), {pool});
  return g;
}

// A residual block: each BN → ReLU and the Add → ReLU fuse; the second BN
// feeds the Add, not a ReLU, and a ReLU after a conv stays a layer.
Graph residual_graph(Rng& wrng) {
  Graph g;
  const int conv = g.add(std::make_unique<Conv2d>(4, 3, 1, 1, wrng), {0});
  const int bn = g.add(std::make_unique<BatchNorm2d>(), {conv});
  const int relu = g.add(std::make_unique<ReLU>(), {bn});
  const int conv2 = g.add(std::make_unique<Conv2d>(4, 3, 1, 1, wrng), {relu});
  const int bn2 = g.add(std::make_unique<BatchNorm2d>(), {conv2});
  const int add = g.add(std::make_unique<Add>(), {relu, bn2});
  const int relu2 = g.add(std::make_unique<ReLU>(), {add});
  const int conv3 = g.add(std::make_unique<Conv2d>(3, 1, 1, 0, wrng), {relu2});
  const int relu3 = g.add(std::make_unique<ReLU>(), {conv3});
  const int pool = g.add(std::make_unique<GlobalAvgPool>(), {relu3});
  g.add(std::make_unique<Linear>(3, wrng), {pool});
  return g;
}

TEST(NetworkFusion, BatchNormWithASecondConsumerIsNotFused) {
  expect_network_matches_layer_by_layer(shared_bn_graph, Shape{2, 5, 5});
}

TEST(NetworkFusion, FusedResidualBlockEqualsLayerByLayer) {
  expect_network_matches_layer_by_layer(residual_graph, Shape{2, 5, 5});
}

}  // namespace
}  // namespace hylo
