// Finite-difference gradient validation of every layer's backward pass, via
// small networks trained under softmax cross-entropy. This is the linchpin
// test: all second-order machinery consumes these gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "hylo/nn/layers.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/nn/network.hpp"
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
// statistics. Same expressions, so the same roundings.
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
            sumsq += p[j] * p[j];
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
          po[j] = gamma[k] * xh + beta[k];
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
          sum_dy_xh += pg[j] * ph[j];
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
          for (index_t j = 0; j < hw; ++j)
            pi[j] += k * (count * pg[j] - sum_dy - ph[j] * sum_dy_xh);
        }
      } else {
        const real_t k = gamma[kc] * inv_std;
        for (index_t i = 0; i < n; ++i) {
          const real_t* pg = gout.sample_ptr(i) + ch * hw;
          real_t* pi = gin.sample_ptr(i) + ch * hw;
          for (index_t j = 0; j < hw; ++j) pi[j] += k * pg[j];
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

}  // namespace
}  // namespace hylo
