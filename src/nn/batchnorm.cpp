#include <cmath>

#include "hylo/nn/layers.hpp"
#include "hylo/tensor/elementwise.hpp"

namespace hylo {

BatchNorm2d::BatchNorm2d(real_t momentum, real_t eps)
    : momentum_(momentum), eps_(eps) {}

Shape BatchNorm2d::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "BatchNorm2d takes one input");
  channels_ = in[0].c;
  gamma_.assign(static_cast<std::size_t>(channels_), 1.0);
  beta_.assign(static_cast<std::size_t>(channels_), 0.0);
  grad_gamma_.assign(static_cast<std::size_t>(channels_), 0.0);
  grad_beta_.assign(static_cast<std::size_t>(channels_), 0.0);
  running_mean_.assign(static_cast<std::size_t>(channels_), 0.0);
  running_var_.assign(static_cast<std::size_t>(channels_), 1.0);
  return in[0];
}

void BatchNorm2d::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                          const PassContext& ctx) {
  const Tensor4& x = *in[0];
  const index_t n = x.n(), c = x.c(), hw = x.h() * x.w();
  const auto cs = static_cast<std::size_t>(c);
  out.resize_for_overwrite(n, c, x.h(), x.w());
  saved_mean_.resize(cs);
  saved_inv_std_.resize(cs);
  const real_t count = static_cast<real_t>(n * hw);
  const kern::BnOperands op{.n = n, .c = c, .hw = hw, .x = x.data(),
                            .mean = saved_mean_.data(),
                            .inv_std = saved_inv_std_.data()};
  if (ctx.training) {
    sum_.resize(cs);
    sum2_.resize(cs);
    kern::bn_stats(op, sum_.data(), sum2_.data());
  }

  for (std::size_t ch = 0; ch < cs; ++ch) {
    real_t mean, var;
    if (ctx.training) {
      mean = sum_[ch] / count;
      var = sum2_[ch] / count - mean * mean;
      if (var < 0.0) var = 0.0;
      running_mean_[ch] =
          (1.0 - momentum_) * running_mean_[ch] + momentum_ * mean;
      running_var_[ch] = (1.0 - momentum_) * running_var_[ch] + momentum_ * var;
    } else {
      mean = running_mean_[ch];
      var = running_var_[ch];
    }
    saved_mean_[ch] = mean;
    saved_inv_std_[ch] = 1.0 / std::sqrt(var + eps_);
  }
  kern::bn_normalize(op, gamma_.data(), beta_.data(), ctx.fused_relu,
                     out.data());
}

void BatchNorm2d::backward(const std::vector<const Tensor4*>& in,
                           const Tensor4& out, const Tensor4& gout,
                           const std::vector<Tensor4*>& grad_in,
                           const PassContext& ctx) {
  const Tensor4& x = *in[0];
  Tensor4* gin = grad_in[0];  // null: nothing reads this input's gradient
  const index_t n = x.n(), c = x.c(), hw = x.h() * x.w();
  const auto cs = static_cast<std::size_t>(c);
  const real_t count = static_cast<real_t>(n * hw);
  // x̂ is recomputed with the forward's expression from its saved
  // statistics, so it has the bits forward used.
  const kern::BnOperands op{
      .n = n, .c = c, .hw = hw, .x = x.data(), .mean = saved_mean_.data(),
      .inv_std = saved_inv_std_.data(), .g = gout.data(),
      .relu_out = ctx.fused_relu ? out.data() : nullptr};
  sum_.resize(cs);
  sum2_.resize(cs);
  kern::bn_grad_stats(op, sum_.data(), sum2_.data());
  for (std::size_t ch = 0; ch < cs; ++ch) {
    grad_beta_[ch] += sum_[ch];
    grad_gamma_[ch] += sum2_[ch];
  }
  if (gin == nullptr) return;

  k_.resize(cs);
  if (ctx.training) {
    // dx = (γ·inv_std/M) (M·dy − Σdy − x̂ Σ(dy·x̂))
    for (std::size_t ch = 0; ch < cs; ++ch)
      k_[ch] = gamma_[ch] * saved_inv_std_[ch] / count;
    kern::bn_dx_train(op, k_.data(), count, sum_.data(), sum2_.data(),
                      gin->data());
  } else {
    // Eval statistics are constants: dx = γ · inv_std · dy.
    for (std::size_t ch = 0; ch < cs; ++ch)
      k_[ch] = gamma_[ch] * saved_inv_std_[ch];
    kern::bn_dx_eval(op, k_.data(), gin->data());
  }
}

}  // namespace hylo
