#include <cmath>

#include "hylo/nn/layers.hpp"

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
  out.resize(n, c, x.h(), x.w());
  saved_mean_.assign(static_cast<std::size_t>(c), 0.0);
  saved_inv_std_.assign(static_cast<std::size_t>(c), 0.0);
  const real_t count = static_cast<real_t>(n * hw);

  for (index_t ch = 0; ch < c; ++ch) {
    real_t mean, var;
    if (ctx.training) {
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
      auto& rm = running_mean_[static_cast<std::size_t>(ch)];
      auto& rv = running_var_[static_cast<std::size_t>(ch)];
      rm = (1.0 - momentum_) * rm + momentum_ * mean;
      rv = (1.0 - momentum_) * rv + momentum_ * var;
    } else {
      mean = running_mean_[static_cast<std::size_t>(ch)];
      var = running_var_[static_cast<std::size_t>(ch)];
    }
    const real_t inv_std = 1.0 / std::sqrt(var + eps_);
    saved_mean_[static_cast<std::size_t>(ch)] = mean;
    saved_inv_std_[static_cast<std::size_t>(ch)] = inv_std;
    const real_t g = gamma_[static_cast<std::size_t>(ch)];
    const real_t b = beta_[static_cast<std::size_t>(ch)];
    for (index_t i = 0; i < n; ++i) {
      const real_t* px = x.sample_ptr(i) + ch * hw;
      real_t* po = out.sample_ptr(i) + ch * hw;
      for (index_t j = 0; j < hw; ++j) {
        const real_t xh = (px[j] - mean) * inv_std;
        po[j] = g * xh + b;
      }
    }
  }
}

void BatchNorm2d::backward(const std::vector<const Tensor4*>& in,
                           const Tensor4& /*out*/, const Tensor4& gout,
                           const std::vector<Tensor4*>& grad_in,
                           const PassContext& ctx) {
  const Tensor4& x = *in[0];
  Tensor4* gin = grad_in[0];  // null: nothing reads this input's gradient
  const index_t n = x.n(), c = x.c(), hw = x.h() * x.w();
  const real_t count = static_cast<real_t>(n * hw);

  for (index_t ch = 0; ch < c; ++ch) {
    const real_t g = gamma_[static_cast<std::size_t>(ch)];
    const real_t mean = saved_mean_[static_cast<std::size_t>(ch)];
    const real_t inv_std = saved_inv_std_[static_cast<std::size_t>(ch)];
    // Accumulate Σ dy, Σ dy·x̂ for this channel. x̂ is recomputed with the
    // forward's expression from its saved statistics, so it has the bits
    // forward used.
    real_t sum_dy = 0.0, sum_dy_xh = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const real_t* pg = gout.sample_ptr(i) + ch * hw;
      const real_t* px = x.sample_ptr(i) + ch * hw;
      for (index_t j = 0; j < hw; ++j) {
        const real_t xh = (px[j] - mean) * inv_std;
        sum_dy += pg[j];
        sum_dy_xh += pg[j] * xh;
      }
    }
    grad_beta_[static_cast<std::size_t>(ch)] += sum_dy;
    grad_gamma_[static_cast<std::size_t>(ch)] += sum_dy_xh;

    if (gin == nullptr) continue;
    if (ctx.training) {
      // dx = (γ·inv_std/M) (M·dy − Σdy − x̂ Σ(dy·x̂))
      const real_t k = g * inv_std / count;
      for (index_t i = 0; i < n; ++i) {
        const real_t* pg = gout.sample_ptr(i) + ch * hw;
        const real_t* px = x.sample_ptr(i) + ch * hw;
        real_t* pi = gin->sample_ptr(i) + ch * hw;
        for (index_t j = 0; j < hw; ++j) {
          const real_t xh = (px[j] - mean) * inv_std;
          pi[j] += k * (count * pg[j] - sum_dy - xh * sum_dy_xh);
        }
      }
    } else {
      // Eval statistics are constants: dx = γ · inv_std · dy.
      const real_t k = g * inv_std;
      for (index_t i = 0; i < n; ++i) {
        const real_t* pg = gout.sample_ptr(i) + ch * hw;
        real_t* pi = gin->sample_ptr(i) + ch * hw;
        for (index_t j = 0; j < hw; ++j) pi[j] += k * pg[j];
      }
    }
  }
}

}  // namespace hylo
