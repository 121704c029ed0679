#include <cmath>

#include "hylo/nn/layers.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

Linear::Linear(index_t out_features, Rng& rng, std::string name)
    : out_features_(out_features), rng_(&rng) {
  HYLO_CHECK(out_features > 0, "Linear out_features must be positive");
  params_.name = std::move(name);
  params_.kind = ParamKind::kLinear;
  params_.d_out = out_features;
}

Shape Linear::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "Linear takes one input");
  const index_t d_in = in[0].numel();
  HYLO_CHECK(d_in > 0, "Linear input has zero elements");
  params_.d_in = d_in;
  params_.w.resize(out_features_, d_in + 1);
  params_.gw.resize(out_features_, d_in + 1);
  // He-normal init on the weight part; bias column stays zero.
  const real_t std = std::sqrt(2.0 / static_cast<real_t>(d_in));
  for (index_t o = 0; o < out_features_; ++o)
    for (index_t j = 0; j < d_in; ++j) params_.w(o, j) = std * rng_->normal();
  return Shape{out_features_, 1, 1};
}

void Linear::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                     const PassContext& ctx) {
  const Tensor4& x = *in[0];
  const index_t n = x.n();
  x_aug_ = x.as_matrix().with_ones_column();  // n x (d_in + 1)
  Matrix y;
  gemm_nt(x_aug_, params_.w, y);  // n x d_out
  out = Tensor4::from_matrix(y, out_features_, 1, 1);
  if (ctx.capture) params_.a_samples = x_aug_;
  (void)n;
}

void Linear::backward(const std::vector<const Tensor4*>& in,
                      const Tensor4& /*out*/, const Tensor4& gout,
                      const std::vector<Tensor4*>& grad_in,
                      const PassContext& ctx) {
  const index_t n = gout.n();
  const Matrix gy = gout.as_matrix();  // n x d_out
  // Parameter gradient (accumulated): dW_aug += gyᵀ x_aug.
  gemm_tn(gy, x_aug_, params_.gw, 1.0, 1.0);
  if (ctx.capture) {
    // Per-sample gradients of the *sum* loss: the incoming gout carries the
    // mean-loss gradient, so scale by the batch size.
    params_.g_samples = gy * static_cast<real_t>(n);
  }
  Tensor4* gin = grad_in[0];
  if (gin == nullptr) return;
  // Input gradient: dX = gy · W (drop the bias column).
  Matrix dx_aug;
  gemm(gy, params_.w, dx_aug);  // n x (d_in + 1)
  const index_t d_in = params_.d_in;
  for (index_t i = 0; i < n; ++i) {
    const real_t* src = dx_aug.row_ptr(i);
    real_t* dst = gin->sample_ptr(i);
    for (index_t j = 0; j < d_in; ++j) dst[j] += src[j];
  }
  (void)in;
}

}  // namespace hylo
