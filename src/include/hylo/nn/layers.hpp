#pragma once
/// \file layers.hpp
/// Concrete layer types. Construction helpers return unique_ptrs ready for
/// Network::add. All initialization is He-normal from an explicit Rng so that
/// optimizer comparisons start from identical weights.

#include <memory>

#include "hylo/nn/layer.hpp"

namespace hylo {

/// Fully-connected layer y = W_aug [x; 1]; flattens any input shape.
class Linear : public Layer {
 public:
  Linear(index_t out_features, Rng& rng, std::string name = "linear");

  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  ParamBlock* param_block() override { return &params_; }
  std::string kind() const override { return "Linear"; }

 private:
  index_t out_features_;
  Rng* rng_;
  ParamBlock params_;
  Matrix x_aug_;  // cached augmented input of the last forward
};

/// 2-D convolution implemented as im2col + GEMM. Weight layout:
/// W_aug ∈ R^{c_out x (c_in*k*k + 1)}.
class Conv2d : public Layer {
 public:
  Conv2d(index_t out_channels, index_t kernel, index_t stride, index_t pad,
         Rng& rng, std::string name = "conv");

  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  ParamBlock* param_block() override { return &params_; }
  std::string kind() const override { return "Conv2d"; }

 private:
  index_t out_channels_, kernel_, stride_, pad_;
  Rng* rng_;
  ParamBlock params_;
  ConvGeometry geom_;
  // Per-sample im2col cache from forward — scalar kernel tier only. The
  // SIMD tiers' conv passes (gemm_packed.hpp) read the layer input again in
  // every pass and keep this empty; so a scalar-tier backward after a
  // SIMD-tier forward throws.
  std::vector<Matrix> cols_;
};

/// Per-channel batch normalization (NCHW). Scale/shift are first-order
/// parameters (excluded from preconditioning, as in distributed KFAC
/// implementations); running statistics are used in eval mode. The
/// per-element passes are kern::bn_* (elementwise.hpp); with
/// PassContext::fused_relu the layer also runs the ReLU that consumes it.
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(real_t momentum = 0.1, real_t eps = 1e-5);

  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::vector<PlainParam> plain_params() override {
    return {{&gamma_, &grad_gamma_}, {&beta_, &grad_beta_}};
  }
  std::vector<std::vector<real_t>*> mutable_state() override {
    return {&running_mean_, &running_var_};
  }
  std::string kind() const override { return "BatchNorm2d"; }

 private:
  real_t momentum_, eps_;
  index_t channels_ = 0;
  std::vector<real_t> gamma_, beta_, grad_gamma_, grad_beta_;
  std::vector<real_t> running_mean_, running_var_;
  // Statistics of the last forward (batch or running), from which backward
  // recomputes x̂ = (x − mean)·inv_std rather than keep an activation-sized
  // copy of it.
  std::vector<real_t> saved_mean_, saved_inv_std_;
  // Per-channel scratch of one pass: Σx and Σx², or Σdy, Σdy·x̂ and the dx
  // scale.
  std::vector<real_t> sum_, sum2_, k_;
};

/// Elementwise max(x, 0).
class ReLU : public Layer {
 public:
  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::string kind() const override { return "ReLU"; }
};

/// Max pooling with square window.
class MaxPool2d : public Layer {
 public:
  MaxPool2d(index_t kernel, index_t stride);
  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::string kind() const override { return "MaxPool2d"; }

 private:
  index_t kernel_, stride_;
  std::vector<index_t> argmax_;  // flat input index per output element
};

/// Average pooling with square window (kernel == stride, non-overlapping).
class AvgPool2d : public Layer {
 public:
  explicit AvgPool2d(index_t kernel);
  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::string kind() const override { return "AvgPool2d"; }

 private:
  index_t kernel_;
};

/// Collapse H x W to 1 x 1 by averaging.
class GlobalAvgPool : public Layer {
 public:
  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::string kind() const override { return "GlobalAvgPool"; }
};

/// Nearest-neighbour 2x spatial upsampling (U-Net decoder).
class Upsample2x : public Layer {
 public:
  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::string kind() const override { return "Upsample2x"; }
};

/// Channel-wise concatenation of two inputs with equal spatial dims
/// (U-Net skip connections, DenseNet dense blocks).
class Concat : public Layer {
 public:
  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::string kind() const override { return "Concat"; }

 private:
  std::vector<index_t> split_;  // channel counts per input
};

/// Elementwise sum of two equal-shape inputs (residual connections); with
/// PassContext::fused_relu, also the ReLU that consumes it.
class Add : public Layer {
 public:
  Shape infer_shape(const std::vector<Shape>& in) override;
  void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
               const PassContext& ctx) override;
  void backward(const std::vector<const Tensor4*>& in, const Tensor4& out,
                const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                const PassContext& ctx) override;
  std::string kind() const override { return "Add"; }
};

}  // namespace hylo
