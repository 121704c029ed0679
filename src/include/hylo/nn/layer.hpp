#pragma once
/// \file layer.hpp
/// Layer abstraction for the static-DAG NN framework. Layers are added to a
/// Network with explicit input edges; shapes are inferred at construction.
///
/// Second-order capture: layers carrying a weight matrix (Linear, Conv2d)
/// own a ParamBlock holding the *augmented* weight W ∈ R^{d_out x (d_in+1)}
/// (bias folded in as the last column) and, when capture is enabled, the
/// per-sample input matrix A (m x (d_in+1)) and output-gradient matrix
/// G (m x d_out) that every NGD-family optimizer consumes. For conv layers
/// A/G follow the paper's Sec. IV spatial-sum construction.

#include <memory>
#include <string>
#include <vector>

#include "hylo/common/rng.hpp"
#include "hylo/tensor/matrix.hpp"
#include "hylo/tensor/tensor4.hpp"

namespace hylo {

/// Static per-sample shape (batch dimension is dynamic).
struct Shape {
  index_t c = 0, h = 0, w = 0;
  index_t numel() const { return c * h * w; }
  bool operator==(const Shape&) const = default;
};

/// Per-pass flags threaded through forward/backward.
struct PassContext {
  bool training = true;
  /// When true, Linear/Conv layers record per-sample A and G this pass.
  bool capture = false;
  /// Set only by Network, on a BatchNorm2d or Add whose sole consumer is a
  /// ReLU: the layer runs that ReLU as well. Its forward writes max(y, 0)
  /// into `out`, the ReLU node's output, and its backward gets the ReLU
  /// node's output and gradient as `out` and `gout`.
  bool fused_relu = false;
};

/// How a preconditionable layer interprets its weight matrix.
enum class ParamKind { kLinear, kConv };

/// Weight + gradient + second-order capture state for one preconditionable
/// layer. The weight is bias-augmented: column d_in holds the bias.
struct ParamBlock {
  std::string name;
  ParamKind kind = ParamKind::kLinear;
  index_t d_in = 0;   ///< un-augmented input dimension (patch size for conv)
  index_t d_out = 0;  ///< output dimension (channels for conv)
  /// Output positions per sample: out_h·out_w for conv (fixed at
  /// infer_shape), 1 for linear. The compute model's fwd/bwd FLOPs scale
  /// with it.
  index_t positions = 1;

  Matrix w;   ///< d_out x (d_in + 1)
  Matrix gw;  ///< gradient of the mean-batch loss, same shape

  /// Per-sample capture (valid after a captured forward/backward pass):
  /// A: m x (d_in + 1)  — augmented inputs (spatial-summed for conv; the
  ///    augmentation column holds the number of spatial positions S so that
  ///    the bias column of the per-sample gradient ĝ_i â_iᵀ is exact).
  /// G: m x d_out — per-sample output gradients of the *sum* loss (i.e. the
  ///    mean-loss gradients scaled by m), spatial-summed for conv.
  Matrix a_samples;
  Matrix g_samples;

  index_t weight_count() const { return w.size(); }
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Infer and fix the output shape from the input shapes; called once when
  /// the layer is added to a Network. Must throw hylo::Error on mismatch.
  virtual Shape infer_shape(const std::vector<Shape>& in) = 0;

  /// Forward pass: `in` holds one tensor per declared input edge.
  virtual void forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                       const PassContext& ctx) = 0;

  /// Backward pass: `gout` is dLoss/d(out); accumulate dLoss/d(in_k) into
  /// grad_in[k] (already zero-initialized by the Network) and parameter
  /// gradients into this layer's state. A null grad_in[k] means nothing
  /// reads that input's gradient (the Network passes null for its input
  /// node): the layer skips it but still accumulates its parameter
  /// gradients, with the same bits as with a real grad_in[k].
  virtual void backward(const std::vector<const Tensor4*>& in,
                        const Tensor4& out, const Tensor4& gout,
                        const std::vector<Tensor4*>& grad_in,
                        const PassContext& ctx) = 0;

  /// Non-null for preconditionable layers (Linear, Conv2d).
  virtual ParamBlock* param_block() { return nullptr; }

  /// First-order-only parameters (BatchNorm scale/shift). Pairs of
  /// (parameter, gradient) vectors; empty by default.
  struct PlainParam {
    std::vector<real_t>* value = nullptr;
    std::vector<real_t>* grad = nullptr;
  };
  virtual std::vector<PlainParam> plain_params() { return {}; }

  /// Non-parameter persistent state that checkpoints must carry
  /// (BatchNorm running statistics). Empty by default.
  virtual std::vector<std::vector<real_t>*> mutable_state() { return {}; }

  /// Human-readable layer type for diagnostics and the Fig. 2 bench.
  virtual std::string kind() const = 0;
};

}  // namespace hylo
