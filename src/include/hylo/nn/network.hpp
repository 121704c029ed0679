#pragma once
/// \file network.hpp
/// Static computation graph. Layers are appended with explicit input edges
/// (which must reference earlier nodes), so insertion order is already a
/// topological order; forward walks it, backward walks it in reverse.
///
/// A ReLU whose only input is a BatchNorm2d or Add node, and which is that
/// node's only consumer, runs inside it (PassContext::fused_relu): the
/// producer writes the ReLU node's output and backpropagates from its
/// gradient, and the producer's own activation and gradient tensors stay
/// empty. The rule reads only the graph and is re-derived on every add();
/// node ids, layer() and the parameter order do not change.

#include <memory>
#include <string>
#include <vector>

#include "hylo/nn/layer.hpp"

namespace hylo {

namespace ckpt {
class Archive;
}  // namespace ckpt

class Network {
 public:
  explicit Network(std::string name = "net") : name_(std::move(name)) {}

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Declare the (single) input node; must be called first. Returns node 0.
  int add_input(Shape shape);

  /// Append a layer consuming the given earlier nodes; returns its node id.
  int add(std::unique_ptr<Layer> layer, std::vector<int> inputs);

  /// Convenience for single-input chains.
  int add(std::unique_ptr<Layer> layer, int input) {
    return add(std::move(layer), std::vector<int>{input});
  }

  /// Run the graph on a batch; returns the final node's activation.
  const Tensor4& forward(const Tensor4& x, const PassContext& ctx);

  /// Backpropagate dLoss/d(output); accumulates parameter gradients.
  /// Must follow a forward() with the same batch.
  void backward(const Tensor4& grad_out, const PassContext& ctx);

  /// Zero all parameter gradients (weights and plain params).
  void zero_grad();

  /// Final activation of the last forward pass.
  const Tensor4& output() const;

  /// Final activation flattened to (batch, features).
  Matrix output_matrix() const { return output().as_matrix(); }

  Shape output_shape() const;
  Shape input_shape() const;

  /// All preconditionable weight blocks, in graph order.
  std::vector<ParamBlock*> param_blocks();
  /// All first-order-only parameters (BatchNorm scale/shift).
  std::vector<Layer::PlainParam> plain_params();

  /// Total scalar parameter count (weights + plain params).
  index_t num_params();

  const std::string& name() const { return name_; }
  index_t num_nodes() const { return static_cast<index_t>(nodes_.size()); }
  const Layer* layer(index_t node) const { return nodes_[static_cast<std::size_t>(node)].layer.get(); }

  /// The field list of all weights, plain parameters and persistent layer
  /// state (BatchNorm running stats) in graph order, as a snapshot section
  /// (hylo::ckpt): pass a ckpt::ByteWriter to save, a ckpt::ByteReader to
  /// restore. Restoring into a structurally different network throws.
  void serialize_state(ckpt::Archive ar);

 private:
  struct Node {
    std::unique_ptr<Layer> layer;  // null for the input node
    std::vector<int> inputs;
    Shape shape;
    Tensor4 out;
    Tensor4 grad;
    int relu = -1;       // the ReLU node this node's layer also runs
    bool fused = false;  // a ReLU that runs inside its producer
  };

  /// Re-derive Node::relu and Node::fused from the graph.
  void plan_fusion();

  std::string name_;
  std::vector<Node> nodes_;
  bool ran_forward_ = false;
};

}  // namespace hylo
