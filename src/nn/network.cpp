#include "hylo/nn/network.hpp"

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/nn/layers.hpp"

namespace hylo {

int Network::add_input(Shape shape) {
  HYLO_CHECK(nodes_.empty(), "add_input must be the first node");
  HYLO_CHECK(shape.numel() > 0, "input shape has zero elements");
  Node n;
  n.shape = shape;
  nodes_.push_back(std::move(n));
  return 0;
}

int Network::add(std::unique_ptr<Layer> layer, std::vector<int> inputs) {
  HYLO_CHECK(!nodes_.empty(), "add_input before adding layers");
  HYLO_CHECK(layer != nullptr, "null layer");
  HYLO_CHECK(!inputs.empty(), "layer needs at least one input");
  std::vector<Shape> in_shapes;
  in_shapes.reserve(inputs.size());
  for (const int id : inputs) {
    HYLO_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()),
               "input node " << id << " out of range");
    in_shapes.push_back(nodes_[static_cast<std::size_t>(id)].shape);
  }
  Node n;
  n.shape = layer->infer_shape(in_shapes);
  n.layer = std::move(layer);
  n.inputs = std::move(inputs);
  nodes_.push_back(std::move(n));
  plan_fusion();
  return static_cast<int>(nodes_.size()) - 1;
}

void Network::plan_fusion() {
  std::vector<int> consumers(nodes_.size(), 0);
  for (Node& n : nodes_) {
    n.relu = -1;
    n.fused = false;
    for (const int id : n.inputs) ++consumers[static_cast<std::size_t>(id)];
  }
  for (std::size_t k = 1; k < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    if (n.inputs.size() != 1 || dynamic_cast<ReLU*>(n.layer.get()) == nullptr)
      continue;
    const auto p = static_cast<std::size_t>(n.inputs[0]);
    const Layer* producer = nodes_[p].layer.get();
    if (consumers[p] == 1 &&
        (dynamic_cast<const BatchNorm2d*>(producer) != nullptr ||
         dynamic_cast<const Add*>(producer) != nullptr)) {
      nodes_[p].relu = static_cast<int>(k);
      n.fused = true;
    }
  }
}

const Tensor4& Network::forward(const Tensor4& x, const PassContext& ctx) {
  HYLO_CHECK(nodes_.size() >= 2, "network has no layers");
  const Shape& in = nodes_[0].shape;
  HYLO_CHECK(x.c() == in.c && x.h() == in.h && x.w() == in.w,
             "input shape mismatch: got " << x.c() << "x" << x.h() << "x"
                                          << x.w());
  nodes_[0].out = x;
  std::vector<const Tensor4*> in_ptrs;
  PassContext node_ctx = ctx;
  for (std::size_t k = 1; k < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    if (n.fused) continue;
    in_ptrs.clear();
    for (const int id : n.inputs)
      in_ptrs.push_back(&nodes_[static_cast<std::size_t>(id)].out);
    Tensor4& out =
        n.relu < 0 ? n.out : nodes_[static_cast<std::size_t>(n.relu)].out;
    node_ctx.fused_relu = n.relu >= 0;
    n.layer->forward(in_ptrs, out, node_ctx);
    HYLO_DCHECK(out.c() == n.shape.c && out.h() == n.shape.h &&
                    out.w() == n.shape.w,
                "layer " << n.layer->kind() << " produced wrong shape");
  }
  ran_forward_ = true;
  return nodes_.back().out;
}

void Network::backward(const Tensor4& grad_out, const PassContext& ctx) {
  HYLO_CHECK(ran_forward_, "backward before forward");
  HYLO_CHECK(grad_out.same_shape(nodes_.back().out),
             "grad_out shape mismatch");
  // (Re)size and zero the activation gradients of the hidden nodes for this
  // batch. Nothing reads the input node's gradient, so layers get null for
  // it and skip it; the output node's is overwritten by grad_out. A node
  // that runs its ReLU consumer backpropagates from that ReLU's gradient
  // and has none of its own.
  for (std::size_t k = 1; k + 1 < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    if (n.relu >= 0) continue;
    if (n.out.same_shape(n.grad))
      n.grad.zero();
    else
      n.grad.resize(n.out.n(), n.out.c(), n.out.h(), n.out.w());
  }
  nodes_.back().grad = grad_out;

  // A fused pair runs at its producer's place, after every consumer of the
  // ReLU: nothing between the two reads or writes the producer's gradient.
  std::vector<const Tensor4*> in_ptrs;
  std::vector<Tensor4*> gin_ptrs;
  PassContext node_ctx = ctx;
  for (std::size_t k = nodes_.size(); k-- > 1;) {
    Node& n = nodes_[k];
    if (n.fused) continue;
    in_ptrs.clear();
    gin_ptrs.clear();
    for (const int id : n.inputs) {
      in_ptrs.push_back(&nodes_[static_cast<std::size_t>(id)].out);
      gin_ptrs.push_back(
          id == 0 ? nullptr : &nodes_[static_cast<std::size_t>(id)].grad);
    }
    const Node& top = n.relu < 0 ? n : nodes_[static_cast<std::size_t>(n.relu)];
    node_ctx.fused_relu = n.relu >= 0;
    n.layer->backward(in_ptrs, top.out, top.grad, gin_ptrs, node_ctx);
  }
}

void Network::zero_grad() {
  for (auto* pb : param_blocks()) pb->gw.zero();
  for (auto pp : plain_params())
    std::fill(pp.grad->begin(), pp.grad->end(), 0.0);
}

const Tensor4& Network::output() const {
  HYLO_CHECK(ran_forward_, "output before forward");
  return nodes_.back().out;
}

Shape Network::output_shape() const {
  HYLO_CHECK(!nodes_.empty(), "empty network");
  return nodes_.back().shape;
}

Shape Network::input_shape() const {
  HYLO_CHECK(!nodes_.empty(), "empty network");
  return nodes_.front().shape;
}

std::vector<ParamBlock*> Network::param_blocks() {
  std::vector<ParamBlock*> out;
  for (auto& n : nodes_)
    if (n.layer != nullptr)
      if (ParamBlock* pb = n.layer->param_block(); pb != nullptr)
        out.push_back(pb);
  return out;
}

std::vector<Layer::PlainParam> Network::plain_params() {
  std::vector<Layer::PlainParam> out;
  for (auto& n : nodes_)
    if (n.layer != nullptr)
      for (auto pp : n.layer->plain_params()) out.push_back(pp);
  return out;
}

index_t Network::num_params() {
  index_t total = 0;
  for (auto* pb : param_blocks()) total += pb->weight_count();
  for (auto pp : plain_params()) total += static_cast<index_t>(pp.value->size());
  return total;
}

void Network::serialize_state(ckpt::Archive ar) {
  for (auto* pb : param_blocks())
    ar.reals(pb->w.data(), pb->w.size(), "weights");
  for (auto pp : plain_params())
    ar.reals(pp.value->data(), static_cast<index_t>(pp.value->size()),
             "plain params");
  for (auto& n : nodes_)
    if (n.layer != nullptr)
      for (auto* state : n.layer->mutable_state())
        ar.reals(state->data(), static_cast<index_t>(state->size()),
                 "layer state");
}

}  // namespace hylo
