#include "hylo/nn/network.hpp"

#include "hylo/ckpt/snapshot.hpp"

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
  return static_cast<int>(nodes_.size()) - 1;
}

const Tensor4& Network::forward(const Tensor4& x, const PassContext& ctx) {
  HYLO_CHECK(nodes_.size() >= 2, "network has no layers");
  const Shape& in = nodes_[0].shape;
  HYLO_CHECK(x.c() == in.c && x.h() == in.h && x.w() == in.w,
             "input shape mismatch: got " << x.c() << "x" << x.h() << "x"
                                          << x.w());
  nodes_[0].out = x;
  std::vector<const Tensor4*> in_ptrs;
  for (std::size_t k = 1; k < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    in_ptrs.clear();
    for (const int id : n.inputs)
      in_ptrs.push_back(&nodes_[static_cast<std::size_t>(id)].out);
    n.layer->forward(in_ptrs, n.out, ctx);
    HYLO_DCHECK(n.out.c() == n.shape.c && n.out.h() == n.shape.h &&
                    n.out.w() == n.shape.w,
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
  // it and skip it; the output node's is overwritten by grad_out.
  for (std::size_t k = 1; k + 1 < nodes_.size(); ++k) {
    Node& n = nodes_[k];
    if (n.out.same_shape(n.grad))
      n.grad.zero();
    else
      n.grad.resize(n.out.n(), n.out.c(), n.out.h(), n.out.w());
  }
  nodes_.back().grad = grad_out;

  std::vector<const Tensor4*> in_ptrs;
  std::vector<Tensor4*> gin_ptrs;
  for (std::size_t k = nodes_.size(); k-- > 1;) {
    Node& n = nodes_[k];
    in_ptrs.clear();
    gin_ptrs.clear();
    for (const int id : n.inputs) {
      in_ptrs.push_back(&nodes_[static_cast<std::size_t>(id)].out);
      gin_ptrs.push_back(
          id == 0 ? nullptr : &nodes_[static_cast<std::size_t>(id)].grad);
    }
    n.layer->backward(in_ptrs, n.out, n.grad, gin_ptrs, ctx);
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
