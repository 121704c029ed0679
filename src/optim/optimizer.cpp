#include "hylo/optim/optimizer.hpp"

#include <cmath>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/obs/metrics.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {

// Momentum-style buffers are lazily created on first step, so a snapshot
// taken before a parameter ever stepped has no entry for it: each buffer
// gets a presence flag, then `fields` archives the entry.
template <typename Map, typename Fields>
void serialize_entry(ckpt::Archive ar, Map& bufs, const void* key,
                     const char* field, Fields fields) {
  bool present = bufs.find(key) != bufs.end();
  ar(present, field);
  if (present) fields(bufs[key]);
}

// A loaded buffer must match its parameter's shape: a snapshot from a
// structurally different model fails loudly, not subtly.
void require_shape(ckpt::Archive ar, const Matrix& m, const Matrix& like,
                   const char* field) {
  ar.require(m.rows() == like.rows() && m.cols() == like.cols(), field,
             "buffer is ", m.rows(), "x", m.cols(), ", parameter is ",
             like.rows(), "x", like.cols());
}

void require_size(ckpt::Archive ar, const std::vector<real_t>& v,
                  std::size_t like, const char* field) {
  ar.require(v.size() == like, field, "buffer has ", v.size(),
             " scalars, parameter has ", like);
}

}  // namespace

void Optimizer::apply_sgd_update(Network& net, real_t scale) {
  for (auto* pb : net.param_blocks()) {
    Matrix& buf = momentum_w_[pb];
    if (buf.rows() != pb->gw.rows() || buf.cols() != pb->gw.cols())
      buf.resize(pb->gw.rows(), pb->gw.cols());
    real_t* b = buf.data();
    real_t* w = pb->w.data();
    const real_t* g = pb->gw.data();
    for (index_t i = 0; i < buf.size(); ++i) {
      b[i] = cfg_.momentum * b[i] + scale * g[i] + cfg_.weight_decay * w[i];
      w[i] -= cfg_.lr * b[i];
    }
  }
  for (auto pp : net.plain_params()) {
    auto& buf = momentum_plain_[pp.value];
    if (buf.size() != pp.value->size()) buf.assign(pp.value->size(), 0.0);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      // Plain params (BatchNorm scale/shift) are never preconditioned and
      // conventionally excluded from weight decay.
      buf[i] = cfg_.momentum * buf[i] + scale * (*pp.grad)[i];
      (*pp.value)[i] -= cfg_.lr * buf[i];
    }
  }
}

index_t Optimizer::momentum_bytes() const {
  index_t total = 0;
  // hylo-lint: allow-begin(det_unordered_iter: commutative integer byte total, order-independent)
  for (const auto& [ptr, m] : momentum_w_) total += m.size();
  for (const auto& [ptr, v] : momentum_plain_)
    total += static_cast<index_t>(v.size());
  // hylo-lint: allow-end(det_unordered_iter)
  return total * static_cast<index_t>(sizeof(real_t));
}

index_t Optimizer::state_bytes() const { return momentum_bytes(); }

void Optimizer::serialize_state(Network& net, ckpt::Archive ar) {
  ar.expect(name(), "optimizer");
  ar(cfg_.lr, "lr");
  if (ar.loading()) {
    momentum_w_.clear();
    momentum_plain_.clear();
  }
  for (auto* pb : net.param_blocks())
    serialize_entry(ar, momentum_w_, pb, "momentum", [&](Matrix& m) {
      ar(m, "momentum");
      require_shape(ar, m, pb->w, "momentum");
    });
  for (auto pp : net.plain_params())
    serialize_entry(ar, momentum_plain_, pp.value, "plain momentum",
                    [&](std::vector<real_t>& v) {
                      ar(v, "plain momentum");
                      require_size(ar, v, pp.value->size(), "plain momentum");
                    });
}

void Sgd::step(Network& net, index_t /*iteration*/) { apply_sgd_update(net); }

void Adam::step(Network& net, index_t /*iteration*/) {
  ++t_;
  const real_t bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<real_t>(t_));
  const real_t bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<real_t>(t_));
  for (auto* pb : net.param_blocks()) {
    State& st = state_[pb];
    if (st.m.rows() != pb->gw.rows() || st.m.cols() != pb->gw.cols()) {
      st.m.resize(pb->gw.rows(), pb->gw.cols());
      st.v.resize(pb->gw.rows(), pb->gw.cols());
    }
    real_t* m = st.m.data();
    real_t* v = st.v.data();
    real_t* w = pb->w.data();
    const real_t* g = pb->gw.data();
    for (index_t i = 0; i < st.m.size(); ++i) {
      const real_t gi = g[i] + cfg_.weight_decay * w[i];
      m[i] = cfg_.beta1 * m[i] + (1.0 - cfg_.beta1) * gi;
      v[i] = cfg_.beta2 * v[i] + (1.0 - cfg_.beta2) * gi * gi;
      w[i] -= cfg_.lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + cfg_.adam_eps);
    }
  }
  for (auto pp : net.plain_params()) {
    State& st = state_[pp.value];
    if (st.m_plain.size() != pp.value->size()) {
      st.m_plain.assign(pp.value->size(), 0.0);
      st.v_plain.assign(pp.value->size(), 0.0);
    }
    for (std::size_t i = 0; i < pp.value->size(); ++i) {
      const real_t gi = (*pp.grad)[i];
      st.m_plain[i] = cfg_.beta1 * st.m_plain[i] + (1.0 - cfg_.beta1) * gi;
      st.v_plain[i] = cfg_.beta2 * st.v_plain[i] + (1.0 - cfg_.beta2) * gi * gi;
      (*pp.value)[i] -= cfg_.lr * (st.m_plain[i] / bc1) /
                        (std::sqrt(st.v_plain[i] / bc2) + cfg_.adam_eps);
    }
  }
}

index_t Adam::state_bytes() const {
  index_t total = 0;
  // hylo-lint: allow-begin(det_unordered_iter: commutative integer byte total, order-independent)
  for (const auto& [ptr, st] : state_) {
    total += st.m.size() + st.v.size();
    total += static_cast<index_t>(st.m_plain.size() + st.v_plain.size());
  }
  // hylo-lint: allow-end(det_unordered_iter)
  return total * static_cast<index_t>(sizeof(real_t)) + momentum_bytes();
}

void Adam::serialize_state(Network& net, ckpt::Archive ar) {
  Optimizer::serialize_state(net, ar);
  ar(t_, "t");
  if (ar.loading()) state_.clear();
  for (auto* pb : net.param_blocks())
    serialize_entry(ar, state_, pb, "moments", [&](State& st) {
      ar(st.m, "m");
      ar(st.v, "v");
      require_shape(ar, st.m, pb->w, "m");
      require_shape(ar, st.v, pb->w, "v");
    });
  for (auto pp : net.plain_params())
    serialize_entry(ar, state_, pp.value, "plain moments", [&](State& st) {
      ar(st.m_plain, "m_plain");
      ar(st.v_plain, "v_plain");
      require_size(ar, st.m_plain, pp.value->size(), "m_plain");
      require_size(ar, st.v_plain, pp.value->size(), "v_plain");
    });
}

std::int64_t optim_counter_sum(const obs::MetricsRegistry& reg,
                               std::string_view suffix) {
  std::int64_t total = 0;
  for (const auto& [name, c] : reg.counters())
    if (name.starts_with("optim/") && name.ends_with(suffix))
      total += c.value();
  return total;
}

}  // namespace hylo
