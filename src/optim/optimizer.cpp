#include "hylo/optim/optimizer.hpp"

#include <cmath>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/obs/metrics.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {

// Momentum-style buffers are lazily created on first step, so a snapshot
// taken before a parameter ever stepped has no entry for it: each block gets
// a presence flag. Shapes are verified against the parameter on load — a
// snapshot from a structurally different model fails loudly, not subtly.
void save_block_map(const std::unordered_map<const void*, Matrix>& bufs,
                    const void* key, ckpt::ByteWriter& w) {
  const auto it = bufs.find(key);
  w.b(it != bufs.end());
  if (it != bufs.end()) w.matrix(it->second);
}

void load_block_map(std::unordered_map<const void*, Matrix>& bufs,
                    const void* key, const Matrix& like, const char* what,
                    ckpt::ByteReader& r) {
  if (!r.b()) return;
  Matrix m = r.matrix();
  HYLO_CHECK(m.rows() == like.rows() && m.cols() == like.cols(),
             "snapshot " << what << " buffer is " << m.rows() << "x"
                         << m.cols() << ", parameter is " << like.rows()
                         << "x" << like.cols());
  bufs[key] = std::move(m);
}

void save_plain_map(
    const std::unordered_map<const void*, std::vector<real_t>>& bufs,
    const void* key, ckpt::ByteWriter& w) {
  const auto it = bufs.find(key);
  w.b(it != bufs.end());
  if (it != bufs.end()) w.real_vec(it->second);
}

void load_plain_map(
    std::unordered_map<const void*, std::vector<real_t>>& bufs,
    const void* key, std::size_t like_size, const char* what,
    ckpt::ByteReader& r) {
  if (!r.b()) return;
  std::vector<real_t> v = r.real_vec();
  HYLO_CHECK(v.size() == like_size,
             "snapshot " << what << " buffer has " << v.size()
                         << " scalars, parameter has " << like_size);
  bufs[key] = std::move(v);
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

void Optimizer::save_state(Network& net, ckpt::ByteWriter& w) const {
  w.str(name());
  w.real(cfg_.lr);
  for (auto* pb : net.param_blocks()) save_block_map(momentum_w_, pb, w);
  for (auto pp : net.plain_params())
    save_plain_map(momentum_plain_, pp.value, w);
}

void Optimizer::load_state(Network& net, ckpt::ByteReader& r) {
  const std::string saved = r.str();
  HYLO_CHECK(saved == name(), "snapshot optimizer state is for "
                                  << saved << ", this run uses " << name());
  cfg_.lr = r.real();
  momentum_w_.clear();
  momentum_plain_.clear();
  for (auto* pb : net.param_blocks())
    load_block_map(momentum_w_, pb, pb->w, "momentum", r);
  for (auto pp : net.plain_params())
    load_plain_map(momentum_plain_, pp.value, pp.value->size(),
                   "plain momentum", r);
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

void Adam::save_state(Network& net, ckpt::ByteWriter& w) const {
  Optimizer::save_state(net, w);
  w.i64(t_);
  for (auto* pb : net.param_blocks()) {
    const auto it = state_.find(pb);
    w.b(it != state_.end());
    if (it != state_.end()) {
      w.matrix(it->second.m);
      w.matrix(it->second.v);
    }
  }
  for (auto pp : net.plain_params()) {
    const auto it = state_.find(pp.value);
    w.b(it != state_.end());
    if (it != state_.end()) {
      w.real_vec(it->second.m_plain);
      w.real_vec(it->second.v_plain);
    }
  }
}

void Adam::load_state(Network& net, ckpt::ByteReader& r) {
  Optimizer::load_state(net, r);
  t_ = r.i64();
  state_.clear();
  for (auto* pb : net.param_blocks()) {
    if (!r.b()) continue;
    State& st = state_[pb];
    st.m = r.matrix();
    st.v = r.matrix();
    HYLO_CHECK(st.m.rows() == pb->w.rows() && st.m.cols() == pb->w.cols() &&
                   st.v.rows() == pb->w.rows() && st.v.cols() == pb->w.cols(),
               "snapshot Adam moments do not match parameter shape");
  }
  for (auto pp : net.plain_params()) {
    if (!r.b()) continue;
    State& st = state_[pp.value];
    st.m_plain = r.real_vec();
    st.v_plain = r.real_vec();
    HYLO_CHECK(st.m_plain.size() == pp.value->size() &&
                   st.v_plain.size() == pp.value->size(),
               "snapshot Adam plain moments do not match parameter size");
  }
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
