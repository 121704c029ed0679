#include "hylo/obs/health.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "hylo/common/env.hpp"
#include "hylo/obs/json.hpp"
#include "hylo/obs/metrics.hpp"
#include "hylo/obs/run_log.hpp"

namespace hylo::obs {

HealthConfig HealthConfig::parse(const std::string& spec) {
  const index_t cadence = env::parse_int<index_t>(
      spec, 0, std::numeric_limits<index_t>::max(), "health cadence");
  HealthConfig cfg;
  cfg.enabled = cadence > 0;
  if (cfg.enabled) cfg.cadence = cadence;
  return cfg;
}

void HealthMonitor::report_layer(LayerHealth h) {
  HYLO_CHECK(h.layer >= 0, "LayerHealth.layer must be set");
  for (auto& b : buf_) {
    if (b.layer == h.layer) {
      // Preserve step-side norms already reported for this layer.
      h.grad_norm = std::isnan(h.grad_norm) ? b.grad_norm : h.grad_norm;
      h.update_norm =
          std::isnan(h.update_norm) ? b.update_norm : h.update_norm;
      b = h;
      return;
    }
  }
  buf_.push_back(h);
}

void HealthMonitor::report_norms(index_t layer, double grad_norm,
                                 double update_norm) {
  for (auto& b : buf_) {
    if (b.layer == layer) {
      b.grad_norm = grad_norm;
      b.update_norm = update_norm;
      return;
    }
  }
  LayerHealth h;
  h.layer = layer;
  h.grad_norm = grad_norm;
  h.update_norm = update_norm;
  buf_.push_back(h);
}

void HealthMonitor::flush(index_t epoch, index_t iter, index_t global_iter) {
  if (!due_) return;
  due_ = false;
  ++probes_;

  double max_cond = std::numeric_limits<double>::quiet_NaN();
  index_t max_staleness = 0;
  std::int64_t nonfinite = nonfinite_weights_ + nonfinite_grads_;

  const std::string prefix = "optim/" + method_ + "/health/";
  Histogram* h_cond = nullptr;
  Histogram* h_energy = nullptr;
  Histogram* h_ratio = nullptr;
  Histogram* h_stale = nullptr;
  if (reg_ != nullptr) {
    // Dynamic names on purpose: the `health_catalogue` lint rule matches
    // metric-name literals, and the catalogue is the suffix set, not the
    // per-method product.
    h_cond = &reg_->histogram(prefix + "cond",
                              Histogram::exponential_bounds(1.0, 10.0, 16));
    h_energy = &reg_->histogram(prefix + "energy_fraction",
                                Histogram::linear_bounds(0.0, 1.0, 21));
    h_ratio = &reg_->histogram(prefix + "update_ratio",
                               Histogram::exponential_bounds(1e-8, 10.0, 16));
    h_stale = &reg_->histogram(prefix + "staleness",
                               Histogram::linear_bounds(0.0, 32.0, 33));
  }

  Json layers = Json::array();
  for (const LayerHealth& b : buf_) {
    const double worst = std::fmax(std::fmax(b.cond, b.cond_a), b.cond_g);
    if (!std::isnan(worst))
      max_cond = std::isnan(max_cond) ? worst : std::fmax(max_cond, worst);
    max_staleness = std::max(max_staleness, b.staleness);
    nonfinite += b.nonfinite;

    const double ratio = b.grad_norm > 0.0 ? b.update_norm / b.grad_norm
                                           : std::numeric_limits<double>::quiet_NaN();
    if (reg_ != nullptr) {
      if (!std::isnan(worst)) h_cond->observe(worst);
      if (!std::isnan(b.energy_fraction)) h_energy->observe(b.energy_fraction);
      if (!std::isnan(ratio)) h_ratio->observe(ratio);
      h_stale->observe(static_cast<double>(b.staleness));
    }

    Json j = Json::object();
    j.set("layer", b.layer);
    j.set("cond", b.cond);
    j.set("cond_a", b.cond_a);
    j.set("cond_g", b.cond_g);
    j.set("energy_fraction", b.energy_fraction);
    j.set("grad_norm", b.grad_norm);
    j.set("update_norm", b.update_norm);
    j.set("update_ratio", ratio);
    j.set("nonfinite", b.nonfinite);
    j.set("staleness", b.staleness);
    layers.push(std::move(j));
  }

  if (reg_ != nullptr && nonfinite > 0)
    reg_->counter(prefix + "nonfinite").inc(nonfinite);

  if (log_ != nullptr && log_->enabled()) {
    Json rec = Json::object();
    rec.set("epoch", epoch);
    rec.set("iter", iter);
    rec.set("global_iter", global_iter);
    rec.set("method", method_);
    rec.set("max_cond", max_cond);
    rec.set("max_staleness", max_staleness);
    rec.set("nonfinite", nonfinite);
    rec.set("nonfinite_weights", nonfinite_weights_);
    rec.set("nonfinite_grads", nonfinite_grads_);
    rec.set("layers", std::move(layers));
    log_->record("health", std::move(rec));
  }

  last_nonfinite_ = nonfinite;
  last_max_cond_ = max_cond;
  last_max_staleness_ = max_staleness;
  total_nonfinite_ += nonfinite;
  if (!std::isnan(max_cond))
    worst_cond_ =
        std::isnan(worst_cond_) ? max_cond : std::fmax(worst_cond_, max_cond);

  buf_.clear();
  nonfinite_weights_ = nonfinite_grads_ = 0;
}

double cond_from_cholesky(const Matrix& l) {
  if (l.rows() == 0) return std::numeric_limits<double>::quiet_NaN();
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (index_t i = 0; i < l.rows(); ++i) {
    const double d = std::abs(l(i, i));
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  if (lo == 0.0) return std::numeric_limits<double>::infinity();
  const double k = hi / lo;
  return k * k;
}

double cond_from_lu(const Matrix& lu) {
  if (lu.rows() == 0) return std::numeric_limits<double>::quiet_NaN();
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  const index_t n = std::min(lu.rows(), lu.cols());
  for (index_t i = 0; i < n; ++i) {
    const double d = std::abs(lu(i, i));
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  if (lo == 0.0) return std::numeric_limits<double>::infinity();
  return hi / lo;
}

namespace {
double inf_norm(const Matrix& m) {
  double worst = 0.0;
  for (index_t i = 0; i < m.rows(); ++i) {
    double row = 0.0;
    for (index_t j = 0; j < m.cols(); ++j) {
      const double a = std::abs(m(i, j));
      if (!std::isfinite(a)) return std::numeric_limits<double>::infinity();
      row += a;
    }
    worst = std::max(worst, row);
  }
  return worst;
}
}  // namespace

double cond_from_pair(const Matrix& m, const Matrix& m_inv) {
  if (m.rows() == 0 || m_inv.rows() == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return inf_norm(m) * inf_norm(m_inv);
}

index_t count_nonfinite(const Matrix& m) {
  index_t n = 0;
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j))) ++n;
  return n;
}

index_t count_nonfinite(const std::vector<real_t>& v) {
  index_t n = 0;
  for (const real_t x : v)
    if (!std::isfinite(x)) ++n;
  return n;
}

}  // namespace hylo::obs
