#pragma once
/// \file health.hpp
/// Training-health probes (DESIGN.md §12): cheap, cadence-gated per-layer
/// numerical diagnostics computed where the data already lives — condition-
/// number estimates read off the factorizations the curvature optimizers
/// hold anyway, captured-energy fractions of the low-rank factors vs. the
/// full kernel trace, gradient/update norm ratios, non-finite scans, and
/// the staleness age tracked since the fault-injection work.
///
/// The HealthMonitor is a pure observer: it never touches optimizer or
/// network state, probes compute into locals, and with `enabled == false`
/// (the default) every hook reduces to a single branch — training is then
/// bitwise identical to a build without the subsystem (locked by test).
/// Probe output lands in two places: `optim/<method>/health/*` metrics in
/// the registry and one `health` run-log record per probed refresh.

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/common/types.hpp"
#include "hylo/obs/alerts.hpp"
#include "hylo/tensor/matrix.hpp"

namespace hylo::obs {

class MetricsRegistry;
class RunLogger;

/// Probe catalogue: the closed set of per-layer probe names. Every
/// `optim/<method>/health/<probe>` metric and every per-layer field of a
/// `health` run-log record must use a name from this list — enforced by the
/// `health_catalogue` rule of tools/hylo_analyze, which parses this block.
/// hylo-probe-catalogue-begin
inline constexpr const char* kProbeCatalogue[] = {
    "cond",             ///< served-factorization condition estimate (max)
    "cond_a",           ///< input-side Kronecker factor condition estimate
    "cond_g",           ///< gradient-side Kronecker factor condition estimate
    "energy_fraction",  ///< tr(K̂) of the low-rank factors / tr(K) of the
                        ///< full captured kernel (KID/KIS rank fidelity)
    "grad_norm",        ///< per-layer raw gradient Frobenius norm
    "update_norm",      ///< per-layer preconditioned update Frobenius norm
    "update_ratio",     ///< update_norm / grad_norm
    "nonfinite",        ///< NaN/Inf entries in served factors / weights /
                        ///< gradients
    "staleness",        ///< refreshes since the layer's factors last landed
};
/// hylo-probe-catalogue-end

/// Configuration for the probe layer + alert engine. Off by default so the
/// hot path takes no probe work; `cadence` then gates how many curvature
/// refreshes share one probe pass (first-order optimizers have no refresh,
/// so for them the cadence counts iterations).
struct HealthConfig {
  bool enabled = false;
  index_t cadence = 1;  ///< probe every Nth refresh opportunity (>= 1)
  AlertConfig alerts;   ///< rule thresholds (engine runs iff enabled)

  /// Parse a cadence spec, as HYLO_HEALTH takes it: a non-negative integer
  /// ("1" = probe every refresh, "4" = every fourth, "0" = off).
  static HealthConfig parse(const std::string& spec);
};

/// One layer's probe results for a single probed refresh. NaN marks a probe
/// that does not apply to the serving method (e.g. energy_fraction for the
/// exact SNGD kernel) or could not be read (layer not ready yet).
struct LayerHealth {
  index_t layer = -1;
  double cond = std::numeric_limits<double>::quiet_NaN();
  double cond_a = std::numeric_limits<double>::quiet_NaN();
  double cond_g = std::numeric_limits<double>::quiet_NaN();
  double energy_fraction = std::numeric_limits<double>::quiet_NaN();
  double grad_norm = std::numeric_limits<double>::quiet_NaN();
  double update_norm = std::numeric_limits<double>::quiet_NaN();
  index_t nonfinite = 0;  ///< non-finite entries in the served factors
  index_t staleness = 0;  ///< refresh age (0 = last refresh landed)
};

/// Collects one probed refresh's LayerHealth records plus the trainer-side
/// non-finite scan and flushes them as one `health` run-log record and a set
/// of `optim/<method>/health/*` metrics. Owned by the Trainer; the
/// optimizers hold a non-owning pointer (Optimizer::set_health) and consult
/// due() so probe work happens only on cadence-selected refreshes.
class HealthMonitor {
 public:
  HealthMonitor() = default;  ///< disabled: every hook is a cheap no-op
  explicit HealthMonitor(HealthConfig cfg) : cfg_(cfg) {}

  /// Metric/run-log sinks (not owned; either may be null — metrics still
  /// require a registry, run-log records a logger).
  void attach(MetricsRegistry* reg, RunLogger* log) {
    reg_ = reg;
    log_ = log;
  }
  /// Lowercase method tag used in metric names and records ("hylo",
  /// "kfac", ... — the trainer derives it from Optimizer::name()).
  void set_method(std::string method) { method_ = std::move(method); }

  bool enabled() const { return cfg_.enabled; }
  const HealthConfig& config() const { return cfg_; }

  /// Cadence gate: the trainer calls this once per refresh opportunity
  /// (curvature refresh iteration, or every iteration for first-order
  /// methods); due() then holds until flush() and tells the optimizers
  /// whether to compute probes this refresh.
  void begin_refresh() {
    due_ = cfg_.enabled && (refreshes_ % std::max<index_t>(1, cfg_.cadence)) == 0;
    ++refreshes_;
  }
  bool due() const { return due_; }

  /// Optimizer-side probe report for one layer (update_curvature, guarded
  /// by due()).
  void report_layer(LayerHealth h);
  /// Step-side norm report (CurvatureOptimizer::step, guarded by due()).
  void report_norms(index_t layer, double grad_norm, double update_norm);
  /// Trainer-side non-finite scan over live weights and gradients.
  void report_nonfinite(index_t weight_count, index_t grad_count) {
    nonfinite_weights_ += weight_count;
    nonfinite_grads_ += grad_count;
  }

  /// Emit the buffered probes (metrics + one `health` record), update the
  /// rolling aggregates the alert engine reads, and clear due().
  void flush(index_t epoch, index_t iter, index_t global_iter);

  // --- aggregates of the most recent flush (alert-engine feed) -----------
  std::int64_t last_nonfinite() const { return last_nonfinite_; }
  double last_max_cond() const { return last_max_cond_; }
  index_t last_max_staleness() const { return last_max_staleness_; }

  // --- whole-run aggregates (post-run summary) ----------------------------
  index_t probes() const { return probes_; }
  double worst_cond() const { return worst_cond_; }
  std::int64_t total_nonfinite() const { return total_nonfinite_; }

 private:
  HealthConfig cfg_;
  MetricsRegistry* reg_ = nullptr;
  RunLogger* log_ = nullptr;
  std::string method_ = "unknown";
  bool due_ = false;
  index_t refreshes_ = 0;
  std::vector<LayerHealth> buf_;
  index_t nonfinite_weights_ = 0, nonfinite_grads_ = 0;
  std::int64_t last_nonfinite_ = 0;
  double last_max_cond_ = std::numeric_limits<double>::quiet_NaN();
  index_t last_max_staleness_ = 0;
  index_t probes_ = 0;
  double worst_cond_ = std::numeric_limits<double>::quiet_NaN();
  std::int64_t total_nonfinite_ = 0;
};

// --- probe helpers (read existing factorizations; no factorization work) --

/// κ₂ estimate of the SPD matrix behind a Cholesky factor L:
/// (max|L_ii| / min|L_ii|)². NaN for an empty factor, +inf when a diagonal
/// entry is exactly zero.
double cond_from_cholesky(const Matrix& l);

/// κ estimate off a packed LU factorization's U diagonal:
/// max|U_ii| / min|U_ii|.
double cond_from_lu(const Matrix& lu);

/// κ∞ estimate ‖M‖∞ · ‖M⁻¹‖∞ for a matrix whose damped inverse is already
/// held (the KFAC/KBFGS factor pairs).
double cond_from_pair(const Matrix& m, const Matrix& m_inv);

/// Number of NaN/Inf entries.
index_t count_nonfinite(const Matrix& m);
index_t count_nonfinite(const std::vector<real_t>& v);

}  // namespace hylo::obs
