#pragma once
/// \file optimizer.hpp
/// Optimizer interface shared by first-order methods (SGD, Adam) and the
/// NGD family (KFAC, EKFAC, KBFGS, SNGD, HyLo). The distributed trainer
/// drives the split lifecycle:
///
///   1. forward/backward per simulated rank (capture on curvature refreshes)
///   2. gradient allreduce
///   3. update_curvature(blocks, capture, comm)   [refresh iterations only]
///   4. step(net, iteration) = precondition + apply update
///
/// Single-device training is the world=1 special case of the same flow.

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hylo/dist/comm.hpp"
#include "hylo/nn/network.hpp"

namespace hylo::obs {
class HealthMonitor;
class MetricsRegistry;
}  // namespace hylo::obs

namespace hylo {

/// Hyper-parameters for all methods (each uses its relevant subset).
struct OptimConfig {
  real_t lr = 0.1;
  real_t momentum = 0.9;
  real_t weight_decay = 0.0;

  // Second-order family.
  real_t damping = 0.03;         ///< α in (F + αI)⁻¹
  real_t factor_damping = 0.003; ///< γ for Kronecker factors
  index_t update_freq = 10;      ///< curvature refresh period (iterations)
  real_t stat_decay = 0.95;      ///< running-average factor for KFAC stats
  real_t kl_clip = 0.001;        ///< trust-region rescaling (KAISA-style)

  // HyLo.
  real_t rank_ratio = 0.1;       ///< r as a fraction of the global batch
  real_t switch_threshold = 0.25;///< η in the gradient-based heuristic

  // KBFGS.
  index_t bfgs_memory = 10;

  // Silent-corruption guard gates (DESIGN.md §16): numeric commit gates at
  // the compute-into-scratch/commit-after-charge boundary of every
  // curvature optimizer. On a clean run the gates never fire (they only
  // reject non-finite or exploding candidates), so the default-on setting
  // is bitwise-invisible; bench_chaos_recovery toggles it off for the
  // guards-off ablation arm.
  bool guard_gates = true;

  // Adam.
  real_t beta1 = 0.9;
  real_t beta2 = 0.999;
  real_t adam_eps = 1e-8;
};

/// Per-refresh capture across ranks: cap.a[layer][rank] is that rank's local
/// per-sample (augmented) input matrix, cap.g[layer][rank] the matching
/// per-sample output-gradient matrix.
struct CaptureSet {
  std::vector<std::vector<Matrix>> a;
  std::vector<std::vector<Matrix>> g;

  index_t layers() const { return static_cast<index_t>(a.size()); }
  index_t world() const {
    return a.empty() ? 0 : static_cast<index_t>(a.front().size());
  }
};

class Optimizer {
 public:
  explicit Optimizer(OptimConfig cfg) : cfg_(cfg) {}
  virtual ~Optimizer() = default;

  virtual std::string name() const = 0;

  /// Whether the trainer must run this iteration with per-sample capture.
  virtual bool needs_capture(index_t /*iteration*/) const { return false; }

  /// Refresh curvature state from a capture (only called when
  /// needs_capture() was true). `comm` charges the method's collectives and
  /// hosts the compute profiler; may be null for plain local runs.
  virtual void update_curvature(const std::vector<ParamBlock*>& /*blocks*/,
                                const CaptureSet& /*capture*/,
                                CommSim* /*comm*/) {}

  /// Precondition + apply the parameter update. Consumes `gw`/plain grads.
  virtual void step(Network& net, index_t iteration) = 0;

  /// FLOPs of step()'s preconditioning products (none for first-order
  /// methods), which the compute model charges with the update.
  virtual double precondition_flops() const { return 0.0; }

  /// Epoch boundary hook (HyLo switching; `lr_decayed` mirrors Alg. 1's
  /// "learning rate decays" criticality trigger).
  virtual void begin_epoch(index_t /*epoch*/, bool /*lr_decayed*/) {}

  /// Per-iteration hook after gradients are final (HyLo Δ_e accumulation).
  virtual void accumulate_gradient(const std::vector<ParamBlock*>& /*b*/) {}

  /// Optimizer-state footprint in bytes (Table IV). Includes momentum,
  /// curvature factors, gathered factors — not the weights themselves.
  virtual index_t state_bytes() const;

  /// The field list of everything accumulated across steps — momentum
  /// here, Adam moments / curvature factors / switch histories in the
  /// overrides — as a run-snapshot section (hylo::ckpt): one list saves and
  /// loads it. State buffers are keyed by parameter address, so the list
  /// walks `net` in graph order to fix a stable on-disk order. Overrides
  /// call the base first (the momentum prefix), then list their own fields,
  /// so a restored optimizer continues the run bitwise-identically.
  virtual void serialize_state(Network& net, ckpt::Archive ar);

  real_t lr() const { return cfg_.lr; }
  void set_lr(real_t lr) { cfg_.lr = lr; }
  const OptimConfig& config() const { return cfg_; }

  /// Non-owning health-probe sink (obs/health.hpp); the Trainer wires its
  /// monitor in when probes are enabled. Null (the default) or a monitor
  /// whose due() is false means probe blocks are skipped entirely — probes
  /// are pure observers reading committed state, never inputs to the math.
  void set_health(obs::HealthMonitor* health) { health_ = health; }

 protected:
  obs::HealthMonitor* health_ = nullptr;
  /// Shared momentum + weight-decay update over all parameters (used by SGD
  /// and, post-preconditioning, by the whole NGD family).
  /// `scale` multiplies the gradient (KL-clip factor).
  void apply_sgd_update(Network& net, real_t scale = 1.0);

  /// Bytes held by the momentum buffers.
  index_t momentum_bytes() const;

  OptimConfig cfg_;

 private:
  std::unordered_map<const void*, Matrix> momentum_w_;
  std::unordered_map<const void*, std::vector<real_t>> momentum_plain_;
};

/// Plain SGD with momentum and weight decay.
class Sgd : public Optimizer {
 public:
  explicit Sgd(OptimConfig cfg) : Optimizer(cfg) {}
  std::string name() const override { return "SGD"; }
  void step(Network& net, index_t iteration) override;
};

/// Adam (Kingma & Ba) with decoupled weight decay applied as L2.
class Adam : public Optimizer {
 public:
  explicit Adam(OptimConfig cfg) : Optimizer(cfg) {}
  std::string name() const override { return "ADAM"; }
  void step(Network& net, index_t iteration) override;
  index_t state_bytes() const override;
  void serialize_state(Network& net, ckpt::Archive ar) override;

 private:
  struct State {
    Matrix m, v;
    std::vector<real_t> m_plain, v_plain;
  };
  std::unordered_map<const void*, State> state_;
  index_t t_ = 0;
};

/// Sum over every method of the `optim/<method><suffix>` counters in `reg`,
/// e.g. suffix "/stale_refreshes".
std::int64_t optim_counter_sum(const obs::MetricsRegistry& reg,
                               std::string_view suffix);

}  // namespace hylo
