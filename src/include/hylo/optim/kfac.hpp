#pragma once
/// \file kfac.hpp
/// Kronecker-factored baselines:
///  - KFac: Martens & Grosse KFAC with the KAISA-style distributed pipeline
///    (factor allreduce, per-owner inversion, inverse broadcast).
///  - EKFac: KFAC in the Kronecker eigenbasis with per-entry second-moment
///    rescaling (George et al.).
///  - KBfgs: Kronecker factors with a limited-memory BFGS inverse on the
///    gradient side (re-derivation of Goldfarb et al.'s KBFGS-L; see
///    DESIGN.md §6).
/// All three accumulate the same running Kronecker factors E[aaᵀ], E[ggᵀ].

#include <deque>

#include "hylo/optim/second_order.hpp"

namespace hylo {

class KFac : public CurvatureOptimizer {
 public:
  explicit KFac(OptimConfig cfg) : CurvatureOptimizer(cfg, "kfac") {}
  std::string name() const override { return "KFAC"; }

 protected:
  struct State final : LayerState {
    Matrix a_factor, g_factor;  ///< running E[aaᵀ], E[ggᵀ]
    Matrix a_inv, g_inv;        ///< damped inverses
    std::vector<const Matrix*> guarded() const override {
      return {&a_factor, &g_factor, &a_inv, &g_inv};
    }
    index_t scalars() const override;
    double precondition_flops() const override;
    void serialize(ckpt::Archive ar) override;
  };

  /// Running factors, then their π-corrected damped inverses; published by
  /// a factor allreduce followed by an inverse broadcast.
  std::vector<Candidate> build(const CaptureSet& capture,
                               CommSim* comm) override;
  std::unique_ptr<LayerState> make_state() const override {
    return std::make_unique<State>();
  }
  void precondition_block(ParamBlock& pb, index_t layer) override;
  void probe_layer(index_t layer, const CaptureSet& capture,
                   obs::LayerHealth& h) const override;
};

class EKFac : public CurvatureOptimizer {
 public:
  explicit EKFac(OptimConfig cfg) : CurvatureOptimizer(cfg, "ekfac") {}
  std::string name() const override { return "EKFAC"; }

 protected:
  /// Factors and eigenbasis are one state, so a lost refresh keeps the old
  /// factors *and* the old basis.
  struct State final : LayerState {
    Matrix a_factor, g_factor;  ///< running E[aaᵀ], E[ggᵀ]
    Matrix v_a, v_g;            ///< Kronecker eigenbases
    Matrix scaling;  ///< running E[(V_gᵀ g a V_a)²], d_out x (d_in+1)
    std::vector<const Matrix*> guarded() const override {
      return {&a_factor, &g_factor, &v_a, &v_g, &scaling};
    }
    index_t scalars() const override;
    double precondition_flops() const override;
    void serialize(ckpt::Archive ar) override;
  };

  /// Running factors, their eigenbases, and the capture's second moments in
  /// that basis blended into the served scaling; published by a factor
  /// allreduce followed by an eigenbasis broadcast.
  std::vector<Candidate> build(const CaptureSet& capture,
                               CommSim* comm) override;
  std::unique_ptr<LayerState> make_state() const override {
    return std::make_unique<State>();
  }
  void precondition_block(ParamBlock& pb, index_t layer) override;
  void probe_layer(index_t layer, const CaptureSet& capture,
                   obs::LayerHealth& h) const override;
};

class KBfgs : public CurvatureOptimizer {
 public:
  explicit KBfgs(OptimConfig cfg) : CurvatureOptimizer(cfg, "kbfgs") {}
  std::string name() const override { return "KBFGS-L"; }

 protected:
  struct State final : LayerState {
    Matrix a_factor;  ///< running E[aaᵀ]
    Matrix a_inv;     ///< exact damped inverse of the input factor
    Matrix g_factor;  ///< running E[ggᵀ] (used to synthesize y = (C+γI)s)
    Matrix g_mean_prev;  ///< previous mean per-sample gradient (d_out x 1)
    std::deque<std::pair<std::vector<real_t>, std::vector<real_t>>> sy_pairs;
    real_t h0_scale = 1.0;  ///< initial inverse-Hessian scaling
    std::vector<const Matrix*> guarded() const override {
      return {&a_factor, &g_factor, &a_inv};
    }
    index_t scalars() const override;
    double precondition_flops() const override;
    void serialize(ckpt::Archive ar) override;
  };

  /// Running factors, the input-side inverse and the BFGS pair update on top
  /// of the served (s, y) history; published by a factor allreduce followed
  /// by an inverse broadcast.
  std::vector<Candidate> build(const CaptureSet& capture,
                               CommSim* comm) override;
  std::unique_ptr<LayerState> make_state() const override {
    return std::make_unique<State>();
  }
  void precondition_block(ParamBlock& pb, index_t layer) override;
  void probe_layer(index_t layer, const CaptureSet& capture,
                   obs::LayerHealth& h) const override;

 private:
  /// Two-loop L-BFGS application of the inverse G-side Hessian to each
  /// column of `m` (in place).
  void apply_hg(const State& st, Matrix& m) const;
};

}  // namespace hylo
