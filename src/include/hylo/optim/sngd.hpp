#pragma once
/// \file sngd.hpp
/// Standard Sherman-Morrison-Woodbury NGD (Eq. 7 of the paper) with the
/// communication-optimized distributed pipeline of Fig. 1: per-sample
/// input/gradient matrices are allgathered, the global-batch kernel matrix
/// K = (AAᵀ)∘(GGᵀ) is inverted per assigned layer, and the inverse is
/// broadcast. Exact (no low-rank compression) — the baseline whose O(P³m³)
/// inversion and O(P²m²) broadcast HyLo eliminates.

#include "hylo/linalg/cholesky.hpp"
#include "hylo/optim/second_order.hpp"

namespace hylo {

class Sngd : public CurvatureOptimizer {
 public:
  explicit Sngd(OptimConfig cfg) : CurvatureOptimizer(cfg, "sngd") {}
  std::string name() const override { return "SNGD"; }

  /// Preconditioned copy of a gradient without mutating it (shared with the
  /// Fig. 12 gradient-error bench).
  Matrix preconditioned(const Matrix& grad, index_t layer) const;

 protected:
  struct State final : LayerState {
    Matrix a_glob, g_glob;  ///< gathered global-batch factors (P·m rows)
    Matrix kernel_chol;     ///< Cholesky of (K + αI), dimension P·m
    std::vector<const Matrix*> guarded() const override {
      return {&a_glob, &g_glob, &kernel_chol};
    }
    index_t scalars() const override {
      return a_glob.size() + g_glob.size() + kernel_chol.size();
    }
    double precondition_flops() const override {
      return flops::sample_space_precondition(a_glob.rows(), a_glob.cols(),
                                              g_glob.cols());
    }
    void serialize(ckpt::Archive ar) override;
  };

  /// Stack every layer's global factors and invert its kernel; published by
  /// allgathers of the raw per-sample matrices (Fig. 1 step 2), then a
  /// broadcast of the inverted kernel (step 4).
  std::vector<Candidate> build(const CaptureSet& capture,
                               CommSim* comm) override;
  std::unique_ptr<LayerState> make_state() const override {
    return std::make_unique<State>();
  }
  void precondition_block(ParamBlock& pb, index_t layer) override;
  void probe_layer(index_t layer, const CaptureSet& capture,
                   obs::LayerHealth& h) const override;
};

}  // namespace hylo
