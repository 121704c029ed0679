#pragma once
/// \file hylo_optimizer.hpp
/// HyLo — the paper's contribution (Algorithm 1). A hybrid low-rank SNGD
/// method that compresses each worker's per-sample factors before any
/// communication, via either
///   KID (Algorithm 2): Khatri-Rao interpolative decomposition of the local
///     Gram matrix, with a projected residual correction Y, inverted through
///     Eq. 8: (F+αI)⁻¹ ≈ (1/α)(I − U^sᵀ (K̂ + Y⁻¹)⁻¹ U^s); or
///   KIS (Algorithm 3): norm-score importance sampling of the rows, with
///     1/√(ρp_j) scaling, inverted through Eq. 9.
/// A gradient-based heuristic (Sec. III-C) picks KID on "critical" epochs —
/// when the accumulated-gradient norm jumps by more than η, or right after a
/// learning-rate decay — and the cheaper KIS elsewhere.

#include <cstdint>

#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/lu.hpp"
#include "hylo/optim/second_order.hpp"

namespace hylo {

enum class HyloMode { kKid, kKis };

inline const char* to_string(HyloMode m) {
  return m == HyloMode::kKid ? "KID" : "KIS";
}

/// One per-epoch KID/KIS decision with the evidence behind it (Alg. 1
/// lines 2-3): the run log journals these so Table III-style switching
/// analyses need no reconstruction.
struct SwitchDecision {
  index_t epoch = 0;
  real_t ratio = -1.0;      ///< R = |‖Δ_{e-1}‖−‖Δ_{e-2}‖|/‖Δ_{e-2}‖; <0 n/a
  real_t threshold = 0.0;   ///< η it was compared against
  bool lr_decayed = false;  ///< the schedule-trigger input
  bool critical = false;    ///< the decision: critical epoch → KID
  HyloMode mode = HyloMode::kKid;
  std::string reason;       ///< "warmup", "lr_decay", "ratio", "steady",
                            ///< or the non-gradient policy name
};

class HyloOptimizer : public CurvatureOptimizer {
 public:
  /// How the per-epoch KID/KIS decision is made. kGradientBased is the
  /// paper's heuristic; kRandom is the Table III ablation; the kAlways*
  /// policies serve the Fig. 7 / Fig. 12 per-method analyses.
  enum class Policy { kGradientBased, kRandom, kAlwaysKid, kAlwaysKis };

  explicit HyloOptimizer(OptimConfig cfg, std::uint64_t seed = 0x48794C6F)
      : CurvatureOptimizer(cfg, "hylo"), rng_(seed) {}

  std::string name() const override { return "HyLo"; }

  void begin_epoch(index_t epoch, bool lr_decayed) override;
  void accumulate_gradient(const std::vector<ParamBlock*>& blocks) override;
  index_t state_bytes() const override;  ///< adds the Δ_e accumulators
  void serialize_state(Network& net, ckpt::Archive ar) override;

  void set_policy(Policy p) { policy_ = p; }
  HyloMode mode() const { return mode_; }
  const std::vector<HyloMode>& mode_history() const { return mode_history_; }
  /// Evidence for every per-epoch KID/KIS decision, oldest first (one entry
  /// per begin_epoch call). The trainer's run log emits the latest entry.
  const std::vector<SwitchDecision>& switch_history() const {
    return switch_history_;
  }
  const SwitchDecision& last_switch() const {
    HYLO_CHECK(!switch_history_.empty(), "no epoch started yet");
    return switch_history_.back();
  }
  /// ‖Δ_e‖ per completed epoch (the switching signal, Fig. 11 adjacent).
  const std::vector<real_t>& delta_norm_history() const { return delta_norms_; }

  /// Preconditioned copy of a gradient without mutating it (Fig. 12 bench).
  Matrix preconditioned(const Matrix& grad, index_t layer) const;

  /// The global low rank r used at the last curvature refresh.
  index_t last_rank() const { return last_rank_; }

 protected:
  struct State final : LayerState {
    HyloMode mode = HyloMode::kKid;
    Matrix a_s, g_s;      ///< gathered low-rank factors (r rows)
    LuFactor kid_middle;  ///< LU of (K̂ + Y⁻¹)      [KID]
    Matrix kis_chol;      ///< Cholesky of (K̂ + αI)  [KIS]
    std::vector<const Matrix*> guarded() const override {
      return {&a_s, &g_s, &kid_middle.lu, &kis_chol};
    }
    index_t scalars() const override {
      return a_s.size() + g_s.size() + kid_middle.lu.size() + kis_chol.size();
    }
    double precondition_flops() const override {
      return flops::sample_space_precondition(a_s.rows(), a_s.cols(),
                                              g_s.cols());
    }
    void serialize(ckpt::Archive ar) override;
  };

  /// Algorithm 1 for every layer: compress each rank's factors (KID or
  /// KIS), assemble the gathered low-rank factors and factorize the r x r
  /// middle matrix. Published by gathers of the compressed factors (plus the
  /// KID residual projections), then a broadcast of the r x r inverse.
  std::vector<Candidate> build(const CaptureSet& capture,
                               CommSim* comm) override;
  std::unique_ptr<LayerState> make_state() const override {
    return std::make_unique<State>();
  }
  void precondition_block(ParamBlock& pb, index_t layer) override;
  void probe_layer(index_t layer, const CaptureSet& capture,
                   obs::LayerHealth& h) const override;

 private:
  Policy policy_ = Policy::kGradientBased;
  HyloMode mode_ = HyloMode::kKid;
  std::vector<HyloMode> mode_history_;
  std::vector<SwitchDecision> switch_history_;

  // Switching state: Δ_e accumulators per layer and their completed norms.
  std::vector<Matrix> delta_;
  bool delta_dirty_ = false;
  std::vector<real_t> delta_norms_;

  index_t last_rank_ = 0;
  Rng rng_;
};

}  // namespace hylo
