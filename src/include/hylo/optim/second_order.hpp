#pragma once
/// \file second_order.hpp
/// Shared machinery for the NGD family: capture scheduling, KL-clipped
/// trust-region application, damped inversion helpers with escalation, and
/// the one curvature-refresh pipeline every method runs in both comm modes
/// (DESIGN.md §10, §15, §16).

#include <memory>

#include "hylo/optim/optimizer.hpp"

namespace hylo {

namespace obs {
struct LayerHealth;
}  // namespace obs

/// Base for every curvature-preconditioned optimizer. It owns the refresh
/// lifecycle of Fig. 1 — build candidates, publish them through collectives,
/// commit or degrade — and step(): snapshot the raw gradient, precondition
/// served layers, apply the KAISA-style KL clip
///   ν = min(1, sqrt(κ / (lr² Σ_l ⟨precond g_l, g_l⟩)))
/// and perform the common momentum update. A method supplies only its math:
/// build(), its LayerState type, precondition_block() and probe_layer().
class CurvatureOptimizer : public Optimizer {
 public:
  /// One layer's curvature state in a method's own type: what the layer
  /// serves once committed, or a candidate refresh still in flight.
  struct LayerState {
    LayerState() = default;
    LayerState(const LayerState&) = default;
    LayerState(LayerState&&) = default;
    LayerState& operator=(const LayerState&) = default;
    LayerState& operator=(LayerState&&) = default;
    virtual ~LayerState() = default;
    /// The matrices the numeric commit gate scans, position-matched between
    /// a candidate and the served state it would replace.
    virtual std::vector<const Matrix*> guarded() const = 0;
    /// Scalars held (the state_bytes() footprint).
    virtual index_t scalars() const = 0;
    /// FLOPs of precondition_block's products on this state.
    virtual double precondition_flops() const = 0;
    /// The state's field list: one list saves and loads it (hylo::ckpt).
    virtual void serialize(ckpt::Archive ar) = 0;

    /// Frobenius norms of guarded(), as the commit gate measured them when
    /// this state passed it; empty if it never did (committed without a
    /// gate, or restored from a snapshot). Not part of the snapshot.
    std::vector<real_t> gate_norms;
  };

  /// One collective of a layer's refresh. Allreduces and allgathers charge
  /// comm/gather, broadcasts comm/broadcast; all may fail (FailMode
  /// kMayFail).
  struct Collective {
    enum class Kind { kAllreduce, kAllgather, kBroadcast };
    Kind kind = Kind::kAllreduce;
    std::vector<index_t> scalars;  ///< payload; one entry per rank (allgather)
    std::vector<Matrix*> carries;  ///< candidate matrices the payload models

    static Collective allreduce(index_t scalars, std::vector<Matrix*> carries) {
      return {Kind::kAllreduce, {scalars}, std::move(carries)};
    }
    static Collective broadcast(index_t scalars, std::vector<Matrix*> carries) {
      return {Kind::kBroadcast, {scalars}, std::move(carries)};
    }
    /// Gather of per-rank row blocks. The cost model's latency term follows
    /// the largest block; the wire ledger sums every rank's (ranks may hold
    /// different row counts when a local batch is short or compressed to a
    /// different local rank).
    static Collective allgather(const std::vector<Matrix>& parts,
                                std::vector<Matrix*> carries);
  };

  /// One layer's built refresh: the candidate, the collectives that publish
  /// it in issue order, and its kernels' FLOPs (every rank's, the owner's).
  struct Candidate {
    std::unique_ptr<LayerState> state;
    std::vector<Collective> collectives;
    double local_flops = 0.0;
    double owner_flops = 0.0;
  };

  /// `method` keys the optim/<method>/* metrics, e.g. "kfac".
  CurvatureOptimizer(OptimConfig cfg, const char* method)
      : Optimizer(cfg), method_(method) {}

  bool needs_capture(index_t iteration) const override {
    return cfg_.update_freq <= 1 || iteration % cfg_.update_freq == 0;
  }

  /// The refresh pipeline. build() makes every layer's candidate; the clocks
  /// advance by its FLOPs under the owner-clock rule (DESIGN.md §5); then
  /// each layer's chain of collectives goes out from the latest clock,
  /// stopping at its first lost link, and every collective's escaped silent
  /// corruption lands in the candidate matrices it carries. A layer whose
  /// collectives all landed and whose candidate passes the numeric commit
  /// gate serves that candidate (moved in whole, never half-new); otherwise
  /// it keeps serving its previous refresh, one refresh staler. Lockstep
  /// waits out every link and settles the layer at once; async settles it at
  /// poll_async() or, at the latest, at the next refresh. Without a
  /// communicator every candidate commits.
  void update_curvature(const std::vector<ParamBlock*>& blocks,
                        const CaptureSet& capture, CommSim* comm) final;

  void step(Network& net, index_t iteration) override;

  /// Σ over served layers of their precondition FLOPs (0 while first-order).
  double precondition_flops() const override;

  /// Served curvature state plus momentum (Table IV).
  index_t state_bytes() const override;

  /// Served and in-flight layer state, so a snapshot taken with gathers on
  /// the wire resumes bitwise (DESIGN.md §15).
  void serialize_state(Network& net, ckpt::Archive ar) override;

  /// Refresh age of the curvature served for `layer`: 0 when the last
  /// refresh landed, k when the last k refreshes lost their collectives and
  /// the layer still serves factors from k refreshes ago (or, while
  /// layer_ready() is false, has none and passes gradients through as plain
  /// SGD directions).
  index_t layer_staleness(index_t layer) const;

  /// Async comm mode only: commit every pending refresh whose collectives
  /// have completed by the timeline's current clock, in (ready time, seq)
  /// order. The trainer calls this each iteration so factor gathers issued
  /// at refresh t land while iterations t+1..t+f-1 compute; anything still
  /// in flight when the *next* refresh starts has missed its commit
  /// deadline and degrades to stale factors, exactly like a lost lockstep
  /// collective (DESIGN.md §10).
  void poll_async(CommSim& comm);

  /// Number of layers with an in-flight async refresh.
  index_t async_pending() const {
    return static_cast<index_t>(in_flight_.size());
  }

  /// Recovery-ladder rung 2 (DESIGN.md §16): while set, step() skips the
  /// preconditioning pass and applies the raw (momentum/KL-clipped)
  /// gradient direction — curvature state keeps refreshing and aging
  /// normally, it is just not served.
  void set_first_order(bool on) { first_order_ = on; }
  bool first_order() const { return first_order_; }

 protected:
  /// The method's math: every layer's candidate from a capture, one entry
  /// per layer. It may read served state (served_if) for running averages
  /// but must not change it, and it books its own measured compute
  /// (comp/* sections, optim/<method>/* metrics) when `comm` is non-null.
  virtual std::vector<Candidate> build(const CaptureSet& capture,
                                       CommSim* comm) = 0;

  /// An empty state of the method's type, for LayerState::serialize to
  /// load into on resume.
  virtual std::unique_ptr<LayerState> make_state() const = 0;

  /// Replace pb.gw by the preconditioned gradient for a served `layer`.
  virtual void precondition_block(ParamBlock& pb, index_t layer) = 0;

  /// Fill the method's health fields (cond*, nonfinite, energy_fraction) for
  /// a served `layer`; layer and staleness are already set.
  virtual void probe_layer(index_t layer, const CaptureSet& capture,
                           obs::LayerHealth& h) const = 0;

  /// True once layer `layer` serves curvature.
  bool layer_ready(index_t layer) const {
    return layer >= 0 && layer < static_cast<index_t>(layers_.size()) &&
           layers_[static_cast<std::size_t>(layer)] != nullptr;
  }

  /// The state `layer` serves; the layer must be ready.
  template <typename S>
  const S& served(index_t layer) const {
    return static_cast<const S&>(*layers_[static_cast<std::size_t>(layer)]);
  }
  /// The state `layer` serves, or null before its first commit.
  template <typename S>
  const S* served_if(index_t layer) const {
    return layer_ready(layer) ? &served<S>(layer) : nullptr;
  }

  /// Book one refresh's measured per-layer inversion seconds: each as an
  /// optim/<method>/inversion_seconds sample, their sum under
  /// comp/inversion. No-op without a communicator.
  void book_inversions(CommSim* comm, const std::vector<double>& seconds) const;

 private:
  /// A candidate whose async collective chain has not settled yet.
  struct InFlight {
    index_t layer = 0;
    CommEvent event;
    std::unique_ptr<LayerState> state;
  };

  /// Commit `cand` to `layer` if its collectives `landed` and it passes the
  /// numeric commit gate; otherwise count a stale refresh and age the layer.
  void settle(CommSim* comm, index_t layer, std::unique_ptr<LayerState> cand,
              bool landed);

  /// Settle every completed or failed chain in (ready time, seq) order;
  /// with `deadline`, a chain still in flight degrades to stale factors.
  void settle_in_flight(CommSim& comm, bool deadline);

  /// Health probes over the served state (cadence-gated observers).
  void probe_health(const CaptureSet& capture) const;

  const char* method_;
  std::vector<std::unique_ptr<LayerState>> layers_;  ///< null until ready
  std::vector<index_t> staleness_;  ///< refreshes since a layer last landed
  std::vector<InFlight> in_flight_;  ///< async chains not yet settled
  bool first_order_ = false;
};

/// SPD inverse of (c + damping·I) with escalating damping retries (10× per
/// attempt). Throws only if the matrix stays numerically indefinite after
/// `attempts` escalations — which indicates NaNs rather than conditioning.
Matrix damped_spd_inverse(const Matrix& c, real_t damping, int attempts = 4);

/// Cholesky factor of (c + damping·I) with the same escalation.
Matrix damped_cholesky(const Matrix& c, real_t damping, int attempts = 4);

}  // namespace hylo
