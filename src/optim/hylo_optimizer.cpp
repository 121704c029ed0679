#include "hylo/optim/hylo_optimizer.hpp"

#include <cmath>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/id.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {
// LU factorization with escalating diagonal damping (the KID middle matrix
// is non-symmetric, so Cholesky retries do not apply). Bounded at `attempts`
// factorizations total; each escalation bumps *escalations, and the last
// failure is rethrown with the escalation context attached.
LuFactor damped_lu(Matrix m, real_t damping, int* escalations,
                   int attempts = 4) {
  real_t added = 0.0;
  for (int attempt = 0;; ++attempt) {
    try {
      return lu_factor(m);
    } catch (const Error& e) {
      if (attempt + 1 >= attempts)
        throw Error("KID middle matrix (n=" + std::to_string(m.rows()) +
                    ") stayed singular after " + std::to_string(attempt) +
                    " damping escalations (final added damping " +
                    std::to_string(added) + "): " + e.what());
      const real_t next = added == 0.0 ? damping : added * 10.0;
      add_diagonal(m, next - added);
      added = next;
      if (escalations != nullptr) ++*escalations;
    }
  }
}

/// Per-layer staging area for the split curvature build: the parallel
/// compute stage fills it, the serial bookkeeping stage drains it into the
/// profiler and the layer's candidate in exact layer order.
struct LayerScratch {
  std::vector<Matrix> a_parts, g_parts;  ///< per-rank compressed factors
  std::vector<Matrix> y_parts;           ///< KID residual projections
  // KIS sampling is drawn serially up front so the rng stream stays in
  // (layer, rank) order regardless of thread count.
  std::vector<std::vector<index_t>> picked;
  std::vector<std::vector<real_t>> scale;  ///< 1/(ρ p_j)^{1/4} per picked row
  Matrix a_s, g_s;        ///< candidate gathered factors
  LuFactor kid_middle;    ///< candidate LU of (K̂ + Y⁻¹)      [KID]
  Matrix kis_chol;        ///< candidate Cholesky of (K̂ + αI)  [KIS]
  int escalations = 0;    ///< damping escalations spent in damped_lu
  double factor_s = 0.0;  ///< measured local-factorization wall time
  double inv_s = 0.0;     ///< measured inversion wall time
  double local_flops = 0.0, owner_flops = 0.0;  ///< the candidate's
};

// Algorithm 2 lines 1-4 for every simulated rank of one layer. Pure
// compute with per-layer-disjoint outputs, safe to run layers in parallel.
void factorize_kid(LayerScratch& sc, const std::vector<Matrix>& a_ranks,
                   const std::vector<Matrix>& g_ranks, index_t r_local,
                   real_t damping) {
  const index_t world = static_cast<index_t>(a_ranks.size());
  sc.a_parts.resize(static_cast<std::size_t>(world));
  sc.g_parts.resize(static_cast<std::size_t>(world));
  sc.y_parts.resize(static_cast<std::size_t>(world));
  for (index_t rank = 0; rank < world; ++rank) {
    const Matrix& a = a_ranks[static_cast<std::size_t>(rank)];
    const Matrix& g = g_ranks[static_cast<std::size_t>(rank)];
    const index_t rk = std::min(r_local, a.rows());

    // The largest rank's lines 1-4 pace the others.
    const index_t m = a.rows();
    sc.local_flops = std::max(
        sc.local_flops, flops::kernel(m, a.cols(), g.cols()) +
                            flops::id(m, m, rk) + flops::gemm(m, m, rk) +
                            flops::lu(m) + flops::gemm(m, rk, m) +
                            flops::gemm(rk, rk, m));
    // Line 1: local Gram matrix Q = (AAᵀ)∘(GGᵀ).
    const Matrix q = kernel_matrix(a, g);
    // Line 2: [P, S] = ID(Q, r).
    const RowId id = row_interpolative_decomposition(q, rk);
    // Line 4: KID-factors.
    sc.a_parts[static_cast<std::size_t>(rank)] = a.select_rows(id.rows);
    sc.g_parts[static_cast<std::size_t>(rank)] = g.select_rows(id.rows);
    // Line 3: residue R = Q − P·Q(S,:);  line 4: Y = Pᵀ(R+αI)⁻¹P.
    Matrix resid = q - id_reconstruct(id, q);
    add_diagonal(resid, damping);
    const Matrix x = lu_solve(lu_factor(resid), id.projection);  // m x r
    sc.y_parts[static_cast<std::size_t>(rank)] = matmul_tn(id.projection, x);
  }
}

// Algorithm 3 with the random choices already drawn (sc.picked / sc.scale):
// what remains is pure row selection + scaling.
void factorize_kis(LayerScratch& sc, const std::vector<Matrix>& a_ranks,
                   const std::vector<Matrix>& g_ranks) {
  const index_t world = static_cast<index_t>(a_ranks.size());
  sc.a_parts.resize(static_cast<std::size_t>(world));
  sc.g_parts.resize(static_cast<std::size_t>(world));
  for (index_t rank = 0; rank < world; ++rank) {
    const auto& picked = sc.picked[static_cast<std::size_t>(rank)];
    const auto& scale = sc.scale[static_cast<std::size_t>(rank)];
    const Matrix& a = a_ranks[static_cast<std::size_t>(rank)];
    const Matrix& g = g_ranks[static_cast<std::size_t>(rank)];
    // The sampling scores: a row-norm pass over both factors.
    sc.local_flops =
        std::max(sc.local_flops, flops::gemm(a.rows(), 1, a.cols() + g.cols()));
    Matrix as = a.select_rows(picked);
    Matrix gs = g.select_rows(picked);
    for (index_t i = 0; i < static_cast<index_t>(picked.size()); ++i) {
      const real_t s = scale[static_cast<std::size_t>(i)];
      real_t* ar = as.row_ptr(i);
      for (index_t j = 0; j < as.cols(); ++j) ar[j] *= s;
      real_t* gr = gs.row_ptr(i);
      for (index_t j = 0; j < gs.cols(); ++j) gr[j] *= s;
    }
    sc.a_parts[static_cast<std::size_t>(rank)] = std::move(as);
    sc.g_parts[static_cast<std::size_t>(rank)] = std::move(gs);
  }
}

}  // namespace

void HyloOptimizer::begin_epoch(index_t epoch, bool lr_decayed) {
  // Close out Δ_{e-1}: ‖Δ‖ = sqrt(Σ_l ‖Δ_l‖²).
  if (delta_dirty_) {
    real_t sq = 0.0;
    for (auto& d : delta_) {
      sq += frobenius_norm_sq(d);
      d.zero();
    }
    delta_norms_.push_back(std::sqrt(sq));
    delta_dirty_ = false;
  }

  SwitchDecision dec;
  dec.epoch = epoch;
  dec.threshold = cfg_.switch_threshold;
  dec.lr_decayed = lr_decayed;
  switch (policy_) {
    case Policy::kAlwaysKid:
      mode_ = HyloMode::kKid;
      dec.reason = "always_kid";
      break;
    case Policy::kAlwaysKis:
      mode_ = HyloMode::kKis;
      dec.reason = "always_kis";
      break;
    case Policy::kRandom:
      mode_ = rng_.uniform() < 0.5 ? HyloMode::kKid : HyloMode::kKis;
      dec.reason = "random";
      break;
    case Policy::kGradientBased: {
      // Alg. 1 lines 2-3: R = |‖Δ_{e-1}‖ − ‖Δ_{e-2}‖| / ‖Δ_{e-2}‖; KID on
      // critical epochs (R ≥ η or LR decay), KIS otherwise. With fewer than
      // two completed epochs the run is still in its critical warmup: KID.
      bool critical = lr_decayed;
      dec.reason = lr_decayed ? "lr_decay" : "steady";
      if (delta_norms_.size() < 2) {
        critical = true;
        dec.reason = "warmup";
      } else {
        const real_t n1 = delta_norms_[delta_norms_.size() - 1];
        const real_t n2 = delta_norms_[delta_norms_.size() - 2];
        if (n2 > 0.0) {
          dec.ratio = std::abs(n1 - n2) / n2;
          if (dec.ratio >= cfg_.switch_threshold) {
            critical = true;
            if (!lr_decayed) dec.reason = "ratio";
          }
        }
      }
      dec.critical = critical;
      mode_ = critical ? HyloMode::kKid : HyloMode::kKis;
      break;
    }
  }
  dec.critical = mode_ == HyloMode::kKid;
  dec.mode = mode_;
  mode_history_.push_back(mode_);
  switch_history_.push_back(std::move(dec));
}

void HyloOptimizer::accumulate_gradient(const std::vector<ParamBlock*>& blocks) {
  if (delta_.size() != blocks.size()) {
    delta_.clear();
    delta_.resize(blocks.size());
  }
  for (std::size_t l = 0; l < blocks.size(); ++l) {
    Matrix& d = delta_[l];
    if (d.rows() != blocks[l]->gw.rows() || d.cols() != blocks[l]->gw.cols())
      d.resize(blocks[l]->gw.rows(), blocks[l]->gw.cols());
    d += blocks[l]->gw;
  }
  delta_dirty_ = true;
}

std::vector<CurvatureOptimizer::Candidate> HyloOptimizer::build(
    const CaptureSet& capture, CommSim* comm) {
  const index_t layers = capture.layers();
  // Global batch and rank budget: r = rank_ratio · (P·m), split evenly as
  // ρ = r / P rows per worker (paper Table I).
  const index_t world = capture.world();
  index_t global_m = 0;
  for (const auto& m : capture.a[0]) global_m += m.rows();
  index_t r = std::max<index_t>(1, static_cast<index_t>(
                                       cfg_.rank_ratio * static_cast<real_t>(global_m) + 0.5));
  index_t r_local = std::max<index_t>(1, r / world);
  last_rank_ = r_local * world;

  std::vector<LayerScratch> scratch(static_cast<std::size_t>(layers));

  // --- Stage 1 (serial): draw the KIS sampling decisions -----------------
  // rng_ is consumed in strict (layer, rank) order here, so the stream —
  // and therefore every sampled factor — is identical at any thread count.
  if (mode_ == HyloMode::kKis) {
    for (index_t l = 0; l < layers; ++l) {
      LayerScratch& sc = scratch[static_cast<std::size_t>(l)];
      const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
      const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
      sc.picked.resize(a_ranks.size());
      sc.scale.resize(a_ranks.size());
      for (index_t rank = 0; rank < world; ++rank) {
        const Matrix& a = a_ranks[static_cast<std::size_t>(rank)];
        const Matrix& g = g_ranks[static_cast<std::size_t>(rank)];
        const index_t m = a.rows();
        const index_t rho = std::min(r_local, m);

        // Scores via the Khatri-Rao structure: ‖u_j‖² = ‖a_j‖²·‖g_j‖².
        const auto na = row_norms(a);
        const auto ng = row_norms(g);
        std::vector<real_t> score(static_cast<std::size_t>(m));
        real_t total = 0.0;
        index_t positive = 0;
        for (index_t j = 0; j < m; ++j) {
          const real_t s =
              na[static_cast<std::size_t>(j)] * ng[static_cast<std::size_t>(j)];
          score[static_cast<std::size_t>(j)] = s * s;
          total += s * s;
          positive += s > 0.0;
        }
        if (positive < rho) {
          // Degenerate batch (fewer than ρ samples carry gradient, e.g. dead
          // activations): blend in a uniform floor so sampling stays valid —
          // the zero-score rows contribute nothing to the kernel anyway.
          const real_t floor =
              std::max(total, real_t{1.0}) / static_cast<real_t>(m) * 1e-9 +
              1e-30;
          for (auto& s : score) s += floor;
          total += floor * static_cast<real_t>(m);
        }
        auto picked = rng_.sample_without_replacement(score, rho);

        // Row scaling 1/√(ρ p_j), split as ^(1/4) on each of a_j and g_j so
        // the Khatri-Rao product of the scaled rows carries the full factor.
        std::vector<real_t> scale(picked.size());
        for (std::size_t i = 0; i < picked.size(); ++i) {
          const real_t p = score[static_cast<std::size_t>(picked[i])] / total;
          scale[i] =
              std::pow(static_cast<real_t>(rho) * std::max(p, real_t{1e-300}),
                       real_t{-0.25});
        }
        sc.picked[static_cast<std::size_t>(rank)] = std::move(picked);
        sc.scale[static_cast<std::size_t>(rank)] = std::move(scale);
      }
    }
  }

  // --- Stage 2 (parallel across layers): factorize + invert --------------
  // Pure compute on disjoint per-layer scratch; the gathered factors are
  // assembled locally (bitwise equal to the modeled allgather result), and
  // the pipeline charges the collectives afterwards in layer order.
  // Kernel-level parallel_for calls nested inside run inline on this
  // thread.
  par::parallel_for(
      0, layers, 1,
      [&](index_t l0, index_t l1) {
        for (index_t l = l0; l < l1; ++l) {
          LayerScratch& sc = scratch[static_cast<std::size_t>(l)];
          const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
          const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];

          WallTimer factor_timer;
          if (mode_ == HyloMode::kKid)
            factorize_kid(sc, a_ranks, g_ranks, r_local, cfg_.damping);
          else
            factorize_kis(sc, a_ranks, g_ranks);
          sc.factor_s = factor_timer.seconds();

          // Alg. 1 lines 7/18: the gathered low-rank factors.
          sc.a_s = vstack(sc.a_parts);
          sc.g_s = vstack(sc.g_parts);

          const index_t r = sc.a_s.rows();
          sc.owner_flops = flops::kernel(r, sc.a_s.cols(), sc.g_s.cols()) +
                           (mode_ == HyloMode::kKid
                                ? 2.0 * flops::lu(r) + flops::gemm(r, r, r)
                                : flops::cholesky(r));
          WallTimer invert_timer;
          if (mode_ == HyloMode::kKid) {
            // Alg. 1 line 10, Eq. 8: LU of K̂ + Y⁻¹.
            const Matrix y = block_diag(sc.y_parts);
            Matrix middle = kernel_matrix(sc.a_s, sc.g_s);  // K̂
            middle += lu_inverse(y);
            sc.kid_middle =
                damped_lu(std::move(middle), cfg_.damping, &sc.escalations);
          } else {
            // Alg. 1 line 21, Eq. 9: Cholesky of K̂ + αI.
            const Matrix k = kernel_matrix(sc.a_s, sc.g_s);
            sc.kis_chol = damped_cholesky(k, cfg_.damping);
          }
          sc.inv_s = invert_timer.seconds();
        }
      },
      "optim/hylo/layers",
      audit::Footprint([&](index_t l0, index_t l1, audit::WriteSet& ws) {
        ws.add_range(scratch.data(), l0, l1);
      }));

  // --- Stage 3 (serial, layer order): bookkeeping + candidates ----------
  // Books the measured compute of every layer in exact layer order, so
  // call counts are unchanged by threading; then hands each candidate to
  // the pipeline with the collectives and FLOPs that publish and build it.
  int escalations = 0;
  std::vector<Candidate> out;
  out.reserve(static_cast<std::size_t>(layers));
  for (index_t l = 0; l < layers; ++l) {
    LayerScratch& sc = scratch[static_cast<std::size_t>(l)];
    escalations += sc.escalations;
    if (comm != nullptr) {
      comm->profiler().add("comp/factorization", sc.factor_s);
      comm->profiler().add("comp/inversion", sc.inv_s);
      comm->profiler().registry().histogram("optim/hylo/inversion_seconds")
          .observe(sc.inv_s);
    }
    auto st = std::make_unique<State>();
    st->mode = mode_;
    st->a_s = std::move(sc.a_s);
    st->g_s = std::move(sc.g_s);
    st->kid_middle = std::move(sc.kid_middle);
    st->kis_chol = std::move(sc.kis_chol);
    Candidate c;
    c.local_flops = sc.local_flops;
    c.owner_flops = sc.owner_flops;
    // Alg. 1 lines 7/18: gathers of the compressed factors (and the KID
    // residual projections, which land in the middle matrix).
    c.collectives.push_back(Collective::allgather(sc.a_parts, {&st->a_s}));
    c.collectives.push_back(Collective::allgather(sc.g_parts, {&st->g_s}));
    if (mode_ == HyloMode::kKid)
      c.collectives.push_back(
          Collective::allgather(sc.y_parts, {&st->kid_middle.lu}));
    // Lines 11/21: broadcast of the r x r inverse.
    c.collectives.push_back(Collective::broadcast(
        st->a_s.rows() * st->a_s.rows(),
        {mode_ == HyloMode::kKid ? &st->kid_middle.lu : &st->kis_chol}));
    c.state = std::move(st);
    out.push_back(std::move(c));
  }
  if (comm != nullptr) {
    auto& reg = comm->profiler().registry();
    reg.counter("optim/hylo/refreshes").inc();
    if (escalations > 0)
      reg.counter("optim/hylo/damping_escalations").inc(escalations);
    reg.gauge("optim/hylo/rank").set(static_cast<double>(last_rank_));
    reg.histogram("optim/hylo/selected_rank",
                  obs::Histogram::linear_bounds(0.0, 4096.0, 65))
        .observe(static_cast<double>(last_rank_));
  }
  return out;
}

// The condition estimate comes off the factorization the layer already
// holds. The captured-energy fraction is tr(K̂) of the served low-rank
// factors over tr(K) of the full capture, both via the Khatri-Rao diagonal
// K_jj = ‖a_j‖²‖g_j‖². KIS row scaling makes tr(K̂) an unbiased estimator of
// tr(K), so ≈1 there is correct, not vacuous; for KID this is the energy the
// chosen rank actually keeps.
void HyloOptimizer::probe_layer(index_t layer, const CaptureSet& capture,
                                obs::LayerHealth& h) const {
  const State& st = served<State>(layer);
  const bool kid = st.mode == HyloMode::kKid;
  h.cond = kid ? obs::cond_from_lu(st.kid_middle.lu)
               : obs::cond_from_cholesky(st.kis_chol);
  h.nonfinite = obs::count_nonfinite(st.a_s) + obs::count_nonfinite(st.g_s) +
                obs::count_nonfinite(kid ? st.kid_middle.lu : st.kis_chol);
  auto add_energy = [](const Matrix& a, const Matrix& g, double& e) {
    const auto na = row_norms(a);
    const auto ng = row_norms(g);
    for (std::size_t j = 0; j < na.size(); ++j) {
      const double s = na[j] * ng[j];
      e += s * s;
    }
  };
  double kept = 0.0, total = 0.0;
  add_energy(st.a_s, st.g_s, kept);
  const auto& a_ranks = capture.a[static_cast<std::size_t>(layer)];
  const auto& g_ranks = capture.g[static_cast<std::size_t>(layer)];
  for (std::size_t rank = 0; rank < a_ranks.size(); ++rank)
    add_energy(a_ranks[rank], g_ranks[rank], total);
  if (total > 0.0) h.energy_fraction = kept / total;
}

Matrix HyloOptimizer::preconditioned(const Matrix& grad, index_t layer) const {
  HYLO_CHECK(layer_ready(layer),
             "HyLo layer " << layer << " has no curvature yet");
  const State& st = served<State>(layer);
  const Matrix uv = apply_jacobian(st.a_s, st.g_s, grad);
  const Matrix y = (st.mode == HyloMode::kKid)
                       ? lu_solve(st.kid_middle, uv)
                       : cholesky_solve(st.kis_chol, uv);
  Matrix out = grad - apply_jacobian_t(st.a_s, st.g_s, y);
  out *= 1.0 / cfg_.damping;
  return out;
}

void HyloOptimizer::precondition_block(ParamBlock& pb, index_t layer) {
  pb.gw = preconditioned(pb.gw, layer);
}

index_t HyloOptimizer::state_bytes() const {
  index_t scalars = 0;
  for (const auto& d : delta_) scalars += d.size();
  return CurvatureOptimizer::state_bytes() +
         scalars * static_cast<index_t>(sizeof(real_t));
}

void HyloOptimizer::State::serialize(ckpt::Archive ar) {
  ar.tag(mode, HyloMode::kKis, "mode");
  ar(a_s, "a_s");
  ar(g_s, "g_s");
  ar(kid_middle.lu, "kid_middle.lu");
  ar(kid_middle.piv, "kid_middle.piv");
  ar(kis_chol, "kis_chol");
  if (!ar.loading()) return;
  // lu_solve swaps row r with row piv[r]: hold the pivots to what
  // lu_factor produces, r <= piv[r] < n, for a square LU.
  const index_t n = kid_middle.lu.rows();
  ar.require(kid_middle.lu.cols() == n &&
                 static_cast<index_t>(kid_middle.piv.size()) == n,
             "kid_middle.piv", "LU is ", n, "x", kid_middle.lu.cols(),
             " with ", kid_middle.piv.size(), " pivots");
  for (index_t r = 0; r < n; ++r) {
    const index_t p = kid_middle.piv[static_cast<std::size_t>(r)];
    ar.require(r <= p && p < n, "kid_middle.piv", "pivot ", p, " of row ", r,
               " is outside [", r, ", ", n, ")");
  }
}

void HyloOptimizer::serialize_state(Network& net, ckpt::Archive ar) {
  CurvatureOptimizer::serialize_state(net, ar);
  ar.tag(policy_, Policy::kAlwaysKis, "policy");
  ar.tag(mode_, HyloMode::kKis, "mode");
  ar.count(mode_history_, 1, "mode_history");
  for (HyloMode& m : mode_history_) ar.tag(m, HyloMode::kKis, "mode_history");
  // epoch, ratio, threshold (24 bytes) + three one-byte fields + reason
  // length (8)
  ar.count(switch_history_, 35, "switch_history");
  for (SwitchDecision& d : switch_history_) {
    ar(d.epoch, "switch.epoch");
    ar(d.ratio, "switch.ratio");
    ar(d.threshold, "switch.threshold");
    ar(d.lr_decayed, "switch.lr_decayed");
    ar(d.critical, "switch.critical");
    ar.tag(d.mode, HyloMode::kKis, "switch.mode");
    ar(d.reason, "switch.reason");
  }
  ar.count(delta_, 16, "delta");  // matrix dims (16 bytes)
  for (Matrix& m : delta_) ar(m, "delta");
  ar(delta_dirty_, "delta_dirty");
  ar(delta_norms_, "delta_norms");
  ar(last_rank_, "last_rank");
  ar(rng_, "rng");
}

}  // namespace hylo
