#include "hylo/optim/kfac.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/eigh.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {
// π-corrected Tikhonov split of the damping between the two Kronecker
// factors (Martens & Grosse §6.3): π = sqrt((tr A / dim A)/(tr G / dim G)).
real_t pi_correction(const Matrix& a, const Matrix& g) {
  const real_t ta = trace(a) / static_cast<real_t>(a.rows());
  const real_t tg = trace(g) / static_cast<real_t>(g.rows());
  if (!(ta > 0.0) || !(tg > 0.0)) return 1.0;
  return std::sqrt(ta / tg);
}

// The stat_decay running average: decay·old + (1−decay)·fresh.
Matrix blend(const Matrix& old, const Matrix& fresh, real_t decay) {
  Matrix run = old;
  run *= decay;
  axpy(run, fresh, 1.0 - decay);
  return run;
}

// Running Kronecker factors E[aaᵀ], E[ggᵀ] of layer `l`, shared by KFAC,
// EKFAC and KBFGS: the capture's per-rank Gram sums over the global batch,
// blended into the factors `prev` serves (null on the layer's first
// refresh), one running_factor pass each.
template <typename S>
std::pair<Matrix, Matrix> running_factors(const CaptureSet& capture, index_t l,
                                          const S* prev, real_t decay) {
  const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
  const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
  return {running_factor(a_ranks, prev ? &prev->a_factor : nullptr, decay),
          running_factor(g_ranks, prev ? &prev->g_factor : nullptr, decay)};
}

// Every rank's local share of a Kronecker refresh: the factor Grams of its
// capture (the largest rank's, which paces the others).
double factor_gram_flops(const CaptureSet& capture, index_t l) {
  const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
  const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
  double most = 0.0;
  for (std::size_t r = 0; r < a_ranks.size(); ++r) {
    const Matrix &a = a_ranks[r], &g = g_ranks[r];
    most = std::max(most, flops::gram(a.cols(), a.rows()) +
                              flops::gram(g.cols(), g.rows()));
  }
  return most;
}

// damped_spd_inverse of an n x n factor.
double spd_inverse_flops(index_t n) {
  return flops::cholesky(n) + flops::cholesky_inverse(n);
}

// Scalars held by the given matrices (payload sizes, state footprint).
index_t sizes(std::initializer_list<const Matrix*> ms) {
  index_t n = 0;
  for (const Matrix* m : ms) n += m->size();
  return n;
}
}  // namespace

// ---------------------------------------------------------------- KFac ----

std::vector<CurvatureOptimizer::Candidate> KFac::build(
    const CaptureSet& capture, CommSim* comm) {
  const index_t layers = capture.layers();
  std::vector<std::unique_ptr<State>> cand(static_cast<std::size_t>(layers));
  WallTimer factor_timer;
  for (index_t l = 0; l < layers; ++l) {
    auto& st = cand[static_cast<std::size_t>(l)];
    st = std::make_unique<State>();
    std::tie(st->a_factor, st->g_factor) =
        running_factors(capture, l, served_if<State>(l), cfg_.stat_decay);
  }
  if (comm != nullptr)
    comm->profiler().add("comp/factorization", factor_timer.seconds());

  std::vector<double> inv_s;
  std::vector<Candidate> out;
  for (index_t l = 0; l < layers; ++l) {
    auto& st = cand[static_cast<std::size_t>(l)];
    WallTimer timer;
    const real_t pi = pi_correction(st->a_factor, st->g_factor);
    const real_t root = std::sqrt(cfg_.damping);
    st->a_inv = damped_spd_inverse(st->a_factor, pi * root);
    st->g_inv = damped_spd_inverse(st->g_factor, root / pi);
    inv_s.push_back(timer.seconds());
    Candidate c;
    c.collectives = {
        Collective::allreduce(sizes({&st->a_factor, &st->g_factor}),
                              {&st->a_factor, &st->g_factor}),
        Collective::broadcast(sizes({&st->a_inv, &st->g_inv}),
                              {&st->a_inv, &st->g_inv})};
    c.local_flops = factor_gram_flops(capture, l);
    c.owner_flops = spd_inverse_flops(st->a_factor.rows()) +
                    spd_inverse_flops(st->g_factor.rows());
    c.state = std::move(st);
    out.push_back(std::move(c));
  }
  book_inversions(comm, inv_s);
  return out;
}

void KFac::precondition_block(ParamBlock& pb, index_t layer) {
  const State& st = served<State>(layer);
  pb.gw = matmul(st.g_inv, matmul(pb.gw, st.a_inv));
}

// κ∞ estimates come free from the factor/inverse pairs already held. No rank
// truncation, so energy_fraction stays NaN.
void KFac::probe_layer(index_t layer, const CaptureSet& /*capture*/,
                       obs::LayerHealth& h) const {
  const State& st = served<State>(layer);
  h.cond_a = obs::cond_from_pair(st.a_factor, st.a_inv);
  h.cond_g = obs::cond_from_pair(st.g_factor, st.g_inv);
  h.nonfinite = obs::count_nonfinite(st.a_inv) + obs::count_nonfinite(st.g_inv);
}

index_t KFac::State::scalars() const {
  return sizes({&a_factor, &g_factor, &a_inv, &g_inv});
}

double KFac::State::precondition_flops() const {
  const index_t da = a_inv.rows(), dg = g_inv.rows();
  return flops::gemm(dg, da, da) + flops::gemm(dg, da, dg);
}

void KFac::State::serialize(ckpt::Archive ar) {
  ar(a_factor, "a_factor");
  ar(g_factor, "g_factor");
  ar(a_inv, "a_inv");
  ar(g_inv, "g_inv");
}

// --------------------------------------------------------------- EKFac ----

std::vector<CurvatureOptimizer::Candidate> EKFac::build(
    const CaptureSet& capture, CommSim* comm) {
  const index_t layers = capture.layers();
  std::vector<std::unique_ptr<State>> cand(static_cast<std::size_t>(layers));
  WallTimer factor_timer;
  for (index_t l = 0; l < layers; ++l) {
    auto& st = cand[static_cast<std::size_t>(l)];
    st = std::make_unique<State>();
    std::tie(st->a_factor, st->g_factor) =
        running_factors(capture, l, served_if<State>(l), cfg_.stat_decay);
  }
  if (comm != nullptr)
    comm->profiler().add("comp/factorization", factor_timer.seconds());

  std::vector<double> inv_s;
  std::vector<Candidate> out;
  for (index_t l = 0; l < layers; ++l) {
    auto& st = cand[static_cast<std::size_t>(l)];
    WallTimer timer;
    st->v_a = eigh(st->a_factor).eigenvectors;
    st->v_g = eigh(st->g_factor).eigenvectors;
    // Per-entry second moments in the eigenbasis:
    // s_{oj} = E_i[(V_gᵀ g_i)_o² (a_iᵀ V_a)_j²].
    const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
    const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
    const index_t da = st->v_a.rows(), dg = st->v_g.rows();
    Candidate c;
    c.local_flops = factor_gram_flops(capture, l);
    c.owner_flops = flops::eigh(da) + flops::eigh(dg);
    Matrix s_new(st->v_g.cols(), st->v_a.cols());
    index_t m_total = 0;
    for (std::size_t r = 0; r < a_ranks.size(); ++r) {
      const index_t m = a_ranks[r].rows();
      c.owner_flops += flops::gemm(m, da, da) + flops::gemm(m, dg, dg) +
                       flops::gemm(dg, da, m);
      Matrix pa = matmul(a_ranks[r], st->v_a);  // m x (d_in+1)
      Matrix pg = matmul(g_ranks[r], st->v_g);  // m x d_out
      hadamard_inplace(pa, pa);
      hadamard_inplace(pg, pg);
      gemm_tn(pg, pa, s_new, 1.0, 1.0);
      m_total += a_ranks[r].rows();
    }
    s_new *= 1.0 / static_cast<real_t>(m_total);
    const State* prev = served_if<State>(l);
    st->scaling = prev == nullptr
                      ? std::move(s_new)
                      : blend(prev->scaling, s_new, cfg_.stat_decay);
    inv_s.push_back(timer.seconds());
    c.collectives = {
        Collective::allreduce(sizes({&st->a_factor, &st->g_factor}),
                              {&st->a_factor, &st->g_factor}),
        Collective::broadcast(sizes({&st->v_a, &st->v_g, &st->scaling}),
                              {&st->v_a, &st->v_g, &st->scaling})};
    c.state = std::move(st);
    out.push_back(std::move(c));
  }
  book_inversions(comm, inv_s);
  return out;
}

void EKFac::precondition_block(ParamBlock& pb, index_t layer) {
  const State& st = served<State>(layer);
  // Project, rescale by the damped second moments, project back.
  Matrix t = matmul(matmul_tn(st.v_g, pb.gw), st.v_a);
  HYLO_CHECK(st.scaling.rows() == t.rows() && st.scaling.cols() == t.cols(),
             "EKFAC scaling is " << st.scaling.rows() << "x"
                                 << st.scaling.cols() << ", gradient is "
                                 << t.rows() << "x" << t.cols());
  for (index_t i = 0; i < t.rows(); ++i)
    for (index_t j = 0; j < t.cols(); ++j)
      t(i, j) /= st.scaling(i, j) + cfg_.damping;
  pb.gw = matmul_nt(matmul(st.v_g, t), st.v_a);
}

// The damped eigenbasis scalings are exactly the spectrum the
// preconditioner divides by, so their spread is the served condition
// number — no extra factorization work.
void EKFac::probe_layer(index_t layer, const CaptureSet& /*capture*/,
                        obs::LayerHealth& h) const {
  const State& st = served<State>(layer);
  real_t lo = st.scaling[0], hi = st.scaling[0];
  for (index_t i = 0; i < st.scaling.size(); ++i) {
    lo = std::min(lo, st.scaling[i]);
    hi = std::max(hi, st.scaling[i]);
  }
  h.cond = (hi + cfg_.damping) / (lo + cfg_.damping);
  h.nonfinite = obs::count_nonfinite(st.v_a) + obs::count_nonfinite(st.v_g) +
                obs::count_nonfinite(st.scaling);
}

index_t EKFac::State::scalars() const {
  return sizes({&a_factor, &g_factor, &v_a, &v_g, &scaling});
}

double EKFac::State::precondition_flops() const {
  const index_t da = v_a.rows(), dg = v_g.rows();
  return 2.0 * (flops::gemm(dg, da, dg) + flops::gemm(dg, da, da)) +
         static_cast<double>(dg * da);
}

void EKFac::State::serialize(ckpt::Archive ar) {
  ar(a_factor, "a_factor");
  ar(g_factor, "g_factor");
  ar(v_a, "v_a");
  ar(v_g, "v_g");
  ar(scaling, "scaling");
}

// --------------------------------------------------------------- KBfgs ----

std::vector<CurvatureOptimizer::Candidate> KBfgs::build(
    const CaptureSet& capture, CommSim* comm) {
  const index_t layers = capture.layers();
  WallTimer factor_timer;
  std::vector<double> inv_s;
  std::vector<Candidate> out;
  for (index_t l = 0; l < layers; ++l) {
    const State* prev = served_if<State>(l);
    auto st = std::make_unique<State>();
    std::tie(st->a_factor, st->g_factor) =
        running_factors(capture, l, prev, cfg_.stat_decay);
    WallTimer timer;
    st->a_inv = damped_spd_inverse(st->a_factor, cfg_.damping);
    inv_s.push_back(timer.seconds());

    // Mean per-sample gradient over the global batch.
    const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
    Matrix g_mean(g_ranks[0].cols(), 1);
    index_t m_total = 0;
    for (const Matrix& g : g_ranks) {
      m_total += g.rows();
      for (index_t i = 0; i < g.rows(); ++i)
        for (index_t o = 0; o < g.cols(); ++o) g_mean[o] += g(i, o);
    }
    g_mean *= 1.0 / static_cast<real_t>(m_total);

    // (L-)BFGS pair from the change in the mean per-sample gradient, with
    // curvature synthesized through the damped G factor: y = (C_g + γI)s.
    if (prev != nullptr) {
      st->sy_pairs = prev->sy_pairs;
      st->h0_scale = prev->h0_scale;
      const Matrix s = g_mean - prev->g_mean_prev;
      const real_t s_norm = frobenius_norm(s);
      if (s_norm > 1e-12) {
        Matrix y = matmul(st->g_factor, s);
        axpy(y, s, cfg_.damping);
        const real_t sy = dot(s, y);
        if (sy > 1e-12 * s_norm * frobenius_norm(y)) {
          std::vector<real_t> sv(static_cast<std::size_t>(s.size()));
          std::vector<real_t> yv(static_cast<std::size_t>(y.size()));
          for (index_t i = 0; i < s.size(); ++i) {
            sv[static_cast<std::size_t>(i)] = s[i];
            yv[static_cast<std::size_t>(i)] = y[i];
          }
          st->sy_pairs.emplace_back(std::move(sv), std::move(yv));
          while (static_cast<index_t>(st->sy_pairs.size()) > cfg_.bfgs_memory)
            st->sy_pairs.pop_front();
          st->h0_scale = sy / dot(y, y);
        }
      }
    }
    st->g_mean_prev = std::move(g_mean);

    Candidate c;
    c.collectives = {
        Collective::allreduce(sizes({&st->a_factor, &st->g_factor}),
                              {&st->a_factor, &st->g_factor}),
        Collective::broadcast(st->a_inv.size(), {&st->a_inv})};
    const index_t dg = st->g_factor.rows();
    c.local_flops = factor_gram_flops(capture, l);
    c.owner_flops =
        spd_inverse_flops(st->a_factor.rows()) + flops::gemm(dg, 1, dg);
    c.state = std::move(st);
    out.push_back(std::move(c));
  }
  // The A-side inverses are inversion, as KFAC books its own.
  double inverting = 0.0;
  for (const double s : inv_s) inverting += s;
  if (comm != nullptr)
    comm->profiler().add("comp/factorization",
                         factor_timer.seconds() - inverting);
  book_inversions(comm, inv_s);
  return out;
}

// κ∞ of the input-side factor via the held inverse pair (the G side is
// applied through the BFGS recursion, no inverse to read).
void KBfgs::probe_layer(index_t layer, const CaptureSet& /*capture*/,
                        obs::LayerHealth& h) const {
  const State& st = served<State>(layer);
  h.cond_a = obs::cond_from_pair(st.a_factor, st.a_inv);
  h.nonfinite =
      obs::count_nonfinite(st.a_inv) + obs::count_nonfinite(st.g_factor);
}

void KBfgs::apply_hg(const State& st, Matrix& m) const {
  const index_t n = m.rows(), cols = m.cols();
  const index_t k = static_cast<index_t>(st.sy_pairs.size());
  for (const auto& [s, y] : st.sy_pairs)
    HYLO_CHECK(static_cast<index_t>(s.size()) == n &&
                   static_cast<index_t>(y.size()) == n,
               "KBFGS pair of length " << s.size() << "/" << y.size()
                                       << " for " << n << " gradient rows");
  std::vector<real_t> q(static_cast<std::size_t>(n));
  std::vector<real_t> alpha(static_cast<std::size_t>(k));
  for (index_t c = 0; c < cols; ++c) {
    for (index_t i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] = m(i, c);
    // Two-loop recursion.
    for (index_t j = k; j-- > 0;) {
      const auto& [s, y] = st.sy_pairs[static_cast<std::size_t>(j)];
      real_t sy = 0.0, sq = 0.0;
      for (index_t i = 0; i < n; ++i) {
        sy += s[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        sq += s[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(i)];
      }
      const real_t a = sq / sy;
      alpha[static_cast<std::size_t>(j)] = a;
      for (index_t i = 0; i < n; ++i)
        q[static_cast<std::size_t>(i)] -= a * y[static_cast<std::size_t>(i)];
    }
    for (index_t i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] *= st.h0_scale;
    for (index_t j = 0; j < k; ++j) {
      const auto& [s, y] = st.sy_pairs[static_cast<std::size_t>(j)];
      real_t sy = 0.0, yq = 0.0;
      for (index_t i = 0; i < n; ++i) {
        sy += s[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        yq += y[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(i)];
      }
      const real_t b = yq / sy;
      for (index_t i = 0; i < n; ++i)
        q[static_cast<std::size_t>(i)] +=
            (alpha[static_cast<std::size_t>(j)] - b) * s[static_cast<std::size_t>(i)];
    }
    for (index_t i = 0; i < n; ++i) m(i, c) = q[static_cast<std::size_t>(i)];
  }
}

void KBfgs::precondition_block(ParamBlock& pb, index_t layer) {
  const State& st = served<State>(layer);
  Matrix g = pb.gw;
  if (st.sy_pairs.empty()) {
    // No curvature pairs yet: fall back to H_g = (C_g + γI)⁻¹-free identity.
    pb.gw = matmul(g, st.a_inv);
    return;
  }
  apply_hg(st, g);
  pb.gw = matmul(g, st.a_inv);
}

double KBfgs::State::precondition_flops() const {
  const index_t da = a_inv.rows(), dg = g_factor.rows();
  const double pairs = static_cast<double>(sy_pairs.size());
  return 12.0 * pairs * static_cast<double>(dg * da) + flops::gemm(dg, da, da);
}

index_t KBfgs::State::scalars() const {
  index_t n = sizes({&a_factor, &a_inv, &g_factor, &g_mean_prev});
  for (const auto& [s, y] : sy_pairs)
    n += static_cast<index_t>(s.size() + y.size());
  return n;
}

void KBfgs::State::serialize(ckpt::Archive ar) {
  ar(a_factor, "a_factor");
  ar(a_inv, "a_inv");
  ar(g_factor, "g_factor");
  ar(g_mean_prev, "g_mean_prev");
  ar.count(sy_pairs, 16, "sy_pairs");  // two vector lengths (8 bytes each)
  for (auto& [s, y] : sy_pairs) {
    ar(s, "sy_pairs.s");
    ar(y, "sy_pairs.y");
  }
  ar(h0_scale, "h0_scale");
}

}  // namespace hylo
