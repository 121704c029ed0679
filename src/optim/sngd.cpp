#include "hylo/optim/sngd.hpp"

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

std::vector<CurvatureOptimizer::Candidate> Sngd::build(
    const CaptureSet& capture, CommSim* comm) {
  const index_t layers = capture.layers();
  // Parallel across layers: assemble the global factors — bitwise equal to
  // the modeled allgather result — and invert each layer's kernel, on
  // disjoint per-layer candidates. The pipeline charges the collectives
  // afterwards, serially, so the trace is unchanged by threading.
  std::vector<State> cand(static_cast<std::size_t>(layers));
  std::vector<double> inv_s(static_cast<std::size_t>(layers), 0.0);
  par::parallel_for(
      0, layers, 1,
      [&](index_t l0, index_t l1) {
        for (index_t l = l0; l < l1; ++l) {
          State& st = cand[static_cast<std::size_t>(l)];
          st.a_glob = vstack(capture.a[static_cast<std::size_t>(l)]);
          st.g_glob = vstack(capture.g[static_cast<std::size_t>(l)]);

          // Kernel inversion at global-batch dimension (step 3).
          WallTimer timer;
          const Matrix k = kernel_matrix(st.a_glob, st.g_glob);
          st.kernel_chol = damped_cholesky(k, cfg_.damping);
          inv_s[static_cast<std::size_t>(l)] = timer.seconds();
        }
      },
      "optim/sngd/layers",
      audit::Footprint([&](index_t l0, index_t l1, audit::WriteSet& ws) {
        ws.add_range(cand.data(), l0, l1);
        ws.add_range(inv_s.data(), l0, l1);
      }));
  book_inversions(comm, inv_s);

  std::vector<Candidate> out;
  out.reserve(static_cast<std::size_t>(layers));
  for (index_t l = 0; l < layers; ++l) {
    auto st =
        std::make_unique<State>(std::move(cand[static_cast<std::size_t>(l)]));
    Candidate c;
    const index_t m = st->a_glob.rows();
    c.owner_flops = flops::kernel(m, st->a_glob.cols(), st->g_glob.cols()) +
                    flops::cholesky(m);
    c.collectives = {
        Collective::allgather(capture.a[static_cast<std::size_t>(l)],
                              {&st->a_glob}),
        Collective::allgather(capture.g[static_cast<std::size_t>(l)],
                              {&st->g_glob}),
        // The inverted kernel: (P·m)² scalars.
        Collective::broadcast(st->a_glob.rows() * st->a_glob.rows(),
                              {&st->kernel_chol})};
    c.state = std::move(st);
    out.push_back(std::move(c));
  }
  return out;
}

// The exact SNGD kernel has no rank truncation, so energy_fraction stays NaN
// (not applicable).
void Sngd::probe_layer(index_t layer, const CaptureSet& /*capture*/,
                       obs::LayerHealth& h) const {
  const State& st = served<State>(layer);
  h.cond = obs::cond_from_cholesky(st.kernel_chol);
  h.nonfinite = obs::count_nonfinite(st.a_glob) +
                obs::count_nonfinite(st.g_glob) +
                obs::count_nonfinite(st.kernel_chol);
}

Matrix Sngd::preconditioned(const Matrix& grad, index_t layer) const {
  HYLO_CHECK(layer_ready(layer),
             "SNGD layer " << layer << " has no curvature yet");
  const State& st = served<State>(layer);
  const Matrix uv = apply_jacobian(st.a_glob, st.g_glob, grad);
  const Matrix y = cholesky_solve(st.kernel_chol, uv);
  Matrix out = grad - apply_jacobian_t(st.a_glob, st.g_glob, y);
  out *= 1.0 / cfg_.damping;
  return out;
}

void Sngd::precondition_block(ParamBlock& pb, index_t layer) {
  pb.gw = preconditioned(pb.gw, layer);
}

void Sngd::State::serialize(ckpt::Archive ar) {
  ar(a_glob, "a_glob");
  ar(g_glob, "g_glob");
  ar(kernel_chol, "kernel_chol");
}

}  // namespace hylo
