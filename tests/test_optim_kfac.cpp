// KFAC-family baselines: factor accumulation, preconditioning formulas,
// EKFAC eigenbasis rescaling, KBFGS inverse behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/eigh.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/optim/kfac.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

CaptureSet make_capture(Rng& rng, index_t world, index_t m, index_t din,
                        index_t dout) {
  CaptureSet cap;
  cap.a.resize(1);
  cap.g.resize(1);
  for (index_t r = 0; r < world; ++r) {
    cap.a[0].push_back(testutil::random_matrix(rng, m, din));
    cap.g[0].push_back(testutil::random_matrix(rng, m, dout));
  }
  return cap;
}

// Exposes the served running input factor E[aaᵀ] of a layer.
struct TestKFac : KFac {
  using KFac::KFac;
  const Matrix& a_factor(index_t layer) const {
    return served<State>(layer).a_factor;
  }
};

TEST(KFac, PreconditionMatchesManualFormula) {
  Rng rng(1);
  const index_t m = 12, din = 5, dout = 4;
  const CaptureSet cap = make_capture(rng, 1, m, din, dout);

  OptimConfig cfg;
  cfg.damping = 0.1;
  cfg.stat_decay = 0.0;  // factors = this capture exactly

  // Expose the precondition hook through a minimal subclass.
  struct TestKFac : KFac {
    using KFac::KFac;
    using KFac::layer_ready;
    using KFac::precondition_block;
  };
  TestKFac opt(cfg);
  ParamBlock pb;
  CommSim comm(1, loopback());
  opt.update_curvature({&pb}, cap, &comm);
  ASSERT_TRUE(opt.layer_ready(0));

  const Matrix grad = testutil::random_matrix(rng, dout, din);
  pb.gw = grad;
  opt.precondition_block(pb, 0);

  // Manual: C1 = AᵀA/m, C2 = GᵀG/m, π-corrected damping, pg = C2⁻¹ g C1⁻¹.
  Matrix c1 = gram_tn(cap.a[0][0]) * (1.0 / static_cast<real_t>(m));
  Matrix c2 = gram_tn(cap.g[0][0]) * (1.0 / static_cast<real_t>(m));
  const real_t pi = std::sqrt((trace(c1) / static_cast<real_t>(din)) /
                              (trace(c2) / static_cast<real_t>(dout)));
  add_diagonal(c1, pi * std::sqrt(cfg.damping));
  add_diagonal(c2, std::sqrt(cfg.damping) / pi);
  const Matrix want = matmul(spd_inverse(c2), matmul(grad, spd_inverse(c1)));
  EXPECT_LT(max_abs_diff(pb.gw, want), 1e-8);
}

TEST(KFac, FactorsAverageAcrossWorkers) {
  // Factors from a world=2 capture equal those from the stacked global
  // batch: (A1ᵀA1 + A2ᵀA2)/(2m) == AᵀA/(2m).
  Rng rng(2);
  const CaptureSet cap = make_capture(rng, 2, 8, 5, 4);
  OptimConfig cfg;
  cfg.stat_decay = 0.0;
  TestKFac opt(cfg);
  ParamBlock pb;
  CommSim comm(2, loopback());
  opt.update_curvature({&pb}, cap, &comm);

  std::vector<Matrix> ap(cap.a[0].begin(), cap.a[0].end());
  const Matrix want = gram_tn(vstack(ap)) * (1.0 / 16.0);
  EXPECT_LT(max_abs_diff(opt.a_factor(0), want), 1e-10);
}

TEST(KFac, StatDecayBlendsOldAndNew) {
  Rng rng(3);
  OptimConfig cfg;
  cfg.stat_decay = 0.5;
  TestKFac opt(cfg);
  ParamBlock pb;
  CommSim comm(1, loopback());
  const CaptureSet cap1 = make_capture(rng, 1, 8, 4, 3);
  const CaptureSet cap2 = make_capture(rng, 1, 8, 4, 3);
  opt.update_curvature({&pb}, cap1, &comm);
  const Matrix f1 = opt.a_factor(0);
  opt.update_curvature({&pb}, cap2, &comm);
  const Matrix f2_new = gram_tn(cap2.a[0][0]) * (1.0 / 8.0);
  const Matrix want = f1 * 0.5 + f2_new * 0.5;
  EXPECT_LT(max_abs_diff(opt.a_factor(0), want), 1e-10);
}

TEST(KFac, ChargesFactorAllreduceAndInverseBroadcast) {
  Rng rng(4);
  OptimConfig cfg;
  KFac opt(cfg);
  ParamBlock pb;
  CommSim comm(8, mist_v100());
  opt.update_curvature({&pb}, make_capture(rng, 8, 4, 6, 5), &comm);
  EXPECT_GT(comm.profiler().seconds("comm/gather"), 0.0);
  EXPECT_GT(comm.profiler().seconds("comm/broadcast"), 0.0);
  EXPECT_GT(comm.profiler().seconds("comp/factorization"), 0.0);
  EXPECT_GT(comm.profiler().seconds("comp/inversion"), 0.0);
}

TEST(EKFac, MatchesManualEigenbasisFormula) {
  Rng rng(5);
  const index_t m = 10, din = 4, dout = 3;
  const CaptureSet cap = make_capture(rng, 1, m, din, dout);
  OptimConfig cfg;
  cfg.damping = 0.05;
  cfg.stat_decay = 0.0;
  struct TestEKFac : EKFac {
    using EKFac::EKFac;
    using EKFac::layer_ready;
    using EKFac::precondition_block;
  };
  TestEKFac opt(cfg);
  ParamBlock pb;
  CommSim comm(1, loopback());
  opt.update_curvature({&pb}, cap, &comm);
  ASSERT_TRUE(opt.layer_ready(0));

  const Matrix grad = testutil::random_matrix(rng, dout, din);
  pb.gw = grad;
  opt.precondition_block(pb, 0);

  // Manual reference.
  const Matrix& a = cap.a[0][0];
  const Matrix& g = cap.g[0][0];
  const Matrix va = eigh(gram_tn(a) * (1.0 / static_cast<real_t>(m))).eigenvectors;
  const Matrix vg = eigh(gram_tn(g) * (1.0 / static_cast<real_t>(m))).eigenvectors;
  Matrix pa = matmul(a, va), pg = matmul(g, vg);
  hadamard_inplace(pa, pa);
  hadamard_inplace(pg, pg);
  const Matrix s = matmul_tn(pg, pa) * (1.0 / static_cast<real_t>(m));
  Matrix t = matmul(matmul_tn(vg, grad), va);
  for (index_t i = 0; i < t.rows(); ++i)
    for (index_t j = 0; j < t.cols(); ++j) t(i, j) /= s(i, j) + cfg.damping;
  const Matrix want = matmul_nt(matmul(vg, t), va);
  EXPECT_LT(max_abs_diff(pb.gw, want), 1e-7);
}

TEST(EKFac, ExactDiagonalRescalingBeatsKfacOnFisherDiagonal) {
  // EKFAC's scalings are the *exact* second moments in the eigenbasis — on
  // the basis directions themselves its implied curvature matches the true
  // Fisher diagonal there, KFAC's Kronecker product generally doesn't.
  // Sanity-level check: preconditioners differ.
  Rng rng(6);
  const CaptureSet cap = make_capture(rng, 1, 10, 4, 3);
  OptimConfig cfg;
  cfg.stat_decay = 0.0;
  struct TK : KFac {
    using KFac::KFac;
    using KFac::precondition_block;
  };
  struct TE : EKFac {
    using EKFac::EKFac;
    using EKFac::precondition_block;
  };
  TK kfac(cfg);
  TE ekfac(cfg);
  ParamBlock p1, p2;
  CommSim c1(1, loopback()), c2(1, loopback());
  kfac.update_curvature({&p1}, cap, &c1);
  ekfac.update_curvature({&p2}, cap, &c2);
  const Matrix grad = testutil::random_matrix(rng, 3, 4);
  p1.gw = grad;
  p2.gw = grad;
  kfac.precondition_block(p1, 0);
  ekfac.precondition_block(p2, 0);
  EXPECT_GT(max_abs_diff(p1.gw, p2.gw), 1e-6);
}

TEST(EKFac, NonFiniteCaptureDegradesOnlyThatLayerToStale) {
  // One NaN in one layer's capture poisons that layer's factors (and, via
  // eigh's non-finite contract, its eigenbasis). The commit gate rejects
  // the candidate; the layer keeps serving its previous state while every
  // other layer commits.
  struct TestEKFac : EKFac {
    using EKFac::EKFac;
    using EKFac::State;
    const State& state(index_t layer) const { return served<State>(layer); }
  };
  const index_t layers = 3, poisoned = 1;
  Rng rng(10);
  auto capture = [&] {
    CaptureSet cap;
    cap.a.resize(layers);
    cap.g.resize(layers);
    for (index_t l = 0; l < layers; ++l) {
      cap.a[l].push_back(testutil::random_matrix(rng, 12, 5 + l));
      cap.g[l].push_back(testutil::random_matrix(rng, 12, 4));
    }
    return cap;
  };
  OptimConfig cfg;
  TestEKFac opt(cfg);
  std::vector<ParamBlock> pbs(layers);
  std::vector<ParamBlock*> blocks;
  for (ParamBlock& pb : pbs) blocks.push_back(&pb);
  CommSim comm(1, loopback());
  opt.update_curvature(blocks, capture(), &comm);
  std::vector<TestEKFac::State> before;
  for (index_t l = 0; l < layers; ++l) before.push_back(opt.state(l));

  CaptureSet cap = capture();
  cap.a[poisoned][0](3, 2) = std::numeric_limits<real_t>::quiet_NaN();
  opt.update_curvature(blocks, cap, &comm);

  const auto& reg = comm.profiler().registry();
  EXPECT_EQ(reg.counter_value("optim/ekfac/guard_rejects"), 1);
  EXPECT_EQ(reg.counter_value("optim/ekfac/stale_refreshes"), 1);
  for (index_t l = 0; l < layers; ++l) {
    const TestEKFac::State& now = opt.state(l);
    if (l == poisoned) {
      EXPECT_EQ(opt.layer_staleness(l), 1);
      EXPECT_EQ(max_abs_diff(now.a_factor, before[l].a_factor), 0.0);
      EXPECT_EQ(max_abs_diff(now.v_a, before[l].v_a), 0.0);
      EXPECT_EQ(max_abs_diff(now.v_g, before[l].v_g), 0.0);
      EXPECT_EQ(max_abs_diff(now.scaling, before[l].scaling), 0.0);
    } else {
      EXPECT_EQ(opt.layer_staleness(l), 0) << "layer " << l;
      EXPECT_GT(max_abs_diff(now.a_factor, before[l].a_factor), 0.0)
          << "layer " << l << " did not commit";
      EXPECT_EQ(obs::count_nonfinite(now.v_a) + obs::count_nonfinite(now.v_g),
                0);
    }
  }
}

TEST(KBfgs, BuildsPairsAndPreconditions) {
  Rng rng(7);
  OptimConfig cfg;
  cfg.stat_decay = 0.0;
  struct TB : KBfgs {
    using KBfgs::KBfgs;
    using KBfgs::layer_ready;
    using KBfgs::precondition_block;
  };
  TB opt(cfg);
  ParamBlock pb;
  CommSim comm(1, loopback());
  // Two captures give one (s, y) pair.
  opt.update_curvature({&pb}, make_capture(rng, 1, 8, 5, 4), &comm);
  opt.update_curvature({&pb}, make_capture(rng, 1, 8, 5, 4), &comm);
  ASSERT_TRUE(opt.layer_ready(0));
  const Matrix grad = testutil::random_matrix(rng, 4, 5);
  pb.gw = grad;
  opt.precondition_block(pb, 0);
  EXPECT_GT(max_abs_diff(pb.gw, grad), 0.0);
  for (index_t i = 0; i < pb.gw.size(); ++i)
    EXPECT_TRUE(std::isfinite(pb.gw.data()[i]));
  EXPECT_GT(opt.state_bytes(), 0);
}

TEST(KBfgs, MemoryIsBounded) {
  Rng rng(8);
  OptimConfig cfg;
  cfg.bfgs_memory = 3;
  KBfgs opt(cfg);
  ParamBlock pb;
  CommSim comm(1, loopback());
  for (int it = 0; it < 10; ++it)
    opt.update_curvature({&pb}, make_capture(rng, 1, 8, 5, 4), &comm);
  index_t bytes_after_10 = opt.state_bytes();
  for (int it = 0; it < 10; ++it)
    opt.update_curvature({&pb}, make_capture(rng, 1, 8, 5, 4), &comm);
  // Pair deque is capped: state stops growing.
  EXPECT_EQ(opt.state_bytes(), bytes_after_10);
}

TEST(CurvatureBase, CaptureSchedule) {
  OptimConfig cfg;
  cfg.update_freq = 5;
  KFac opt(cfg);
  EXPECT_TRUE(opt.needs_capture(0));
  EXPECT_FALSE(opt.needs_capture(3));
  EXPECT_TRUE(opt.needs_capture(10));
  cfg.update_freq = 1;
  KFac every(cfg);
  EXPECT_TRUE(every.needs_capture(7));
}

TEST(DampedInverse, EscalatesUntilPd) {
  Rng rng(9);
  // Singular PSD matrix; tiny initial damping forces at least one retry.
  Matrix m = gram_nt(testutil::random_matrix(rng, 6, 2));
  const Matrix inv = damped_spd_inverse(m, 1e-300);
  for (index_t i = 0; i < inv.size(); ++i)
    EXPECT_TRUE(std::isfinite(inv.data()[i]));
}

}  // namespace
}  // namespace hylo
