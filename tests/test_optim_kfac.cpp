// KFAC-family baselines: factor accumulation, preconditioning formulas,
// EKFAC eigenbasis rescaling, KBFGS inverse behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/eigh.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/obs/trace.hpp"
#include "hylo/optim/kfac.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
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

// ---- Refresh kernels, bit for bit --------------------------------------

std::vector<kern::Tier> available_tiers() {
  std::vector<kern::Tier> out;
  for (const kern::Tier t : {kern::Tier::kScalar, kern::Tier::kNeon,
                             kern::Tier::kAvx2, kern::Tier::kAvx512})
    if (kern::available(t)) out.push_back(t);
  return out;
}

// Restores the ambient kernel tier and thread count.
struct TierGuard {
  kern::Tier tier = kern::active();
  ~TierGuard() {
    kern::set_tier(tier);
    par::set_num_threads(0);
  }
};

// The running factor as KFAC computed it before its one-pass kernel: each
// rank's gram_tn, added in rank order, times 1/m, blended with an explicit
// fma (what the Release build contracts axpy's a += alpha·b to).
Matrix reference_factor(const std::vector<Matrix>& ranks, const Matrix* old,
                        real_t decay) {
  Matrix f = gram_tn(ranks[0]);
  index_t m = ranks[0].rows();
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    f += gram_tn(ranks[r]);
    m += ranks[r].rows();
  }
  f *= 1.0 / static_cast<real_t>(m);
  if (old != nullptr)
    for (index_t i = 0; i < f.size(); ++i)
      f[i] = std::fma(1.0 - decay, f[i], (*old)[i] * decay);
  return f;
}

// Rank captures with a dead (all +0.0) column 2 and -0.0 in column 4.
std::vector<Matrix> rank_captures(Rng& rng, index_t ranks, index_t m,
                                  index_t n) {
  std::vector<Matrix> out;
  for (index_t r = 0; r < ranks; ++r) {
    Matrix a = testutil::random_matrix(rng, m, n);
    for (index_t i = 0; i < m; ++i) {
      if (n > 2) a(i, 2) = 0.0;
      if (n > 4 && i % 2 == 0) a(i, 4) = -0.0;
    }
    out.push_back(std::move(a));
  }
  return out;
}

TEST(RunningFactor, EqualsPerRankGramsAddedScaledAndBlendedBitwise) {
  TierGuard guard;
  Rng rng(2901);
  for (const index_t n : {1, 7, 8, 9, 15, 16, 17, 109, 433})
    for (const index_t m : {1, 7, 16, 33})
      for (index_t ranks = 1; ranks <= 4; ++ranks) {
        const std::vector<Matrix> caps = rank_captures(rng, ranks, m, n);
        const Matrix old =
            reference_factor(rank_captures(rng, ranks, m, n), nullptr, 0.0);
        for (const kern::Tier tier : available_tiers()) {
          kern::set_tier(tier);
          par::set_num_threads(tier == kern::Tier::kScalar ? 1 : 3);
          const std::string where = std::string(kern::tier_name(tier)) +
                                    " n=" + std::to_string(n) +
                                    " m=" + std::to_string(m) +
                                    " ranks=" + std::to_string(ranks);
          EXPECT_TRUE(testutil::bitwise_equal(
              running_factor(caps, nullptr, 0.95),
              reference_factor(caps, nullptr, 0.95)))
              << where << " first refresh";
          EXPECT_TRUE(testutil::bitwise_equal(
              running_factor(caps, &old, 0.95),
              reference_factor(caps, &old, 0.95)))
              << where << " blended";
        }
      }
}

// Five refreshes of one layer on a fixed capture sequence: the served factors
// equal the reference running factor, and KFAC's inverses equal a damped
// try_cholesky followed by the copying inverse (test_cholesky.cpp keeps the
// same reference), bit for bit in every tier.
struct ServedKFac : KFac {
  using KFac::KFac;
  using KFac::State;
  const State& state() const { return served<State>(0); }
};
struct ServedEKFac : EKFac {
  using EKFac::EKFac;
  using EKFac::State;
  const State& state() const { return served<State>(0); }
};
struct ServedKBfgs : KBfgs {
  using KBfgs::KBfgs;
  using KBfgs::State;
  const State& state() const { return served<State>(0); }
};

void copying_invert_lower(Matrix& x, index_t r0, index_t r1) {
  const index_t n = r1 - r0;
  if (n <= kCholeskyPanel) {
    for (index_t j = r0; j < r1; ++j) {
      x(j, j) = 1.0 / x(j, j);
      for (index_t i = j + 1; i < r1; ++i) {
        const real_t* xi = x.row_ptr(i);
        real_t acc = 0.0;
        for (index_t k = j; k < i; ++k) acc += xi[k] * x(k, j);
        x(i, j) = -acc / xi[i];
      }
    }
    return;
  }
  const index_t mid = r0 + n / 2;
  copying_invert_lower(x, r0, mid);
  copying_invert_lower(x, mid, r1);
  auto block = [&x](index_t i0, index_t i1, index_t j0, index_t j1) {
    Matrix b(i1 - i0, j1 - j0);
    for (index_t i = i0; i < i1; ++i)
      std::copy(x.row_ptr(i) + j0, x.row_ptr(i) + j1, b.row_ptr(i - i0));
    return b;
  };
  const Matrix t = matmul(block(mid, r1, r0, mid), block(r0, mid, r0, mid));
  Matrix x21;
  gemm(block(mid, r1, mid, r1), t, x21, -1.0);
  for (index_t i = mid; i < r1; ++i)
    std::copy(x21.row_ptr(i - mid), x21.row_ptr(i - mid) + (mid - r0),
              x.row_ptr(i) + r0);
}

Matrix reference_damped_inverse(const Matrix& f, real_t damping) {
  Matrix work = f;
  add_diagonal(work, damping);
  Matrix l;
  EXPECT_TRUE(try_cholesky(work, l));
  copying_invert_lower(l, 0, l.rows());
  return gram_tn_tril(l);
}

TEST(RunningFactor, KfacFamilyServesTheReferenceAfterFiveRefreshes) {
  TierGuard guard;
  const index_t world = 4, m = 16, din = 109, dout = 24, refreshes = 5;
  Rng rng(2902);
  std::vector<CaptureSet> seq;
  for (index_t t = 0; t < refreshes; ++t)
    seq.push_back(make_capture(rng, world, m, din, dout));
  OptimConfig cfg;
  cfg.stat_decay = 0.95;
  cfg.damping = 0.03;
  for (const kern::Tier tier : available_tiers()) {
    kern::set_tier(tier);
    const std::string where = kern::tier_name(tier);
    ServedKFac kfac(cfg);
    ServedEKFac ekfac(cfg);
    ServedKBfgs kbfgs(cfg);
    ParamBlock pb;
    Matrix want_a, want_g;
    for (index_t t = 0; t < refreshes; ++t) {
      const CaptureSet& cap = seq[static_cast<std::size_t>(t)];
      for (CurvatureOptimizer* opt :
           std::initializer_list<CurvatureOptimizer*>{&kfac, &ekfac, &kbfgs}) {
        CommSim comm(world, loopback());
        opt->update_curvature({&pb}, cap, &comm);
      }
      want_a = reference_factor(cap.a[0], t == 0 ? nullptr : &want_a, 0.95);
      want_g = reference_factor(cap.g[0], t == 0 ? nullptr : &want_g, 0.95);
    }
    for (const auto& [name, a, g] :
         {std::tuple{"KFAC", &kfac.state().a_factor, &kfac.state().g_factor},
          std::tuple{"EKFAC", &ekfac.state().a_factor, &ekfac.state().g_factor},
          std::tuple{"KBFGS-L", &kbfgs.state().a_factor,
                     &kbfgs.state().g_factor}}) {
      EXPECT_TRUE(testutil::bitwise_equal(*a, want_a)) << name << " " << where;
      EXPECT_TRUE(testutil::bitwise_equal(*g, want_g)) << name << " " << where;
    }
    const real_t pi = std::sqrt((trace(want_a) / static_cast<real_t>(din)) /
                                (trace(want_g) / static_cast<real_t>(dout)));
    const real_t root = std::sqrt(cfg.damping);
    EXPECT_TRUE(testutil::bitwise_equal(
        kfac.state().a_inv, reference_damped_inverse(want_a, pi * root)))
        << where;
    EXPECT_TRUE(testutil::bitwise_equal(
        kfac.state().g_inv, reference_damped_inverse(want_g, root / pi)))
        << where;
  }
}

TEST(DampedInverse, EscalationMatchesTheDampedCopyBitwise) {
  Rng rng(2903);
  // Singular PSD: 1e-300 fails, so the diagonal takes several escalations.
  const Matrix c = gram_nt(testutil::random_matrix(rng, 40, 3));
  Matrix work = c, want;
  const real_t scale =
      1e-8 * (std::abs(trace(c)) / static_cast<real_t>(c.rows()) + 1.0);
  real_t added = 0.0, next = 1e-300;
  int attempts = 0;
  for (; attempts < 4; ++attempts) {
    add_diagonal(work, next - added);
    added = next;
    if (try_cholesky(work, want)) break;
    next = std::max(next * 10.0, scale);
  }
  ASSERT_GT(attempts, 0);
  ASSERT_LT(attempts, 4);
  EXPECT_TRUE(testutil::bitwise_equal(damped_cholesky(c, 1e-300), want));
}

// ---- The commit gate ----------------------------------------------------

// A one-matrix curvature method whose refresh serves `next`, to drive the
// commit gate with chosen values.
struct GateProbe : CurvatureOptimizer {
  struct State final : LayerState {
    Matrix m;
    std::vector<const Matrix*> guarded() const override { return {&m}; }
    index_t scalars() const override { return m.size(); }
    double precondition_flops() const override { return 0.0; }
    void serialize(ckpt::Archive ar) override { ar(m, "m"); }
  };
  Matrix next;
  GateProbe() : CurvatureOptimizer(OptimConfig{}, "probe") {}
  std::string name() const override { return "probe"; }
  std::vector<Candidate> build(const CaptureSet& /*capture*/,
                               CommSim* /*comm*/) override {
    auto st = std::make_unique<State>();
    st->m = next;
    std::vector<Candidate> out(1);
    out[0].state = std::move(st);
    return out;
  }
  std::unique_ptr<LayerState> make_state() const override {
    return std::make_unique<State>();
  }
  void precondition_block(ParamBlock& /*pb*/, index_t /*layer*/) override {}
  void probe_layer(index_t /*layer*/, const CaptureSet& /*capture*/,
                   obs::LayerHealth& /*h*/) const override {}
};

// The gate's two-scan form: count_nonfinite, then frobenius_norm.
std::string reference_reason(const Matrix& next, const Matrix& served) {
  if (obs::count_nonfinite(next) > 0) return "non_finite";
  const real_t norm = frobenius_norm(next);
  if (norm > 1e30) return "abs_norm";
  const real_t before = frobenius_norm(served);
  if (before > 0.0 && norm > 1e6 * before) return "norm_ratio";
  return "";
}

TEST(CommitGate, OnePassDecidesAsCountThenNorm) {
  TierGuard guard;
  Rng rng(2904);
  const Matrix base = testutil::random_matrix(rng, 37, 29);
  const real_t inf = std::numeric_limits<real_t>::infinity();
  std::vector<std::pair<std::string, Matrix>> cases;
  cases.emplace_back("clean", base * 3.0);
  for (const real_t bad :
       {std::numeric_limits<real_t>::quiet_NaN(), inf, -inf}) {
    Matrix m = base;
    m(36, 28) = bad;
    cases.emplace_back("non-finite " + std::to_string(bad), m);
  }
  cases.emplace_back("1e160 entries", Matrix(37, 29, 1e160));
  // Ratios 1e6·(1 ± 1e-9) of the served norm.
  for (const real_t r : {1.0 + 1e-9, 1.0 - 1e-9})
    cases.emplace_back("ratio " + std::to_string(r), base * (1e6 * r));
  for (const kern::Tier tier : available_tiers()) {
    kern::set_tier(tier);
    for (const bool served_gated : {true, false})
      for (const auto& [label, next] : cases) {
        GateProbe opt;
        ParamBlock pb;
        CaptureSet cap;
        cap.a.resize(1);
        cap.g.resize(1);
        obs::TraceBuffer trace;
        CommSim comm(1, loopback());
        comm.set_trace(&trace);
        // The served state committed through the gate (its norm kept) or
        // without a communicator (scanned when the next refresh needs it).
        opt.next = base;
        opt.update_curvature({&pb}, cap, served_gated ? &comm : nullptr);
        opt.next = next;
        opt.update_curvature({&pb}, cap, &comm);
        std::string reason;
        for (std::size_t i = 0; i < trace.size(); ++i)
          if (trace.event(i).name == "guard_reject")
            reason = trace.event(i).args.at("reason").str();
        const std::string where = std::string(kern::tier_name(tier)) + " " +
                                  label + (served_gated ? " gated" : "");
        EXPECT_EQ(reason, reference_reason(next, base)) << where;
        EXPECT_EQ(opt.layer_staleness(0), reason.empty() ? 0 : 1) << where;
        EXPECT_EQ(comm.profiler().registry().counter_value(
                      "optim/probe/guard_rejects"),
                  reason.empty() ? 0 : 1)
            << where;
        EXPECT_GT(comm.profiler().seconds("comp/commit_gate"), 0.0) << where;
      }
  }
}

}  // namespace
}  // namespace hylo
