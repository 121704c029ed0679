// hylo::audit checked-execution contract. Three layers are pinned here:
// (1) the auditor itself — a deliberately-overlapping write-set declaration
// is caught (label + chunk ids in the diagnostic), a sampled
// out-of-declaration write is caught, a correctly-declared disjoint region
// passes with zero violations, and `audit::unchecked` opts out; (2) audit
// mode changes no numerics — checked serial execution is bitwise identical
// to the parallel path; (3) the `replay_check` determinism harness over the
// GEMM/conv/KID/KIS/SNGD hot paths, which must pass on the real kernels and
// fail on a synthetic thread-count-dependent region.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hylo/audit/audit.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/nn/layers.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/nn/network.hpp"
#include "hylo/obs/metrics.hpp"
#include "hylo/optim/hylo_optimizer.hpp"
#include "hylo/optim/sngd.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/ops.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

// Audit mode on for the fixture, restored afterwards; pool restored to the
// environment default so no thread-count change leaks across tests.
class Audit : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = audit::set_enabled(true);
    audit::reset_stats();
  }
  void TearDown() override {
    audit::set_enabled(was_enabled_);
    par::set_num_threads(0);
  }
  bool was_enabled_ = false;
};

using testutil::bitwise_equal;

TEST_F(Audit, OverlappingDeclarationIsCaughtWithLabelAndChunks) {
  Matrix m(16, 4);
  try {
    par::parallel_for(
        0, 16, 1,
        [&](index_t b, index_t e) {
          for (index_t i = b; i < e; ++i) m(i, 0) = 1.0;
        },
        "test/overlap",
        // Broken on purpose: every chunk declares the whole matrix.
        audit::Footprint([&m](index_t, index_t, audit::WriteSet& ws) {
          ws.add_rows(m, 0, m.rows());
        }));
    FAIL() << "overlap should have been reported";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("write-set overlap"), std::string::npos) << what;
    EXPECT_NE(what.find("test/overlap"), std::string::npos) << what;
    EXPECT_NE(what.find("chunk 0"), std::string::npos) << what;
    EXPECT_NE(what.find("chunk 1"), std::string::npos) << what;
  }
  EXPECT_EQ(audit::violations(), 1);
}

TEST_F(Audit, OutOfDeclarationWriteIsCaught) {
  // Declared: the chunk's own rows. Actual: every chunk also stomps row 0,
  // so any chunk not owning row 0 writes outside its declaration. The
  // matrix is far below the sampling cap, so verification is byte-exact
  // and detection deterministic.
  Matrix m(16, 4);
  try {
    par::parallel_for(
        0, 16, 1,
        [&](index_t b, index_t e) {
          for (index_t i = b; i < e; ++i) m(i, 1) = 1.0;
          m(0, 0) += 1.0;  // the race: all chunks write row 0
        },
        "test/escape", audit::row_block(m));
    FAIL() << "out-of-declaration write should have been reported";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("out-of-declaration write"), std::string::npos) << what;
    EXPECT_NE(what.find("test/escape"), std::string::npos) << what;
    EXPECT_NE(what.find("chunk"), std::string::npos) << what;
  }
  EXPECT_GE(audit::violations(), 1);
}

TEST_F(Audit, DisjointDeclarationPassesWithZeroViolations) {
  Rng rng(5);
  const Matrix a = testutil::random_matrix(rng, 33, 17);
  const Matrix b = testutil::random_matrix(rng, 17, 29);
  EXPECT_NO_THROW({
    const Matrix c = matmul(a, b);
    const Matrix k = gram_nt(a);
    const Matrix g = gram_tn(a);
    (void)c;
    (void)k;
    (void)g;
  });
  EXPECT_EQ(audit::violations(), 0);
  EXPECT_GE(audit::checked_regions(), 3);
}

TEST_F(Audit, UncheckedTagOptsOut) {
  // The same overlapping writes as above, but explicitly tagged unchecked:
  // the region must run on the normal (parallel) path and report nothing.
  std::vector<real_t> sink(16, 0.0);
  EXPECT_NO_THROW(par::parallel_for(
      0, 16, 1,
      [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i)
          sink[static_cast<std::size_t>(i)] = 1.0;
      },
      "test/unchecked", audit::unchecked("negative test: intentional opt-out")));
  EXPECT_EQ(audit::violations(), 0);
}

TEST_F(Audit, CheckedExecutionIsBitwiseIdenticalToParallel) {
  Rng rng(11);
  const Matrix a = testutil::random_matrix(rng, 67, 41);
  const Matrix b = testutil::random_matrix(rng, 41, 53);

  audit::set_enabled(false);
  par::set_num_threads(7);
  const Matrix c_par = matmul(a, b);
  const Matrix k_par = gram_nt(a);

  audit::set_enabled(true);
  const Matrix c_chk = matmul(a, b);
  const Matrix k_chk = gram_nt(a);
  EXPECT_TRUE(bitwise_equal(c_par, c_chk));
  EXPECT_TRUE(bitwise_equal(k_par, k_chk));
  EXPECT_EQ(audit::violations(), 0);
}

TEST_F(Audit, ExportMetricsPublishesCountersWithoutDoubleCounting) {
  Matrix m(8, 2);
  par::parallel_for(
      0, 8, 1,
      [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) m(i, 0) = 1.0;
      },
      "test/export", audit::row_block(m));
  obs::MetricsRegistry reg;
  audit::export_metrics(reg);
  EXPECT_EQ(reg.counter_value("audit/violations"), 0);
  EXPECT_GE(reg.counter_value("audit/checked_regions"), 1);
  audit::export_metrics(reg);
  EXPECT_GE(reg.counter_value("audit/checked_regions"), 1);
  EXPECT_EQ(reg.counter_value("audit/checked_regions"),
            audit::checked_regions());
}

// ---- replay_check: the determinism harness over the hot paths -----------

TEST_F(Audit, ReplayCheckPassesOnGemmFamily) {
  Rng rng(7);
  const Matrix a = testutil::random_matrix(rng, 67, 41);
  const Matrix b = testutil::random_matrix(rng, 41, 53);
  const Matrix bt = testutil::random_matrix(rng, 53, 41);
  const Matrix at = testutil::random_matrix(rng, 41, 67);
  EXPECT_NO_THROW(audit::replay_check("replay/gemm", [&] { return matmul(a, b); }));
  EXPECT_NO_THROW(
      audit::replay_check("replay/gemm_tn", [&] { return matmul_tn(at, b); }));
  EXPECT_NO_THROW(
      audit::replay_check("replay/gemm_nt", [&] { return matmul_nt(a, bt); }));
  EXPECT_NO_THROW(
      audit::replay_check("replay/gram_nt", [&] { return gram_nt(a); }));
  EXPECT_NO_THROW(
      audit::replay_check("replay/gram_tn", [&] { return gram_tn(a); }));
  EXPECT_NO_THROW(audit::replay_check("replay/khatri_rao",
                                      [&] { return khatri_rao_rowwise(a, a); }));
  EXPECT_NO_THROW(
      audit::replay_check("replay/hadamard", [&] { return hadamard(a, a); }));
  EXPECT_EQ(audit::violations(), 0);
  EXPECT_GE(audit::replays(), 7);
}

TEST_F(Audit, ReplayCheckPassesOnConv2dForwardBackward) {
  auto run = [] {
    Rng wrng(21);
    Network net("audit_conv");
    int x = net.add_input({2, 6, 6});
    x = net.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    x = net.add(std::make_unique<ReLU>(), x);
    net.add(std::make_unique<Linear>(3, wrng), x);

    Rng rng(22);
    Tensor4 in(5, 2, 6, 6);
    for (index_t i = 0; i < in.size(); ++i) in[i] = rng.normal();
    const PassContext ctx{.training = true, .capture = true};
    net.zero_grad();
    const Tensor4& logits = net.forward(in, ctx);
    const LossResult lr =
        SoftmaxCrossEntropy().compute(logits, {0, 2, 1, 0, 2});
    net.backward(lr.grad, ctx);

    // Flatten everything the parallel passes produced into one matrix so a
    // single bitwise compare pins outputs, gradients and captures at once.
    std::vector<Matrix> parts;
    parts.push_back(logits.as_matrix());
    for (auto* pb : net.param_blocks()) {
      Matrix g = pb->gw;
      g.reshape(1, g.size());
      parts.push_back(std::move(g));
      Matrix as = pb->a_samples;
      as.reshape(1, as.size());
      parts.push_back(std::move(as));
      Matrix gs = pb->g_samples;
      gs.reshape(1, gs.size());
      parts.push_back(std::move(gs));
    }
    index_t cols = 0;
    for (auto& p : parts) cols = std::max(cols, p.cols());
    Matrix out(static_cast<index_t>(parts.size()), cols);
    for (std::size_t r = 0; r < parts.size(); ++r)
      for (index_t j = 0; j < parts[r].size(); ++j)
        out(static_cast<index_t>(r), j) = parts[r][j];
    return out;
  };
  EXPECT_NO_THROW(audit::replay_check("replay/conv2d", run));
  EXPECT_EQ(audit::violations(), 0);
}

CaptureSet make_capture(index_t layers, index_t world, index_t m, index_t din,
                        index_t dout) {
  Rng rng(31);
  CaptureSet cap;
  cap.a.resize(static_cast<std::size_t>(layers));
  cap.g.resize(static_cast<std::size_t>(layers));
  for (index_t l = 0; l < layers; ++l)
    for (index_t r = 0; r < world; ++r) {
      cap.a[static_cast<std::size_t>(l)].push_back(
          testutil::random_matrix(rng, m, din));
      cap.g[static_cast<std::size_t>(l)].push_back(
          testutil::random_matrix(rng, m, dout));
    }
  return cap;
}

// One full curvature refresh + preconditioning, all layers stacked into one
// matrix for the bitwise compare. Fresh optimizer each call so the rng
// stream starts identically at every thread count.
template <typename MakeOpt>
Matrix stacked_refresh(const MakeOpt& make_opt, const CaptureSet& cap,
                       const Matrix& grad) {
  auto& opt = make_opt();
  std::vector<ParamBlock> blocks(static_cast<std::size_t>(cap.layers()));
  std::vector<ParamBlock*> pbs;
  for (auto& b : blocks) pbs.push_back(&b);
  CommSim comm(cap.world(), loopback());
  opt.update_curvature(pbs, cap, &comm);
  std::vector<Matrix> out;
  for (index_t l = 0; l < cap.layers(); ++l)
    out.push_back(opt.preconditioned(grad, l));
  return vstack(out);
}

TEST_F(Audit, ReplayCheckPassesOnKidKisAndSngdRefresh) {
  const CaptureSet cap = make_capture(3, 2, 12, 9, 6);
  Rng rng(44);
  const Matrix grad = testutil::random_matrix(rng, 6, 9);

  for (const auto policy : {HyloOptimizer::Policy::kAlwaysKid,
                            HyloOptimizer::Policy::kAlwaysKis}) {
    OptimConfig cfg;
    cfg.damping = 0.3;
    cfg.rank_ratio = 0.5;
    std::unique_ptr<HyloOptimizer> holder;
    auto make = [&]() -> HyloOptimizer& {
      holder = std::make_unique<HyloOptimizer>(cfg);
      holder->set_policy(policy);
      holder->begin_epoch(0, false);
      return *holder;
    };
    EXPECT_NO_THROW(audit::replay_check(
        policy == HyloOptimizer::Policy::kAlwaysKid ? "replay/kid"
                                                    : "replay/kis",
        [&] { return stacked_refresh(make, cap, grad); }));
  }

  const CaptureSet scap = make_capture(3, 2, 10, 8, 5);
  const Matrix sgrad = testutil::random_matrix(rng, 5, 8);
  OptimConfig scfg;
  scfg.damping = 0.3;
  std::unique_ptr<Sngd> sngd;
  auto make_sngd = [&]() -> Sngd& {
    sngd = std::make_unique<Sngd>(scfg);
    return *sngd;
  };
  EXPECT_NO_THROW(audit::replay_check(
      "replay/sngd", [&] { return stacked_refresh(make_sngd, scap, sgrad); }));
  EXPECT_EQ(audit::violations(), 0);
}

TEST_F(Audit, ReplayCheckCatchesThreadCountDependence) {
  // A synthetic region whose result encodes the thread count must diverge.
  auto broken = [] {
    Matrix m(1, 1);
    m(0, 0) = static_cast<real_t>(par::num_threads());
    return m;
  };
  try {
    audit::replay_check("replay/broken", broken);
    FAIL() << "divergence should have been reported";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("replay divergence"), std::string::npos) << what;
    EXPECT_NE(what.find("replay/broken"), std::string::npos) << what;
  }
  EXPECT_GE(audit::violations(), 1);
}

TEST_F(Audit, DisabledModeRunsNothingChecked) {
  audit::set_enabled(false);
  audit::reset_stats();
  Rng rng(3);
  const Matrix a = testutil::random_matrix(rng, 20, 10);
  const Matrix b = testutil::random_matrix(rng, 10, 10);
  (void)matmul(a, b);
  EXPECT_EQ(audit::checked_regions(), 0);
  EXPECT_EQ(audit::violations(), 0);
}

}  // namespace
}  // namespace hylo
