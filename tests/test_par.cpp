// hylo::par determinism contract (DESIGN.md §8). Two layers of guarantees
// are pinned here: (1) the static partition itself — every index covered
// exactly once for adversarial range/grain/thread combinations, exceptions
// propagated, pool resizes safe; (2) bitwise identity of the parallelized
// numerics — GEMM variants, Gram kernels, conv2d passes and the full
// KID/KIS curvature refresh must produce byte-identical results at 1, 2 and
// 7 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

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

// Every test leaves the pool at the environment default so ordering between
// test binaries/cases cannot leak a thread-count change.
class Par : public ::testing::Test {
 protected:
  void TearDown() override { par::set_num_threads(0); }
};

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(real_t) * static_cast<std::size_t>(x.size())) == 0;
}

bool bitwise_equal(const Tensor4& x, const Tensor4& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(real_t) * static_cast<std::size_t>(x.size())) == 0;
}

TEST_F(Par, EveryIndexCoveredExactlyOnce) {
  // Adversarial combos: empty / single-element ranges, grains larger than
  // the range, ranges not divisible by grain or thread count, more chunks
  // than threads and vice versa.
  const index_t ranges[] = {0, 1, 2, 7, 13, 64, 65, 127, 1000};
  const index_t grains[] = {1, 3, 7, 64, 1000};
  for (const int threads : {1, 2, 3, 7}) {
    par::set_num_threads(threads);
    for (const index_t range : ranges) {
      for (const index_t grain : grains) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(range));
        for (auto& h : hits) h.store(0);
        par::parallel_for(
            0, range, grain,
            [&](index_t b, index_t e) {
              ASSERT_LE(0, b);
              ASSERT_LE(b, e);
              ASSERT_LE(e, range);
              for (index_t i = b; i < e; ++i)
                hits[static_cast<std::size_t>(i)].fetch_add(1);
            },
            "test/coverage");
        for (index_t i = 0; i < range; ++i)
          ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "range=" << range << " grain=" << grain
              << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST_F(Par, OffsetRangeAndChunkAlignment) {
  // Non-zero begin: chunk boundaries must stay inside [begin, end) and be
  // grain-aligned relative to begin (except the final partial chunk).
  par::set_num_threads(7);
  const index_t begin = 11, end = 97, grain = 4;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(end - begin));
  for (auto& h : hits) h.store(0);
  par::parallel_for(
      begin, end, grain,
      [&](index_t b, index_t e) {
        EXPECT_EQ((b - begin) % grain, 0);
        for (index_t i = b; i < e; ++i)
          hits[static_cast<std::size_t>(i - begin)].fetch_add(1);
      },
      "test/offset");
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(Par, ExceptionPropagatesAndPoolSurvives) {
  par::set_num_threads(4);
  EXPECT_THROW(
      par::parallel_for(
          0, 1000, 1,
          [&](index_t b, index_t) {
            if (b >= 500) throw Error("chunk failure");
          },
          "test/throw"),
      Error);
  // The pool must still work after an exception unwound a job.
  std::atomic<index_t> sum{0};
  par::parallel_for(
      0, 100, 1, [&](index_t b, index_t e) { sum.fetch_add(e - b); },
      "test/after_throw");
  EXPECT_EQ(sum.load(), 100);
}

TEST_F(Par, NestedParallelForRunsInline) {
  par::set_num_threads(4);
  std::atomic<int> outer_chunks{0};
  par::parallel_for(
      0, 8, 1,
      [&](index_t b, index_t e) {
        outer_chunks.fetch_add(1);
        // The nested loop must run inline on this participant: its chunks
        // land on the calling thread, covering the inner range exactly once.
        std::vector<int> inner(16, 0);
        par::parallel_for(
            0, 16, 1,
            [&](index_t ib, index_t ie) {
              for (index_t i = ib; i < ie; ++i)
                inner[static_cast<std::size_t>(i)] += 1;
            },
            "test/inner");
        for (const int h : inner) ASSERT_EQ(h, 1);
        (void)b;
        (void)e;
      },
      "test/outer");
  EXPECT_GE(outer_chunks.load(), 1);
}

TEST_F(Par, SetThreadsRestartIsSafe) {
  // Regression: workers born after a resize must not re-run the previous
  // (already freed) job. Alternate sizes with real work in between.
  for (const int t : {1, 3, 2, 5, 1, 4}) {
    par::set_num_threads(t);
    EXPECT_EQ(par::num_threads(), t);
    std::atomic<index_t> sum{0};
    par::parallel_for(
        0, 64, 1, [&](index_t b, index_t e) { sum.fetch_add(e - b); },
        "test/resize");
    EXPECT_EQ(sum.load(), 64);
  }
}

TEST_F(Par, ParallelReduceIsThreadCountInvariant) {
  Rng rng(99);
  std::vector<real_t> v(1013);
  for (auto& x : v) x = rng.normal();
  auto run = [&] {
    return par::parallel_reduce(
        0, static_cast<index_t>(v.size()), 64, real_t{0.0},
        [&](index_t b, index_t e) {
          real_t acc = 0.0;
          for (index_t i = b; i < e; ++i)
            acc += v[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
          return acc;
        },
        [](real_t a, real_t b) { return a + b; }, "test/reduce");
  };
  par::set_num_threads(1);
  const real_t r1 = run();
  for (const int t : {2, 7}) {
    par::set_num_threads(t);
    const real_t rt = run();
    EXPECT_EQ(std::memcmp(&r1, &rt, sizeof(real_t)), 0) << "threads=" << t;
  }
}

TEST_F(Par, StatsCountCallsAndFanout) {
  par::ThreadPool& pool = par::ThreadPool::instance();
  pool.reset_stats();
  par::set_num_threads(4);
  par::parallel_for(0, 1000, 1, [](index_t, index_t) {}, "test/stats");
  par::set_num_threads(1);
  par::parallel_for(0, 1000, 1, [](index_t, index_t) {}, "test/stats");
  const auto stats = pool.stats();
  const auto it = stats.find("test/stats");
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.calls, 2);
  EXPECT_EQ(it->second.split, 1);  // only the 4-thread call fanned out
  EXPECT_GE(it->second.chunks, 2);
}

// ---- Bitwise identity of the parallelized numerics ----------------------

TEST_F(Par, GemmFamilyBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const Matrix a = testutil::random_matrix(rng, 67, 41);
  const Matrix b = testutil::random_matrix(rng, 41, 53);
  const Matrix bt = testutil::random_matrix(rng, 53, 41);
  const Matrix at = testutil::random_matrix(rng, 41, 67);

  par::set_num_threads(1);
  const Matrix r_mm = matmul(a, b);
  const Matrix r_tn = matmul_tn(at, b);
  const Matrix r_nt = matmul_nt(a, bt);
  const Matrix r_gram_nt = gram_nt(a);
  const Matrix r_gram_tn = gram_tn(a);
  const Matrix y = testutil::random_matrix(rng, 41, 1);
  const Matrix r_kr = khatri_rao_rowwise(a, a);
  Matrix r_diag;
  gemm_tn_diag(at, y, b, r_diag);

  for (const int t : {2, 7}) {
    par::set_num_threads(t);
    EXPECT_TRUE(bitwise_equal(matmul(a, b), r_mm)) << t;
    EXPECT_TRUE(bitwise_equal(matmul_tn(at, b), r_tn)) << t;
    EXPECT_TRUE(bitwise_equal(matmul_nt(a, bt), r_nt)) << t;
    EXPECT_TRUE(bitwise_equal(gram_nt(a), r_gram_nt)) << t;
    EXPECT_TRUE(bitwise_equal(gram_tn(a), r_gram_tn)) << t;
    EXPECT_TRUE(bitwise_equal(khatri_rao_rowwise(a, a), r_kr)) << t;
    Matrix d;
    gemm_tn_diag(at, y, b, d);
    EXPECT_TRUE(bitwise_equal(d, r_diag)) << t;
  }
}

TEST_F(Par, Conv2dBitwiseIdenticalAcrossThreadCounts) {
  auto make_net = [] {
    Rng wrng(21);
    Network n("par_conv");
    int x = n.add_input({2, 6, 6});
    x = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    x = n.add(std::make_unique<ReLU>(), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  };
  Rng rng(22);
  Tensor4 x(5, 2, 6, 6);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  std::vector<int> labels = {0, 2, 1, 0, 2};
  const PassContext ctx{.training = true, .capture = true};

  auto run = [&](Network& net, Tensor4& out, std::vector<Matrix>& grads,
                 std::vector<Matrix>& caps) {
    net.zero_grad();
    const Tensor4& logits = net.forward(x, ctx);
    out = logits;
    const LossResult lr = SoftmaxCrossEntropy().compute(logits, labels);
    net.backward(lr.grad, ctx);
    for (auto* pb : net.param_blocks()) {
      grads.push_back(pb->gw);
      caps.push_back(pb->a_samples);
      caps.push_back(pb->g_samples);
    }
  };

  par::set_num_threads(1);
  Network net1 = make_net();
  Tensor4 out1;
  std::vector<Matrix> g1, c1;
  run(net1, out1, g1, c1);

  for (const int t : {2, 7}) {
    par::set_num_threads(t);
    Network net = make_net();
    Tensor4 out;
    std::vector<Matrix> g, c;
    run(net, out, g, c);
    EXPECT_TRUE(bitwise_equal(out, out1)) << t;
    ASSERT_EQ(g.size(), g1.size());
    for (std::size_t i = 0; i < g.size(); ++i)
      EXPECT_TRUE(bitwise_equal(g[i], g1[i])) << t << " block " << i;
    ASSERT_EQ(c.size(), c1.size());
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_TRUE(bitwise_equal(c[i], c1[i])) << t << " capture " << i;
  }
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

// One full curvature refresh + preconditioning, returning the result per
// layer. Fresh optimizer each call so the rng stream starts identically.
std::vector<Matrix> hylo_refresh(HyloOptimizer::Policy policy,
                                 const CaptureSet& cap, const Matrix& grad) {
  OptimConfig cfg;
  cfg.damping = 0.3;
  cfg.rank_ratio = 0.5;
  HyloOptimizer opt(cfg);
  opt.set_policy(policy);
  opt.begin_epoch(0, false);
  std::vector<ParamBlock> blocks(static_cast<std::size_t>(cap.layers()));
  std::vector<ParamBlock*> pbs;
  for (auto& b : blocks) pbs.push_back(&b);
  CommSim comm(cap.world(), loopback());
  opt.update_curvature(pbs, cap, &comm);
  std::vector<Matrix> out;
  for (index_t l = 0; l < cap.layers(); ++l)
    out.push_back(opt.preconditioned(grad, l));
  return out;
}

TEST_F(Par, HyloKidKisBitwiseIdenticalAcrossThreadCounts) {
  const CaptureSet cap = make_capture(/*layers=*/3, /*world=*/2, /*m=*/12,
                                      /*din=*/9, /*dout=*/6);
  Rng rng(44);
  const Matrix grad = testutil::random_matrix(rng, 6, 9);

  for (const auto policy : {HyloOptimizer::Policy::kAlwaysKid,
                            HyloOptimizer::Policy::kAlwaysKis}) {
    par::set_num_threads(1);
    const std::vector<Matrix> ref = hylo_refresh(policy, cap, grad);
    for (const int t : {2, 7}) {
      par::set_num_threads(t);
      const std::vector<Matrix> got = hylo_refresh(policy, cap, grad);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t l = 0; l < ref.size(); ++l)
        EXPECT_TRUE(bitwise_equal(got[l], ref[l]))
            << "policy=" << (policy == HyloOptimizer::Policy::kAlwaysKid
                                 ? "KID"
                                 : "KIS")
            << " threads=" << t << " layer=" << l;
    }
  }
}

TEST_F(Par, SngdBitwiseIdenticalAcrossThreadCounts) {
  const CaptureSet cap = make_capture(3, 2, 10, 8, 5);
  Rng rng(45);
  const Matrix grad = testutil::random_matrix(rng, 5, 8);
  OptimConfig cfg;
  cfg.damping = 0.3;

  auto refresh = [&] {
    Sngd opt(cfg);
    std::vector<ParamBlock> blocks(static_cast<std::size_t>(cap.layers()));
    std::vector<ParamBlock*> pbs;
    for (auto& b : blocks) pbs.push_back(&b);
    CommSim comm(cap.world(), loopback());
    opt.update_curvature(pbs, cap, &comm);
    std::vector<Matrix> out;
    for (index_t l = 0; l < cap.layers(); ++l)
      out.push_back(opt.preconditioned(grad, l));
    return out;
  };

  par::set_num_threads(1);
  const std::vector<Matrix> ref = refresh();
  for (const int t : {2, 7}) {
    par::set_num_threads(t);
    const std::vector<Matrix> got = refresh();
    for (std::size_t l = 0; l < ref.size(); ++l)
      EXPECT_TRUE(bitwise_equal(got[l], ref[l])) << t << " layer " << l;
  }
}

TEST_F(Par, ProfilerCallCountsUnchangedByThreading) {
  // The staged refresh must preserve the serial bookkeeping: one
  // comp/factorization and one comp/inversion charge per layer, and the
  // pipeline's one modeled owner share per layer.
  const CaptureSet cap = make_capture(3, 2, 12, 9, 6);
  for (const int t : {1, 7}) {
    par::set_num_threads(t);
    OptimConfig cfg;
    cfg.damping = 0.3;
    cfg.rank_ratio = 0.5;
    HyloOptimizer opt(cfg);
    opt.set_policy(HyloOptimizer::Policy::kAlwaysKid);
    opt.begin_epoch(0, false);
    std::vector<ParamBlock> blocks(3);
    std::vector<ParamBlock*> pbs;
    for (auto& b : blocks) pbs.push_back(&b);
    CommSim comm(cap.world(), loopback());
    opt.update_curvature(pbs, cap, &comm);
    EXPECT_EQ(comm.profiler().calls("comp/factorization"), 3) << t;
    EXPECT_EQ(comm.profiler().calls("comp/inversion"), 3) << t;
    EXPECT_EQ(comm.profiler().calls("model/inversion"), 3) << t;
  }
}

TEST_F(Par, ExportMetricsPublishesGaugeAndCounters) {
  par::ThreadPool& pool = par::ThreadPool::instance();
  pool.reset_stats();
  par::set_num_threads(3);
  par::parallel_for(0, 100, 1, [](index_t, index_t) {}, "test/export");
  obs::MetricsRegistry reg;
  par::export_metrics(reg);
  EXPECT_EQ(reg.gauge("par/threads").value(), 3.0);
  EXPECT_EQ(reg.counter_value("par/for/test/export.calls"), 1);
  EXPECT_EQ(reg.counter_value("par/for/test/export.split"), 1);
  // Re-export into the same registry must not double count.
  par::export_metrics(reg);
  EXPECT_EQ(reg.counter_value("par/for/test/export.calls"), 1);
}

}  // namespace
}  // namespace hylo
