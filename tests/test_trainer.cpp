// Trainer integration: end-to-end convergence, determinism, simulated-time
// accounting, distributed bookkeeping, early stop, segmentation path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "hylo/hylo.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

DataSplit spiral_data() { return make_spirals(512, 128, 2, 0.08, 11); }

TrainConfig quick_config(index_t epochs, index_t world = 1) {
  TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.world = world;
  tc.interconnect = world > 1 ? mist_v100() : loopback();
  return tc;
}

TEST(Trainer, SgdLearnsSpirals) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {32, 32}, 2, 1);
  OptimConfig oc;
  oc.lr = 0.1;
  Sgd opt(oc);
  Trainer trainer(net, opt, data, quick_config(12));
  const TrainResult res = trainer.run();
  EXPECT_GT(res.best_metric(), 0.9);
  EXPECT_GT(res.iterations, 0);
}

TEST(Trainer, HyloLearnsSpirals) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {32, 32}, 2, 1);
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;  // NGD damping is the dominant knob (paper tunes it)
  oc.update_freq = 5;
  oc.rank_ratio = 0.1;
  HyloOptimizer opt(oc);
  Trainer trainer(net, opt, data, quick_config(16));
  const TrainResult res = trainer.run();
  EXPECT_GT(res.best_metric(), 0.9);
  // HyLo warmup epochs ran KID, and the mode history covers every epoch.
  EXPECT_EQ(opt.mode_history().size(), res.epochs.size());
  EXPECT_EQ(opt.mode_history()[0], HyloMode::kKid);
}

TEST(Trainer, DeterministicAcrossRuns) {
  const DataSplit data = spiral_data();
  auto run_once = [&] {
    Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
    OptimConfig oc;
    oc.lr = 0.1;
    Sgd opt(oc);
    Trainer trainer(net, opt, data, quick_config(3));
    return trainer.run();
  };
  const TrainResult a = run_once();
  const TrainResult b = run_once();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss);
    EXPECT_EQ(a.epochs[e].test_metric, b.epochs[e].test_metric);
  }
}

TEST(Trainer, LrScheduleDecays) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  oc.lr = 0.1;
  Sgd opt(oc);
  TrainConfig tc = quick_config(4);
  tc.lr_schedule = {{2}, 0.1};
  Trainer trainer(net, opt, data, tc);
  trainer.run();
  EXPECT_NEAR(opt.lr(), 0.01, 1e-12);
}

TEST(Trainer, CommTimeZeroAtWorldOne) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  Sgd opt(oc);
  TrainConfig tc = quick_config(2);
  tc.interconnect = loopback();
  Trainer trainer(net, opt, data, tc);
  const TrainResult res = trainer.run();
  EXPECT_EQ(res.comm_seconds, 0.0);
  EXPECT_GT(res.compute_seconds, 0.0);
}

TEST(Trainer, DistributedChargesCommunication) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  oc.update_freq = 2;
  HyloOptimizer opt(oc);
  Trainer trainer(net, opt, data, quick_config(2, /*world=*/4));
  const TrainResult res = trainer.run();
  EXPECT_GT(res.comm_seconds, 0.0);
  EXPECT_GT(trainer.profiler().seconds("comm/grad_allreduce"), 0.0);
  EXPECT_GT(trainer.profiler().seconds("comm/gather"), 0.0);
}

TEST(Trainer, WallTimeIsMonotonePerEpoch) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  Sgd opt(oc);
  Trainer trainer(net, opt, data, quick_config(4));
  const TrainResult res = trainer.run();
  for (std::size_t e = 1; e < res.epochs.size(); ++e)
    EXPECT_GT(res.epochs[e].wall_seconds, res.epochs[e - 1].wall_seconds);
  // One rank, no wire time: the wall is the modeled compute.
  EXPECT_NEAR(res.total_seconds, res.compute_seconds + res.comm_seconds,
              1e-12 * res.total_seconds);
}

TEST(Trainer, EarlyStopOnTarget) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {32, 32}, 2, 1);
  OptimConfig oc;
  oc.lr = 0.1;
  Sgd opt(oc);
  TrainConfig tc = quick_config(50);
  tc.target_metric = 0.85;
  Trainer trainer(net, opt, data, tc);
  const TrainResult res = trainer.run();
  ASSERT_TRUE(res.time_to_target.has_value());
  ASSERT_TRUE(res.epochs_to_target.has_value());
  EXPECT_LT(*res.epochs_to_target, 50);
  EXPECT_EQ(res.epochs.back().wall_seconds, *res.time_to_target);
}

TEST(Trainer, EpochHookObservesTraining) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  Sgd opt(oc);
  Trainer trainer(net, opt, data, quick_config(3));
  int calls = 0;
  trainer.set_epoch_hook([&](const EpochStats& s, Network&) {
    EXPECT_EQ(s.epoch, calls);
    ++calls;
  });
  trainer.run();
  EXPECT_EQ(calls, 3);
}

TEST(Trainer, SegmentationPathTrainsUnet) {
  const DataSplit data = make_blob_segmentation(96, 24, 16, 16, 0.15, 5);
  Network net = make_unet({1, 16, 16}, 4, 2, 9);
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 5;
  HyloOptimizer opt(oc);
  TrainConfig tc = quick_config(6);
  tc.batch_size = 8;
  Trainer trainer(net, opt, data, tc);
  const TrainResult res = trainer.run();
  // Dice must clearly beat the trivial all-background predictor.
  EXPECT_GT(res.best_metric(), 0.5);
}

TEST(Trainer, MaxItersCapsEpoch) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  Sgd opt(oc);
  TrainConfig tc = quick_config(2);
  tc.max_iters_per_epoch = 3;
  Trainer trainer(net, opt, data, tc);
  const TrainResult res = trainer.run();
  EXPECT_EQ(res.iterations, 6);
}

TEST(Trainer, CurvatureRefreshRespectsFrequency) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  oc.update_freq = 4;
  KFac opt(oc);
  TrainConfig tc = quick_config(1);
  tc.max_iters_per_epoch = 9;
  Trainer trainer(net, opt, data, tc);
  trainer.run();
  // Iterations 0, 4, 8 refresh: inversion runs 3 times over 2 layers... the
  // section call count equals the number of refresh iterations.
  EXPECT_EQ(trainer.profiler().calls("comp/inversion"), 3);
}

TEST(Trainer, EvaluateRejectsEmptyTestSplit) {
  // Regression: evaluate() used to divide by a zero sample count when the
  // test split was empty; it must fail loudly instead.
  const DataSplit data = make_spirals(256, 0, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  Sgd opt(oc);
  Trainer trainer(net, opt, data, quick_config(1));
  EXPECT_THROW(trainer.evaluate(), Error);
  EXPECT_THROW(trainer.run(), Error);
}

TEST(Trainer, RunsOnce) {
  // A Trainer continues from its cursor, so a second run() would silently
  // train nothing: any second run() or resume() must fail loudly instead.
  const DataSplit data = spiral_data();
  const std::string dir =
      "/tmp/hylo_test_trainer_runs_once_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto make_trainer = [&](Network& net, Sgd& opt) {
    TrainConfig tc = quick_config(1);
    tc.max_iters_per_epoch = 2;
    tc.checkpoint = {dir, 1, 0};
    return Trainer(net, opt, data, tc);
  };
  OptimConfig oc;
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  Sgd opt(oc);
  Trainer trainer = make_trainer(net, opt);
  trainer.run();
  EXPECT_THROW(trainer.run(), Error);
  const std::string snap = dir + "/snapshot-00000001.hysnp";
  EXPECT_THROW(trainer.resume(snap), Error);

  Network net2 = make_mlp({2, 1, 1}, {16}, 2, 3);
  Sgd opt2(oc);
  Trainer resumed = make_trainer(net2, opt2);
  resumed.resume(snap);
  EXPECT_THROW(resumed.run(), Error);
  std::filesystem::remove_all(dir);
}

TEST(MakeOptimizer, FactoryNames) {
  OptimConfig oc;
  for (const std::string name :
       {"SGD", "ADAM", "KFAC", "KAISA", "EKFAC", "KBFGS-L", "SNGD", "HyLo"}) {
    auto opt = make_optimizer(name, oc);
    ASSERT_NE(opt, nullptr) << name;
  }
  EXPECT_THROW(make_optimizer("NOPE", oc), Error);
}

}  // namespace
}  // namespace hylo
