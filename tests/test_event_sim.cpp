// Event-timeline simulator (DESIGN.md §15): FIFO wire reservation, the
// (ready time, seq) completion-order rule, bitwise-deterministic replay,
// snapshot round-trips, the async trainer path (overlapped curvature
// gathers committing through the bounded-staleness deadline), and the
// lockstep path on the same timeline (a barrier after every collective, a
// wall that is modeled compute plus wire time and no machine's speed). Every trainer
// test pins cfg.comm_mode and cfg.faults explicitly so ambient HYLO_COMM /
// HYLO_FAULTS environments (the env-suite ctest lanes) cannot perturb the
// assertions — except the EnvResolution test, which checks the precedence
// rule itself and adapts to whatever the environment says.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "hylo/hylo.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

std::string tmp_dir(const std::string& name) {
  // PID-qualified: ctest runs this binary twice concurrently (plain +
  // comm_async_env_suite), and a shared path would race on remove_all vs.
  // the sibling's live snapshots.
  const std::string dir = "/tmp/hylo_test_event_sim_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(EventTimeline, WireIsAFifoResource) {
  EventTimeline tl(4);
  // First op: starts at its earliest time, occupies [1.0, 3.0).
  const TimelineEvent a = tl.issue("comm/gather", 1.0, 2.0, false);
  EXPECT_EQ(a.seq, 0u);
  EXPECT_EQ(a.start_s, 1.0);
  EXPECT_EQ(a.ready_s, 3.0);
  // Second op wants to start at 0.5 but the wire is busy until 3.0.
  const TimelineEvent b = tl.issue("comm/broadcast", 0.5, 1.0, false);
  EXPECT_EQ(b.seq, 1u);
  EXPECT_EQ(b.start_s, 3.0);
  EXPECT_EQ(b.ready_s, 4.0);
  // Third op arrives after the wire freed up: no queueing delay.
  const TimelineEvent c = tl.issue("comm/gather", 10.0, 1.0, false);
  EXPECT_EQ(c.start_s, 10.0);
  EXPECT_EQ(tl.wire_busy_until(), 11.0);
  EXPECT_EQ(tl.history().size(), 3u);
}

TEST(EventTimeline, FailedEventsOccupyTheWireForTheirWaste) {
  EventTimeline tl(2);
  // A lost collective's wasted attempts ran on the wire before the loss was
  // declared: its failure is reported at their end.
  const TimelineEvent dead = tl.issue("comm/gather", 1.0, 5.0, true);
  EXPECT_TRUE(dead.failed);
  EXPECT_EQ(dead.start_s, 1.0);
  EXPECT_EQ(dead.ready_s, 6.0);
  // The next op queues behind them.
  const TimelineEvent live = tl.issue("comm/gather", 2.0, 1.0, false);
  EXPECT_EQ(live.start_s, 6.0);
  EXPECT_EQ(live.ready_s, 7.0);
}

TEST(EventTimeline, CompletionOrderIsReadyTimeThenSeq) {
  // Equal ready times break ties by issue order — the rule that makes the
  // async commit order (and therefore training itself) a total order.
  TimelineEvent x, y, z;
  x.seq = 0, x.ready_s = 2.0;
  y.seq = 1, y.ready_s = 2.0;
  z.seq = 2, z.ready_s = 1.0;
  EXPECT_TRUE(completes_before(z, x));
  EXPECT_TRUE(completes_before(x, y));
  EXPECT_FALSE(completes_before(y, x));
  std::vector<TimelineEvent> evs = {y, x, z};
  std::sort(evs.begin(), evs.end(), completes_before);
  EXPECT_EQ(evs[0].seq, 2u);
  EXPECT_EQ(evs[1].seq, 0u);
  EXPECT_EQ(evs[2].seq, 1u);
}

TEST(EventTimeline, ClocksBarrierAndHorizon) {
  EventTimeline tl(3);
  tl.advance(0, 1.0);
  tl.advance(1, 2.5);
  EXPECT_EQ(tl.rank_clock(0), 1.0);
  EXPECT_EQ(tl.rank_clock(2), 0.0);
  EXPECT_EQ(tl.max_clock(), 2.5);
  // A blocking collective completing at t=4 drags every rank to t=4.
  tl.barrier_at(4.0);
  for (index_t r = 0; r < 3; ++r) EXPECT_EQ(tl.rank_clock(r), 4.0);
  // Horizon covers in-flight wire traffic past every clock.
  tl.issue("comm/gather", 4.0, 3.0, false);
  EXPECT_EQ(tl.horizon(), 7.0);
  EXPECT_THROW(tl.rank_clock(3), Error);
}

TEST(EventTimeline, SetWorldKeepsSurvivorsInStep) {
  EventTimeline tl(4);
  tl.advance(1, 9.0);
  tl.advance(3, 20.0);  // doomed rank: its clock leaves with it
  tl.set_world(2);      // rank-loss commit drops clocks beyond the world
  EXPECT_EQ(tl.world(), 2);
  EXPECT_EQ(tl.max_clock(), 9.0);
  // Growth extends from the surviving max clock: no rank time-travels.
  tl.set_world(3);
  EXPECT_EQ(tl.rank_clock(2), 9.0);
}

TEST(EventTimeline, SaveLoadContinuesBitwise) {
  // Serialize mid-stream, restore into a fresh timeline, and continue with
  // the same operations: the continuation must match the uninterrupted run
  // exactly (this is what makes async checkpoint-resume bitwise).
  EventTimeline a(3);
  a.advance(1, 0.75);
  a.issue("comm/gather", 0.5, 1.5, false);

  ckpt::ByteWriter w;
  a.serialize(w);
  EventTimeline b(1);  // wrong world on purpose: load must restore it
  ckpt::ByteReader r(w.bytes().data(), w.size(), "timeline");
  b.serialize(r);
  r.expect_done();

  EXPECT_EQ(b.world(), 3);
  EXPECT_EQ(b.wire_busy_until(), a.wire_busy_until());
  const TimelineEvent ea = a.issue("comm/broadcast", 1.0, 2.0, false);
  const TimelineEvent eb = b.issue("comm/broadcast", 1.0, 2.0, false);
  EXPECT_EQ(ea.seq, eb.seq);
  EXPECT_EQ(ea.start_s, eb.start_s);
  EXPECT_EQ(ea.ready_s, eb.ready_s);
}

TEST(AsyncComm, IchargeMatchesLockstepLedgerAndModeledTime) {
  // The nonblocking forms charge the same wire-byte ledger and the same
  // modeled duration as their blocking lockstep counterparts — only the
  // position on the timeline differs.
  CommSim sync(4, mist_v100());
  sync.charge_allreduce(1 << 16, "comm/grad_allreduce");
  sync.charge_allgather(std::vector<index_t>{64, 128, 256, 512},
                        "comm/gather");
  sync.charge_broadcast(1 << 12, "comm/broadcast");

  CommSim as(4, mist_v100());
  as.set_mode(CommMode::kAsync);
  const CommEvent ar =
      as.icharge_allreduce(1 << 16, "comm/grad_allreduce", 0.0);
  const CommEvent ag = as.icharge_allgather(
      std::vector<index_t>{64, 128, 256, 512}, "comm/gather", ar.ready_s);
  const CommEvent bc =
      as.icharge_broadcast(1 << 12, "comm/broadcast", ag.ready_s);

  EXPECT_EQ(as.total_wire_bytes(), sync.total_wire_bytes());
  EXPECT_EQ(as.total_messages(), sync.total_messages());
  // Chained back-to-back on an idle wire, the modeled durations sum to the
  // lockstep total.
  EXPECT_NEAR(bc.ready_s, sync.comm_seconds(), 1e-12);
  EXPECT_NEAR(as.comm_seconds(), sync.comm_seconds(), 1e-12);
}

TEST(AsyncComm, DeterministicTimelineUnderFaultStorm) {
  // Same seed, same issue sequence: the event histories must be
  // byte-identical — the queue rule (ready_s, seq) plus the deterministic
  // fault plan leave no room for divergence.
  auto drive = [](CommSim& comm) {
    comm.set_mode(CommMode::kAsync);
    comm.configure_faults(FaultConfig::parse("23:0.4"));
    double t = 0.0;
    for (int i = 0; i < 30; ++i) {
      const CommEvent g = comm.icharge_allgather(
          std::vector<index_t>{256, 512, 1024, 2048}, "comm/gather", t);
      const CommEvent b =
          comm.icharge_broadcast(1 << 10, "comm/broadcast", g.ready_s);
      t += 1e-4 + (b.failed ? 0.0 : b.ready_s * 1e-6);
    }
  };
  CommSim a(4, mist_v100()), b(4, mist_v100());
  drive(a);
  drive(b);
  const auto& ha = a.timeline()->history();
  const auto& hb = b.timeline()->history();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].seq, hb[i].seq);
    EXPECT_EQ(ha[i].start_s, hb[i].start_s);
    EXPECT_EQ(ha[i].ready_s, hb[i].ready_s);
    EXPECT_EQ(ha[i].failed, hb[i].failed);
    EXPECT_EQ(ha[i].section, hb[i].section);
  }
  EXPECT_EQ(a.total_wire_bytes(), b.total_wire_bytes());
  EXPECT_EQ(a.comm_seconds(), b.comm_seconds());
}

DataSplit spiral_data() { return make_spirals(384, 96, 2, 0.08, 11); }

TrainConfig async_config(index_t epochs, index_t world) {
  TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 16;
  tc.world = world;
  tc.interconnect = mist_v100();
  tc.comm_mode = CommMode::kAsync;  // pinned (env-proof)
  tc.faults = FaultConfig{};        // pinned fault-free (env-proof)
  return tc;
}

TEST(AsyncTrainer, OverlapsRefreshGathersAndStillLearns) {
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {32, 32}, 2, 1);
  OptimConfig oc;
  oc.lr = 0.1;
  oc.damping = 0.3;
  oc.update_freq = 4;
  KFac opt(oc);
  Trainer trainer(net, opt, data, async_config(16, 4));
  const TrainResult res = trainer.run();
  EXPECT_GT(res.best_metric(), 0.8);
  // Refresh gathers went through the timeline and the wall is its horizon.
  EXPECT_GT(trainer.profiler().seconds("comm/gather"), 0.0);
  EXPECT_GT(trainer.comm().timeline()->horizon(), 0.0);
  EXPECT_EQ(res.total_seconds, trainer.comm().timeline()->horizon());
  EXPECT_FALSE(trainer.comm().timeline()->history().empty());
  // Every overlapped refresh eventually committed or degraded: nothing is
  // left pending once training ends.
  EXPECT_EQ(opt.async_pending(), 0);
}

/// KFAC that records, at every step(), how many layers still have a
/// refresh in flight.
class PendingAtStep : public KFac {
 public:
  using KFac::KFac;
  void step(Network& net, index_t iteration) override {
    pending.push_back(async_pending());
    KFac::step(net, iteration);
  }
  std::vector<index_t> pending;
};

TEST(AsyncTrainer, CompletedChainsCommitBeforeStep) {
  // A refresh's chains overlap the next iteration's fwd/bwd and have landed
  // once that iteration's gradient allreduce clears the FIFO wire. The
  // trainer commits them before step() serves curvature, so only a refresh
  // iteration's own step() sees chains in flight.
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  oc.update_freq = 3;
  PendingAtStep opt(oc);
  TrainConfig tc = async_config(1, 4);
  tc.max_iters_per_epoch = 6;
  Trainer(net, opt, data, tc).run();
  ASSERT_EQ(opt.pending.size(), 6u);
  for (index_t it = 0; it < 6; ++it)
    EXPECT_EQ(opt.pending[static_cast<std::size_t>(it)] > 0,
              opt.needs_capture(it))
        << "iteration " << it;
}

TEST(AsyncTrainer, DeterministicAcrossRuns) {
  // Losses, metrics, the modeled comm clock, the timeline horizon and the
  // wall are all bitwise-reproducible.
  const DataSplit data = spiral_data();
  struct Out {
    TrainResult res;
    double horizon = 0.0;
    double comm_s = 0.0;
  };
  auto run_once = [&] {
    Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
    OptimConfig oc;
    oc.lr = 0.05;
    oc.damping = 0.3;
    oc.update_freq = 3;
    HyloOptimizer opt(oc);
    Trainer trainer(net, opt, data, async_config(3, 4));
    Out out;
    out.res = trainer.run();
    out.horizon = trainer.comm().timeline()->horizon();
    out.comm_s = trainer.comm().comm_seconds();
    return out;
  };
  const Out a = run_once();
  const Out b = run_once();
  ASSERT_EQ(a.res.epochs.size(), b.res.epochs.size());
  for (std::size_t e = 0; e < a.res.epochs.size(); ++e) {
    EXPECT_EQ(a.res.epochs[e].train_loss, b.res.epochs[e].train_loss);
    EXPECT_EQ(a.res.epochs[e].test_metric, b.res.epochs[e].test_metric);
    EXPECT_EQ(a.res.epochs[e].wall_seconds, b.res.epochs[e].wall_seconds);
  }
  EXPECT_EQ(a.res.total_seconds, b.res.total_seconds);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.comm_s, b.comm_s);
}

/// KFAC that records, at every step(), the spread of the rank clocks and
/// the chains still in flight.
class ClockSpreadAtStep : public KFac {
 public:
  using KFac::KFac;
  void step(Network& net, index_t iteration) override {
    const EventTimeline& tl = *comm->timeline();
    double lo = tl.rank_clock(0);
    for (index_t r = 1; r < tl.world(); ++r)
      lo = std::min(lo, tl.rank_clock(r));
    spread.push_back(tl.max_clock() - lo);
    pending.push_back(async_pending());
    KFac::step(net, iteration);
  }
  const CommSim* comm = nullptr;
  std::vector<double> spread;
  std::vector<index_t> pending;
};

TEST(AsyncTrainer, LockstepDefaultIsUntouchedByAsyncMachinery) {
  // Lockstep runs on the same timeline, but nothing stays in flight: every
  // curvature collective is waited out, so the ranks meet after each one —
  // even after a refresh whose owners computed unequal shares — and every
  // step() serves chains that have already settled.
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  oc.update_freq = 2;
  ClockSpreadAtStep opt(oc);
  TrainConfig tc = async_config(2, 2);
  tc.comm_mode = CommMode::kLockstep;
  tc.max_iters_per_epoch = 4;
  Trainer trainer(net, opt, data, tc);
  opt.comm = &trainer.comm();
  trainer.run();
  EXPECT_FALSE(trainer.comm().async());
  ASSERT_EQ(opt.spread.size(), 8u);
  for (std::size_t i = 0; i < opt.spread.size(); ++i) {
    EXPECT_EQ(opt.spread[i], 0.0) << "step " << i;
    EXPECT_EQ(opt.pending[i], 0) << "step " << i;
  }
}

TEST(AsyncTrainer, ConfigPinBeatsEnvironment) {
  // Precedence: an explicit cfg.comm_mode wins over HYLO_COMM; with the
  // config unset the environment decides; with neither, lockstep. This
  // test adapts to the ambient environment so it holds in both the plain
  // and the comm_async_env_suite ctest lanes.
  const CommMode env = resolve_config(TrainConfig{}).comm_mode;
  const DataSplit data = spiral_data();
  auto mode_of = [&](std::optional<CommMode> pin) {
    Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
    OptimConfig oc;
    Sgd opt(oc);
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 16;
    tc.world = 2;
    tc.max_iters_per_epoch = 2;
    tc.interconnect = mist_v100();
    tc.faults = FaultConfig{};
    tc.comm_mode = pin;
    Trainer trainer(net, opt, data, tc);
    return trainer.comm().mode();
  };
  EXPECT_EQ(mode_of(CommMode::kAsync), CommMode::kAsync);
  EXPECT_EQ(mode_of(CommMode::kLockstep), CommMode::kLockstep);
  EXPECT_EQ(mode_of(std::nullopt), env);
}

TEST(AsyncTrainer, SnapshotResumeIsBitwise) {
  // Interrupt an async run at a snapshot boundary and resume, for every
  // curvature optimizer: weights, losses, and metrics must match the
  // uninterrupted run bitwise. The earliest snapshot catches refresh chains
  // still in flight, so the resume replays serialized pending state too.
  // The timeline section rides in every snapshot, so the resumed event
  // queue continues from the same clocks and wire cursor, and the wall
  // with them.
  const DataSplit data = spiral_data();
  auto make_net = [] { return make_mlp({2, 1, 1}, {16}, 2, 3); };
  auto make_cfg = [&] {
    TrainConfig tc = async_config(2, 2);
    tc.max_iters_per_epoch = 6;
    tc.batch_size = 16;
    return tc;
  };
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 3;

  for (const char* name : {"KFAC", "EKFAC", "KBFGS-L", "SNGD", "HyLo"}) {
    SCOPED_TRACE(name);
    const std::string dir = tmp_dir(std::string("async_resume_") + name);

    // Reference: straight through.
    Network ref_net = make_net();
    auto ref_opt = make_optimizer(name, oc);
    Trainer ref(ref_net, *ref_opt, data, make_cfg());
    const TrainResult ref_res = ref.run();

    // Snapshotting run.
    Network snap_net = make_net();
    auto snap_opt = make_optimizer(name, oc);
    TrainConfig snap_cfg = make_cfg();
    snap_cfg.checkpoint.dir = dir;
    snap_cfg.checkpoint.every = 4;
    snap_cfg.checkpoint.keep = 0;
    Trainer snapper(snap_net, *snap_opt, data, snap_cfg);
    snapper.run();
    const std::vector<std::string> snaps = ckpt::list_snapshots(dir);
    ASSERT_FALSE(snaps.empty());

    // The earliest snapshot holds chains in flight.
    {
      const ckpt::SnapshotReader snap(snaps.front());
      Network probe_net = make_net();
      auto probe = make_optimizer(name, oc);
      ckpt::ByteReader r = snap.open("optimizer");
      probe->serialize_state(probe_net, r);
      EXPECT_GT(dynamic_cast<CurvatureOptimizer&>(*probe).async_pending(), 0);
    }

    // Resume the earliest snapshot to cover the longest continuation.
    Network res_net = make_net();
    auto res_opt = make_optimizer(name, oc);
    Trainer resumer(res_net, *res_opt, data, make_cfg());
    const TrainResult res_res = resumer.resume(snaps.front());

    ASSERT_EQ(ref_res.epochs.size(), res_res.epochs.size());
    for (std::size_t e = 0; e < ref_res.epochs.size(); ++e) {
      EXPECT_EQ(ref_res.epochs[e].train_loss, res_res.epochs[e].train_loss);
      EXPECT_EQ(ref_res.epochs[e].test_metric, res_res.epochs[e].test_metric);
      EXPECT_EQ(ref_res.epochs[e].wall_seconds,
                res_res.epochs[e].wall_seconds);
    }
    EXPECT_EQ(ref_res.total_seconds, res_res.total_seconds);
    // The modeled timeline itself continues bitwise.
    EXPECT_EQ(ref.comm().timeline()->horizon(),
              resumer.comm().timeline()->horizon());
    EXPECT_EQ(ref.comm().comm_seconds(), resumer.comm().comm_seconds());
    auto flat = [](Network& n) {
      std::vector<real_t> out;
      for (auto* pb : n.param_blocks())
        out.insert(out.end(), pb->w.data(), pb->w.data() + pb->w.size());
      return out;
    };
    const std::vector<real_t> wa = flat(ref_net), wb = flat(res_net);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) EXPECT_EQ(wa[i], wb[i]);
    std::filesystem::remove_all(dir);
  }
}

TrainConfig lockstep_config(index_t world, std::optional<FaultConfig> faults) {
  TrainConfig tc = async_config(2, world);
  tc.comm_mode = CommMode::kLockstep;
  tc.faults = std::move(faults);
  tc.max_iters_per_epoch = 6;
  return tc;
}

TEST(LockstepTimeline, WallIsComputePlusComm) {
  // Every lockstep collective is a barrier, so the horizon is the modeled
  // compute on the critical path plus every second on the comm/* ledger —
  // lost collectives included: their wasted attempts hold the wire as long
  // as the ledger charges them.
  const DataSplit data = spiral_data();
  const FaultConfig storm =
      FaultConfig::parse("7:0.4:rank_down=4,straggler=1,timeout=1");
  for (const FaultConfig& fc : {FaultConfig{}, storm}) {
    SCOPED_TRACE(fc.enabled() ? "storm" : "clean");
    Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 3);
    OptimConfig oc;
    oc.damping = 0.3;
    oc.update_freq = 2;
    HyloOptimizer opt(oc);
    Trainer trainer(net, opt, data, lockstep_config(4, fc));
    const TrainResult res = trainer.run();
    const auto& reg = trainer.profiler().registry();
    if (fc.enabled()) {
      EXPECT_GT(reg.counter_value("comm/faults/unrecoverable"), 0);
      EXPECT_GT(trainer.profiler().seconds("comm/faults/wasted"), 0.0);
    }
    EXPECT_GT(res.compute_seconds, 0.0);
    EXPECT_EQ(res.total_seconds, trainer.comm().timeline()->horizon());
    EXPECT_EQ(res.comm_seconds, trainer.comm().comm_seconds());
    EXPECT_NEAR(res.total_seconds, res.compute_seconds + res.comm_seconds,
                1e-12 * res.total_seconds);
  }
}

TEST(LockstepTimeline, WallIsMachineIndependent) {
  // The wall is modeled FLOPs and wire bytes, never a measured second: a
  // lockstep KAISA and a lockstep HyLo run give the same wall at any pool
  // thread count, and KAISA in every kernel tier (HyLo's KID/KIS switching
  // follows the tier's gradient bits, so its wall may not).
  const DataSplit data = spiral_data();
  auto walls = [&](const char* method) {
    Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 3);
    OptimConfig oc;
    oc.damping = 0.3;
    oc.update_freq = 2;
    auto opt = make_optimizer(method, oc);
    const TrainResult res =
        Trainer(net, *opt, data, lockstep_config(4, FaultConfig{})).run();
    std::vector<double> out;
    for (const EpochStats& e : res.epochs) out.push_back(e.wall_seconds);
    out.push_back(res.total_seconds);
    return out;
  };
  const int threads = par::num_threads();
  const kern::Tier tier = kern::active();
  std::vector<double> kaisa[2], hylo[2];
  for (const int t : {1, 3}) {
    par::set_num_threads(t);
    kaisa[t == 3] = walls("KFAC");
    hylo[t == 3] = walls("HyLo");
  }
  par::set_num_threads(threads);
  kern::set_tier(kern::Tier::kScalar);
  const std::vector<double> kaisa_scalar = walls("KFAC");
  kern::set_tier(kern::best());
  const std::vector<double> kaisa_native = walls("KFAC");
  kern::set_tier(tier);
  ASSERT_EQ(kaisa[0].size(), 3u);
  EXPECT_GT(kaisa[0].back(), kaisa[0].front());
  EXPECT_EQ(kaisa[0], kaisa[1]);
  EXPECT_EQ(kaisa[0], kaisa_scalar);
  EXPECT_EQ(kaisa[0], kaisa_native);
  EXPECT_EQ(hylo[0], hylo[1]);
}

TEST(RefreshPipeline, EveryOptimizerBooksMeasuredAndModeledInversion) {
  // One refresh of each curvature optimizer books its measured inversion
  // under comp/inversion and the owner share the timeline charged under
  // model/inversion, which lands on the layer owner's clock alone.
  Rng rng(17);
  const index_t world = 2;
  CaptureSet cap;
  cap.a.resize(3);
  cap.g.resize(3);
  for (std::size_t l = 0; l < 3; ++l)
    for (index_t r = 0; r < world; ++r) {
      cap.a[l].push_back(testutil::random_matrix(rng, 8, 6));
      cap.g[l].push_back(testutil::random_matrix(rng, 8, 5));
    }
  for (const char* name : {"KFAC", "EKFAC", "KBFGS-L", "SNGD", "HyLo"}) {
    SCOPED_TRACE(name);
    OptimConfig oc;
    oc.damping = 0.3;
    auto opt = make_optimizer(name, oc);
    if (auto* hy = dynamic_cast<HyloOptimizer*>(opt.get()))
      hy->begin_epoch(0, false);
    std::vector<ParamBlock> blocks(3);
    std::vector<ParamBlock*> pbs;
    for (auto& b : blocks) pbs.push_back(&b);
    CommSim comm(world, mist_v100());
    opt->update_curvature(pbs, cap, &comm);
    EXPECT_GE(comm.profiler().calls("comp/inversion"), 1);
    EXPECT_GT(comm.profiler().seconds("comp/inversion"), 0.0);
    EXPECT_EQ(comm.profiler().calls("model/inversion"), 3);
    EXPECT_GT(comm.profiler().seconds("model/inversion"), 0.0);
    // Layers 0 and 2 belong to rank 0: it computed two owner shares to
    // rank 1's one before the chains left, and the lockstep chains then
    // met every rank at their end.
    EXPECT_EQ(comm.timeline()->rank_clock(0), comm.timeline()->rank_clock(1));
    EXPECT_GT(comm.timeline()->compute_seconds(), 0.0);
  }
}

}  // namespace
}  // namespace hylo
