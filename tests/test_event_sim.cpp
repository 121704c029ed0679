// Event-timeline simulator (DESIGN.md §15): FIFO wire reservation, the
// (ready time, seq) completion-order rule, bitwise-deterministic replay,
// snapshot round-trips, and the async trainer path (overlapped curvature
// gathers committing through the bounded-staleness deadline). Every trainer
// test pins cfg.comm_mode and cfg.faults explicitly so ambient HYLO_COMM /
// HYLO_FAULTS environments (the env-suite ctest lanes) cannot perturb the
// assertions — except the EnvResolution test, which checks the precedence
// rule itself and adapts to whatever the environment says.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "hylo/hylo.hpp"
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

TEST(EventTimeline, FailedEventsDoNotOccupyWire) {
  EventTimeline tl(2);
  const TimelineEvent dead = tl.issue("comm/gather", 1.0, 5.0, true);
  EXPECT_TRUE(dead.failed);
  // The wire never saw the failed operation: the next op starts on time.
  const TimelineEvent live = tl.issue("comm/gather", 2.0, 1.0, false);
  EXPECT_EQ(live.start_s, 2.0);
  EXPECT_EQ(live.ready_s, 3.0);
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
  // Refresh gathers went through the timeline and the wall clock is the
  // timeline horizon (plus replicated compute), not the lockstep sum.
  EXPECT_GT(trainer.profiler().seconds("comm/gather"), 0.0);
  ASSERT_NE(trainer.comm().timeline(), nullptr);
  EXPECT_GT(trainer.comm().timeline()->horizon(), 0.0);
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
  // Losses, metrics, the modeled comm clock, and the timeline horizon are
  // all bitwise-reproducible. (Wall seconds are not compared: they fold in
  // *measured* replicated compute, which is real time by design.)
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
  }
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.comm_s, b.comm_s);
}

TEST(AsyncTrainer, LockstepDefaultIsUntouchedByAsyncMachinery) {
  // With comm_mode pinned to lockstep the trainer must not create a
  // timeline at all — the default path stays bitwise what it was before
  // the async subsystem existed.
  const DataSplit data = spiral_data();
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  OptimConfig oc;
  Sgd opt(oc);
  TrainConfig tc = async_config(2, 2);
  tc.comm_mode = CommMode::kLockstep;
  Trainer trainer(net, opt, data, tc);
  trainer.run();
  EXPECT_EQ(trainer.comm().timeline(), nullptr);
  EXPECT_FALSE(trainer.comm().async());
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
  // The timeline section rides in the snapshot exactly when async mode is
  // active, so the resumed event queue continues from the same clocks and
  // wire cursor. (Wall seconds fold in measured replicated compute, which
  // the resume contract documents as restarting — not compared.)
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
    }
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

}  // namespace
}  // namespace hylo
