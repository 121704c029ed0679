// Deterministic fault injection: spec parsing, schedule determinism, the
// comm-path accounting split (kRetryUntilSuccess vs kMayFail), optimizer
// stale-curvature degradation, and trainer-level resilience. Every test
// pins cfg.faults (or configure_faults) explicitly so an ambient
// HYLO_FAULTS environment — e.g. the faults_env ctest variant — cannot
// perturb the assertions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "hylo/hylo.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

FaultConfig only_rank_down(std::uint64_t seed, double rate) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.rate = rate;
  cfg.timeout_weight = cfg.straggler_weight = cfg.corrupt_weight = 0.0;
  cfg.rank_down_weight = 1.0;
  return cfg;
}

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

TEST(FaultConfig, ParsesSeedRateAndMix) {
  const FaultConfig plain = FaultConfig::parse("7:0.1");
  EXPECT_EQ(plain.seed, 7u);
  EXPECT_EQ(plain.rate, 0.1);
  EXPECT_EQ(plain.timeout_weight, 1.0);
  EXPECT_EQ(plain.rank_down_weight, 1.0);
  EXPECT_TRUE(plain.enabled());

  // An explicit mix replaces the all-ones default: unnamed kinds are off.
  const FaultConfig mix = FaultConfig::parse("42:0.25:timeout=1,rank_down=2");
  EXPECT_EQ(mix.seed, 42u);
  EXPECT_EQ(mix.timeout_weight, 1.0);
  EXPECT_EQ(mix.straggler_weight, 0.0);
  EXPECT_EQ(mix.corrupt_weight, 0.0);
  EXPECT_EQ(mix.rank_down_weight, 2.0);

  // "corrupt" and "corrupt_payload" are aliases.
  EXPECT_EQ(FaultConfig::parse("1:0.5:corrupt=3").corrupt_weight, 3.0);
  EXPECT_EQ(FaultConfig::parse("1:0.5:corrupt_payload=3").corrupt_weight, 3.0);

  // rate 0 is a valid, disabled config (the bench baseline uses this).
  EXPECT_FALSE(FaultConfig::parse("7:0").enabled());
}

TEST(FaultConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultConfig::parse(""), Error);
  EXPECT_THROW(FaultConfig::parse("7"), Error);
  EXPECT_THROW(FaultConfig::parse("x:0.1"), Error);
  EXPECT_THROW(FaultConfig::parse("-1:0.1"), Error);
  EXPECT_THROW(FaultConfig::parse("7:1.5"), Error);
  EXPECT_THROW(FaultConfig::parse("7:-0.1"), Error);
  EXPECT_THROW(FaultConfig::parse("7:0.1:bogus=1"), Error);
  EXPECT_THROW(FaultConfig::parse("7:0.1:timeout"), Error);
  EXPECT_THROW(FaultConfig::parse("7:0.1:timeout=-1"), Error);
  // rate > 0 with every kind weighted zero can never draw an event.
  EXPECT_THROW(FaultConfig::parse("7:0.1:timeout=0"), Error);
}

TEST(FaultConfig, ReadsEnvironmentSpec) {
  testutil::ScopedEnv env("HYLO_FAULTS", "5:0.2:straggler=2");
  const ResolvedConfig r = resolve_config(TrainConfig{});
  ASSERT_EQ(r.source.at("faults").str(), "env");
  const FaultConfig& cfg = r.faults;
  EXPECT_EQ(cfg.seed, 5u);
  EXPECT_EQ(cfg.rate, 0.2);
  EXPECT_EQ(cfg.straggler_weight, 2.0);
  EXPECT_EQ(cfg.timeout_weight, 0.0);
  env.set(nullptr);
  EXPECT_EQ(resolve_config(TrainConfig{}).source.at("faults").str(),
            "default");
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultConfig cfg = FaultConfig::parse("13:0.3");
  FaultPlan a(cfg), b(cfg);
  int injected = 0;
  for (int i = 0; i < 500; ++i) {
    const FaultEvent ea = a.next(8), eb = b.next(8);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.rank, eb.rank);
    EXPECT_EQ(ea.slowdown, eb.slowdown);
    EXPECT_EQ(ea.retries, eb.retries);
    EXPECT_EQ(ea.recoverable, eb.recoverable);
    if (ea.kind != FaultKind::kNone) ++injected;
  }
  EXPECT_EQ(a.drawn(), 500);
  EXPECT_EQ(b.drawn(), 500);
  // A 30% rate over 500 draws lands well inside [100, 200] for any seed.
  EXPECT_GT(injected, 100);
  EXPECT_LT(injected, 200);

  // A different seed diverges somewhere in the schedule.
  FaultConfig other = cfg;
  other.seed = 14;
  FaultPlan c(other);
  bool diverged = false;
  FaultPlan a2(cfg);
  for (int i = 0; i < 500 && !diverged; ++i)
    diverged = a2.next(8).kind != c.next(8).kind;
  EXPECT_TRUE(diverged);
}

TEST(FaultPlan, RateBoundsAndKindSelection) {
  // rate 0: every draw is kNone (and the plan reports inactive).
  FaultPlan quiet(FaultConfig::parse("7:0"));
  EXPECT_FALSE(quiet.active());
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(quiet.next(4).kind, FaultKind::kNone);

  // rate 1 with a rank_down-only mix: every draw is an unrecoverable
  // rank_down with a sane affected-rank index.
  FaultPlan storm(only_rank_down(3, 1.0));
  for (int i = 0; i < 100; ++i) {
    const FaultEvent ev = storm.next(4);
    EXPECT_EQ(ev.kind, FaultKind::kRankDown);
    EXPECT_FALSE(ev.recoverable);
    EXPECT_GE(ev.rank, 0);
    EXPECT_LT(ev.rank, 4);
  }

  // Straggler slowdowns stay inside the documented 2x..16x band.
  FaultPlan slow(FaultConfig::parse("11:1:straggler=1"));
  for (int i = 0; i < 100; ++i) {
    const FaultEvent ev = slow.next(4);
    EXPECT_EQ(ev.kind, FaultKind::kStraggler);
    EXPECT_GE(ev.slowdown, 2.0);
    EXPECT_LE(ev.slowdown, 16.0);
  }
}

TEST(CommSimFaults, RetryUntilSuccessNeverThrows) {
  // Even a 100% rank_down storm cannot fail a must-complete collective:
  // the fabric re-forms and the extra attempts are charged as time.
  CommSim comm(4, mist_v100());
  comm.configure_faults(only_rank_down(3, 1.0));
  for (int i = 0; i < 20; ++i)
    comm.charge_allreduce(1 << 16, "comm/grad_allreduce",
                          FailMode::kRetryUntilSuccess);
  auto& reg = comm.profiler().registry();
  EXPECT_EQ(reg.counter_value("comm/faults/injected"), 20);
  EXPECT_EQ(reg.counter_value("comm/faults/forced_recovery"), 20);
  EXPECT_EQ(reg.counter_value("comm/faults/unrecoverable"), 0);
  // Each recovery costs strictly more than the clean collective.
  const double clean = 20.0 * allreduce_seconds(comm.model(), 4, 1 << 16);
  EXPECT_GT(comm.comm_seconds(), clean);
}

TEST(CommSimFaults, MayFailThrowsChargedCommFailure) {
  CommSim comm(4, mist_v100());
  comm.configure_faults(only_rank_down(3, 1.0));
  EXPECT_THROW(comm.charge_broadcast(1 << 16, "comm/factor_bcast"), CommFailure);
  auto& reg = comm.profiler().registry();
  EXPECT_EQ(reg.counter_value("comm/faults/injected"), 1);
  EXPECT_EQ(reg.counter_value("comm/faults/rank_down"), 1);
  EXPECT_EQ(reg.counter_value("comm/faults/unrecoverable"), 1);
  // The wasted attempt is charged even though the collective failed...
  EXPECT_GT(comm.profiler().seconds("comm/faults/wasted"), 0.0);
  // ...but the section itself never completed: no seconds, bytes, or msgs.
  EXPECT_EQ(comm.profiler().seconds("comm/factor_bcast"), 0.0);
  EXPECT_EQ(comm.wire_bytes_charged("comm/factor_bcast"), 0);
  EXPECT_EQ(comm.messages("comm/factor_bcast"), 0);
}

TEST(CommSimFaults, FaultsInflateTimeNotWireBytes) {
  // The fault plan perturbs modeled seconds only: the logical payload
  // accounting (bytes/messages per section) is identical to a clean run.
  auto charge_all = [](CommSim& comm) {
    for (int i = 0; i < 40; ++i) {
      comm.charge_allreduce(1 << 14, "comm/grad_allreduce",
                            FailMode::kRetryUntilSuccess);
      comm.charge_allgather(1 << 12, "comm/gather",
                            FailMode::kRetryUntilSuccess);
    }
  };
  CommSim clean(8, mist_v100()), faulty(8, mist_v100());
  FaultConfig cfg = FaultConfig::parse("17:0.5");
  faulty.configure_faults(cfg);
  charge_all(clean);
  charge_all(faulty);
  EXPECT_GT(faulty.comm_seconds(), clean.comm_seconds());
  EXPECT_EQ(faulty.total_wire_bytes(), clean.total_wire_bytes());
  EXPECT_EQ(faulty.total_messages(), clean.total_messages());
  EXPECT_GT(faulty.profiler().registry().counter_value("comm/faults/injected"),
            0);
}

TEST(CommSimFaults, RetryStormLandsInSeparateRetryLedger) {
  // A timeout-only storm at high rate: every retried attempt re-sends its
  // payload, and those bytes must land in total_retry_bytes() — never in
  // total_wire_bytes(), which stays equal to a clean run's total so
  // compression/volume comparisons remain apples-to-apples.
  const index_t payload = 1 << 14;
  CommSim comm(8, mist_v100());
  comm.configure_faults(FaultConfig::parse("9:0.9:timeout=1"));
  for (int i = 0; i < 50; ++i)
    comm.charge_allreduce(payload, "comm/grad_allreduce",
                          FailMode::kRetryUntilSuccess);
  const auto& reg = comm.profiler().registry();
  const std::int64_t retries = reg.counter_value("comm/faults/retries");
  ASSERT_GT(retries, 0);  // rate 0.9 over 50 collectives: storm happened
  // Every retry re-sent exactly one allreduce payload.
  EXPECT_EQ(comm.total_retry_bytes(), payload * retries);
  // The logical wire ledger is what a clean run would have charged.
  CommSim clean(8, mist_v100());
  for (int i = 0; i < 50; ++i)
    clean.charge_allreduce(payload, "comm/grad_allreduce",
                           FailMode::kRetryUntilSuccess);
  EXPECT_EQ(clean.total_retry_bytes(), 0);
  EXPECT_EQ(comm.total_wire_bytes(), clean.total_wire_bytes());
  // Everything-that-moved = logical + waste.
  EXPECT_EQ(comm.total_wire_bytes() + comm.total_retry_bytes(),
            clean.total_wire_bytes() + payload * retries);
}

TEST(OptimizerDegradation, HyloKeepsStaleFactorsOnUnrecoverableGather) {
  Rng rng(5);
  const index_t world = 2, m = 8, din = 6, dout = 5;
  const CaptureSet cap1 = make_capture(rng, world, m, din, dout);
  const CaptureSet cap2 = make_capture(rng, world, m, din, dout);

  OptimConfig cfg;
  cfg.damping = 0.3;
  cfg.rank_ratio = 1.0;
  HyloOptimizer opt(cfg);
  opt.set_policy(HyloOptimizer::Policy::kAlwaysKid);
  opt.begin_epoch(0, false);

  ParamBlock pb;
  CommSim comm(world, mist_v100());
  opt.update_curvature({&pb}, cap1, &comm);
  EXPECT_EQ(opt.layer_staleness(0), 0);
  const Matrix grad = testutil::random_matrix(rng, dout, din);
  const Matrix fresh = opt.preconditioned(grad, 0);

  // Every collective now dies: the refresh must not throw, and the layer
  // keeps serving the factors from the refresh that landed.
  comm.configure_faults(only_rank_down(3, 1.0));
  EXPECT_NO_THROW(opt.update_curvature({&pb}, cap2, &comm));
  EXPECT_EQ(opt.layer_staleness(0), 1);
  EXPECT_EQ(max_abs_diff(opt.preconditioned(grad, 0), fresh), 0.0);
  auto& reg = comm.profiler().registry();
  EXPECT_EQ(reg.counter_value("optim/hylo/stale_refreshes"), 1);

  // Staleness keeps aging across further lost refreshes...
  opt.update_curvature({&pb}, cap1, &comm);
  EXPECT_EQ(opt.layer_staleness(0), 2);

  // ...and one successful refresh resets it.
  comm.configure_faults(FaultConfig{});
  opt.update_curvature({&pb}, cap2, &comm);
  EXPECT_EQ(opt.layer_staleness(0), 0);
}

TEST(OptimizerDegradation, NeverBuiltLayerHasNoFactorsButCounts) {
  Rng rng(6);
  const index_t world = 2;
  const CaptureSet cap = make_capture(rng, world, 8, 6, 5);
  OptimConfig cfg;
  cfg.damping = 0.3;
  HyloOptimizer opt(cfg);
  opt.set_policy(HyloOptimizer::Policy::kAlwaysKid);
  opt.begin_epoch(0, false);

  ParamBlock pb;
  CommSim comm(world, mist_v100());
  comm.configure_faults(only_rank_down(3, 1.0));
  EXPECT_NO_THROW(opt.update_curvature({&pb}, cap, &comm));
  // The very first refresh was lost: no factors exist (step() falls back to
  // the plain SGD direction via layer_ready()), but the staleness age and
  // the stale-refresh counter still record the loss.
  EXPECT_EQ(opt.layer_staleness(0), 1);
  EXPECT_THROW(opt.preconditioned(
                   testutil::random_matrix(rng, 5, 6), 0),
               Error);
  EXPECT_EQ(comm.profiler().registry().counter_value(
                "optim/hylo/stale_refreshes"),
            1);
}

TEST(OptimizerDegradation, SngdKeepsStaleFactors) {
  Rng rng(7);
  const index_t world = 2, m = 8, din = 6, dout = 5;
  const CaptureSet cap1 = make_capture(rng, world, m, din, dout);
  const CaptureSet cap2 = make_capture(rng, world, m, din, dout);
  OptimConfig cfg;
  cfg.damping = 0.3;
  Sngd opt(cfg);
  ParamBlock pb;
  CommSim comm(world, mist_v100());
  opt.update_curvature({&pb}, cap1, &comm);
  const Matrix grad = testutil::random_matrix(rng, dout, din);
  const Matrix fresh = opt.preconditioned(grad, 0);

  comm.configure_faults(only_rank_down(9, 1.0));
  EXPECT_NO_THROW(opt.update_curvature({&pb}, cap2, &comm));
  EXPECT_EQ(opt.layer_staleness(0), 1);
  EXPECT_EQ(max_abs_diff(opt.preconditioned(grad, 0), fresh), 0.0);
  EXPECT_EQ(comm.profiler().registry().counter_value(
                "optim/sngd/stale_refreshes"),
            1);
}

// Seed of a rank_down-only schedule whose first collective lands and whose
// second is lost.
std::uint64_t land_then_lose_seed(index_t world) {
  for (std::uint64_t seed = 1;; ++seed) {
    FaultPlan plan(only_rank_down(seed, 0.5));
    const FaultKind first = plan.next(world).kind;
    if (first == FaultKind::kNone &&
        plan.next(world).kind == FaultKind::kRankDown)
      return seed;
  }
}

template <typename Opt>
struct ExposedOptimizer : Opt {
  using Opt::Opt;
  using Opt::precondition_block;
};

// What one comm mode serves across three refreshes (clean, lost, clean).
struct LostRefreshRun {
  std::vector<Matrix> preconditioned;  ///< after each refresh
  std::vector<index_t> staleness;      ///< after each refresh
  std::int64_t inversion_calls = 0;    ///< comp/inversion bookings
  std::int64_t inversion_samples = 0;  ///< optim/<m>/inversion_seconds
};

template <typename Opt>
LostRefreshRun run_lost_refresh(CommMode mode, const char* method) {
  const index_t world = 2, m = 8, din = 6, dout = 5;
  Rng rng(11);
  const CaptureSet caps[] = {make_capture(rng, world, m, din, dout),
                             make_capture(rng, world, m, din, dout),
                             make_capture(rng, world, m, din, dout)};
  const Matrix grad = testutil::random_matrix(rng, dout, din);
  OptimConfig cfg;
  cfg.damping = 0.3;
  cfg.stat_decay = 0.5;
  cfg.rank_ratio = 0.5;
  ExposedOptimizer<Opt> opt(cfg);
  if constexpr (std::is_same_v<Opt, HyloOptimizer>) {
    opt.set_policy(HyloOptimizer::Policy::kAlwaysKid);
    opt.begin_epoch(0, false);
  }
  ParamBlock pb;
  CommSim comm(world, mist_v100());
  comm.set_mode(mode);
  LostRefreshRun out;
  for (int refresh = 0; refresh < 3; ++refresh) {
    comm.configure_faults(refresh == 1
                              ? only_rank_down(land_then_lose_seed(world), 0.5)
                              : FaultConfig{});
    opt.update_curvature({&pb}, caps[refresh], &comm);
    if (comm.async()) {
      // Let every chain complete, then commit (or degrade) it.
      comm.timeline()->barrier_at(comm.timeline()->horizon());
      opt.poll_async(comm);
    }
    pb.gw = grad;
    opt.precondition_block(pb, 0);
    out.preconditioned.push_back(pb.gw);
    out.staleness.push_back(opt.layer_staleness(0));
  }
  auto& reg = comm.profiler().registry();
  out.inversion_calls = comm.profiler().calls("comp/inversion");
  out.inversion_samples =
      reg.histogram(std::string("optim/") + method + "/inversion_seconds")
          .count();
  return out;
}

template <typename Opt>
void expect_lost_refresh_mode_parity(const char* method,
                                     std::int64_t inversion_calls,
                                     std::int64_t inversion_samples) {
  const LostRefreshRun lock = run_lost_refresh<Opt>(CommMode::kLockstep, method);
  const LostRefreshRun async = run_lost_refresh<Opt>(CommMode::kAsync, method);
  for (std::size_t r = 0; r < 3; ++r) {
    const Matrix& a = lock.preconditioned[r];
    const Matrix& b = async.preconditioned[r];
    ASSERT_EQ(a.size(), b.size()) << method;
    const std::size_t bytes =
        sizeof(real_t) * static_cast<std::size_t>(a.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0)
        << method << " refresh " << r << ": lockstep and async serve "
        << "curvature that differs by " << max_abs_diff(a, b) << " max-abs";
    EXPECT_EQ(lock.staleness[r], async.staleness[r]) << method << " " << r;
  }
  EXPECT_EQ(lock.staleness, (std::vector<index_t>{0, 1, 0})) << method;
  // Measured compute is booked once per built candidate, lost or not.
  EXPECT_EQ(lock.inversion_calls, inversion_calls) << method;
  EXPECT_EQ(async.inversion_calls, inversion_calls) << method;
  EXPECT_EQ(lock.inversion_samples, inversion_samples) << method;
  EXPECT_EQ(async.inversion_samples, inversion_samples) << method;
}

TEST(OptimizerDegradation, LostRefreshCommitsIdenticallyInBothModes) {
  // A refresh whose first collective lands and whose second is lost commits
  // nothing in either comm mode: the next preconditioned gradients and
  // staleness ages are bitwise equal in lockstep and async. KFAC, EKFAC
  // and KBFGS-L book comp/inversion once per refresh, HyLo once per layer
  // (one layer here).
  expect_lost_refresh_mode_parity<KFac>("kfac", 3, 3);
  expect_lost_refresh_mode_parity<EKFac>("ekfac", 3, 3);
  expect_lost_refresh_mode_parity<KBfgs>("kbfgs", 3, 3);
  expect_lost_refresh_mode_parity<Sngd>("sngd", 3, 3);
  expect_lost_refresh_mode_parity<HyloOptimizer>("hylo", 3, 3);
}

TEST(TrainerFaults, CompletesUnderHeavyGatherFailure) {
  // A rank_down-only storm at 25% per collective: curvature refreshes keep
  // losing their gathers/broadcasts, yet training must run to completion
  // with the degradation visible in the counters.
  const DataSplit data = make_spirals(512, 128, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 7);
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 2;
  oc.rank_ratio = 0.25;
  HyloOptimizer opt(oc);
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 32;
  tc.world = 4;
  tc.interconnect = mist_v100();
  tc.faults = FaultConfig::parse("9:0.25:rank_down=1");
  Trainer trainer(net, opt, data, tc);
  const TrainResult res = trainer.run();

  EXPECT_EQ(res.epochs.size(), 3u);
  EXPECT_TRUE(std::isfinite(res.best_metric()));
  EXPECT_GT(res.best_metric(), 0.0);
  auto& reg = trainer.comm().profiler().registry();
  EXPECT_GT(reg.counter_value("comm/faults/injected"), 0);
  EXPECT_GT(reg.counter_value("comm/faults/unrecoverable"), 0);
  // Gradient allreduces survived every hit as forced recoveries.
  EXPECT_GT(reg.counter_value("comm/faults/forced_recovery"), 0);
  EXPECT_GT(reg.counter_value("optim/hylo/stale_refreshes"), 0);
  ASSERT_NE(trainer.comm().fault_plan(), nullptr);
  EXPECT_GT(trainer.comm().fault_plan()->drawn(), 0);
}

TEST(TrainerFaults, SameSeedRunsAreIdentical) {
  const DataSplit data = make_spirals(512, 128, 2, 0.08, 11);
  struct Snapshot {
    TrainResult res;
    std::int64_t wire_bytes = 0, injected = 0, drawn = 0;
  };
  auto run_once = [&] {
    Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
    OptimConfig oc;
    oc.lr = 0.05;
    oc.damping = 0.3;
    oc.update_freq = 2;
    HyloOptimizer opt(oc);
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 32;
    tc.world = 4;
    tc.interconnect = mist_v100();
    tc.faults = FaultConfig::parse("21:0.2");
    Trainer trainer(net, opt, data, tc);
    Snapshot s;
    s.res = trainer.run();
    s.wire_bytes = trainer.comm().total_wire_bytes();
    s.injected = trainer.comm().profiler().registry().counter_value(
        "comm/faults/injected");
    s.drawn = trainer.comm().fault_plan()->drawn();
    return s;
  };
  const Snapshot a = run_once(), b = run_once();
  ASSERT_EQ(a.res.epochs.size(), b.res.epochs.size());
  for (std::size_t e = 0; e < a.res.epochs.size(); ++e) {
    EXPECT_EQ(a.res.epochs[e].train_loss, b.res.epochs[e].train_loss);
    EXPECT_EQ(a.res.epochs[e].test_metric, b.res.epochs[e].test_metric);
    EXPECT_EQ(a.res.epochs[e].wall_seconds, b.res.epochs[e].wall_seconds);
  }
  EXPECT_EQ(a.res.comm_seconds, b.res.comm_seconds);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.drawn, b.drawn);
  EXPECT_GT(a.injected, 0);
}

TEST(TrainerFaults, DisabledFaultsAreBitwiseInvisible) {
  // With HYLO_FAULTS unset, a run with no fault config and a run with an
  // explicitly disabled config must be bitwise identical: the comm path
  // takes zero new branches when the plan is absent.
  const testutil::ScopedEnv no_faults("HYLO_FAULTS", nullptr);
  const DataSplit data = make_spirals(512, 128, 2, 0.08, 11);
  struct Snapshot {
    TrainResult res;
    std::int64_t wire_bytes = 0, messages = 0;
  };
  auto run_once = [&](bool with_disabled_config) {
    Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
    OptimConfig oc;
    oc.lr = 0.05;
    oc.damping = 0.3;
    oc.update_freq = 2;
    HyloOptimizer opt(oc);
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 32;
    tc.world = 4;
    tc.interconnect = mist_v100();
    if (with_disabled_config) tc.faults = FaultConfig{};
    Trainer trainer(net, opt, data, tc);
    Snapshot s;
    s.res = trainer.run();
    s.wire_bytes = trainer.comm().total_wire_bytes();
    s.messages = trainer.comm().total_messages();
    EXPECT_FALSE(trainer.comm().faults_active());
    EXPECT_EQ(trainer.comm().profiler().registry().counter_value(
                  "comm/faults/injected"),
              0);
    return s;
  };
  const Snapshot base = run_once(false), off = run_once(true);
  ASSERT_EQ(base.res.epochs.size(), off.res.epochs.size());
  for (std::size_t e = 0; e < base.res.epochs.size(); ++e) {
    EXPECT_EQ(base.res.epochs[e].train_loss, off.res.epochs[e].train_loss);
    EXPECT_EQ(base.res.epochs[e].test_loss, off.res.epochs[e].test_loss);
    EXPECT_EQ(base.res.epochs[e].test_metric, off.res.epochs[e].test_metric);
  }
  EXPECT_EQ(base.res.comm_seconds, off.res.comm_seconds);
  EXPECT_EQ(base.wire_bytes, off.wire_bytes);
  EXPECT_EQ(base.messages, off.messages);
}

}  // namespace
}  // namespace hylo
