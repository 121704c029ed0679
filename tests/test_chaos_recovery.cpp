// Silent-corruption guards + checkpoint-rollback self-healing (DESIGN.md
// §16). The property under test: for any seeded fault + silent-corruption
// schedule, training either completes with finite results or exits with a
// loud diagnostic — never a silent wrong result — and every rollback-resume
// is deterministic for a fixed seed.
//
// Env-proofing: every Trainer here pins its fault schedule, checkpoint
// cadence (a non-empty dir with every=0 pins snapshots off), and recovery
// policy explicitly, so the ambient HYLO_FAULTS / HYLO_RECOVER /
// HYLO_CKPT_* environment of the chaos_env ctest variants cannot change
// any outcome. Comm mode is left unpinned where both modes must hold —
// the async variant re-runs those assertions under HYLO_COMM=async.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hylo/hylo.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

namespace fs = std::filesystem;

std::string tmp_dir(const std::string& name) {
  // PID-qualified: ctest runs this binary three times concurrently (plain +
  // the two chaos_env variants), and a shared path would race on
  // remove_all vs. a sibling's live snapshots.
  const std::string dir = "/tmp/hylo_test_chaos_" +
                          std::to_string(::getpid()) + "_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A silent_corrupt-only fault mix at the given per-collective rate and
/// escape probability (escape=1 turns every event into real bit-flips).
FaultConfig silent_storm(std::uint64_t seed, double rate, double escape) {
  std::ostringstream spec;
  spec << seed << ":" << rate << ":silent=1,escape=" << escape;
  return FaultConfig::parse(spec.str());
}

ckpt::CkptConfig no_snapshots() {
  ckpt::CkptConfig c;
  c.dir = "/tmp/hylo_test_chaos_unused";
  c.every = 0;  // non-empty dir + every=0 pins checkpointing off
  return c;
}

// ---------------------------------------------------------------------------
// Spec parsing

TEST(SilentCorrupt, ParsesMixAndEscape) {
  const FaultConfig cfg = FaultConfig::parse("42:0.2:silent=1,escape=0.25");
  EXPECT_EQ(cfg.silent_weight, 1.0);
  EXPECT_EQ(cfg.sdc_escape, 0.25);
  EXPECT_EQ(cfg.timeout_weight, 0.0);  // explicit mix zeroes unnamed kinds
  EXPECT_EQ(cfg.rank_down_weight, 0.0);
  // "silent" and "silent_corrupt" are aliases; escape defaults to 0.25.
  EXPECT_EQ(FaultConfig::parse("1:0.5:silent_corrupt=2").silent_weight, 2.0);
  EXPECT_EQ(FaultConfig::parse("1:0.5:silent=1").sdc_escape, 0.25);
  // The default all-ones mix does NOT include silent corruption: guards
  // and bit-flips never appear unless a spec asks for them.
  EXPECT_EQ(FaultConfig::parse("7:0.1").silent_weight, 0.0);
  EXPECT_THROW(FaultConfig::parse("1:0.5:silent=1,escape=1.5"), Error);
  EXPECT_THROW(FaultConfig::parse("1:0.5:escape=-0.1"), Error);
}

TEST(SilentCorrupt, RecoverySpecParsing) {
  EXPECT_FALSE(RecoveryConfig::parse("off").enabled);
  EXPECT_FALSE(RecoveryConfig::parse("").enabled);
  const RecoveryConfig on = RecoveryConfig::parse("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.max_rollbacks, 3);
  const RecoveryConfig full = RecoveryConfig::parse("5:40:0.25");
  EXPECT_TRUE(full.enabled);
  EXPECT_EQ(full.max_rollbacks, 5);
  EXPECT_EQ(full.first_order_iters, 40);
  EXPECT_EQ(full.lr_backoff, 0.25);
  EXPECT_EQ(RecoveryConfig::parse("2").max_rollbacks, 2);
  EXPECT_EQ(RecoveryConfig::parse("2:7").first_order_iters, 7);
  EXPECT_THROW(RecoveryConfig::parse("zero"), Error);
  EXPECT_THROW(RecoveryConfig::parse("0"), Error);
  EXPECT_THROW(RecoveryConfig::parse("-1"), Error);
  EXPECT_THROW(RecoveryConfig::parse("3:5:1.5"), Error);
  EXPECT_THROW(RecoveryConfig::parse("3:5:0"), Error);
  EXPECT_THROW(RecoveryConfig::parse("3:5:0.5:9"), Error);

  testutil::ScopedEnv spec("HYLO_RECOVER", "4:10");
  TrainConfig tc;  // recovery needs a cadence to roll back to
  tc.checkpoint.dir = "unused";
  tc.checkpoint.every = 4;
  const ResolvedConfig r = resolve_config(tc);
  ASSERT_EQ(r.source.at("recovery").str(), "env");
  const RecoveryConfig& env = r.recovery;
  EXPECT_EQ(env.max_rollbacks, 4);
  EXPECT_EQ(env.first_order_iters, 10);
  spec.set(nullptr);
  EXPECT_EQ(resolve_config(tc).source.at("recovery").str(), "default");
}

TEST(SilentCorrupt, PolicyLadderAndBudget) {
  RecoveryConfig cfg = RecoveryConfig::parse("3");
  RecoveryPolicy policy(cfg);
  // Consecutive rollbacks to the same snapshot escalate the ladder.
  const RecoveryAction r1 = policy.on_trigger("snap-a");
  EXPECT_EQ(r1.rung, 1);
  EXPECT_FALSE(r1.first_order);
  EXPECT_FALSE(r1.reduce_lr);
  const RecoveryAction r2 = policy.on_trigger("snap-a");
  EXPECT_EQ(r2.rung, 2);
  EXPECT_TRUE(r2.first_order);
  EXPECT_FALSE(r2.reduce_lr);
  const RecoveryAction r3 = policy.on_trigger("snap-a");
  EXPECT_EQ(r3.rung, 3);
  EXPECT_TRUE(r3.first_order);
  EXPECT_TRUE(r3.reduce_lr);
  EXPECT_EQ(policy.rollbacks(), 3);
  EXPECT_EQ(policy.budget_left(), 0);
  // Budget spent: the fourth trigger must fail loudly, not roll back.
  EXPECT_TRUE(policy.on_trigger("snap-a").exhausted);
  EXPECT_EQ(policy.rollbacks(), 3);

  // A different target resets the rung to 1 (fresh incident).
  RecoveryPolicy fresh(cfg);
  fresh.on_trigger("snap-a");
  const RecoveryAction other = fresh.on_trigger("snap-b");
  EXPECT_EQ(other.rung, 1);
}

// ---------------------------------------------------------------------------
// Payload corruption mechanics

TEST(SilentCorrupt, CorruptValuesIsDeterministic) {
  Rng rng(3);
  Matrix m(8, 8);
  for (index_t i = 0; i < m.size(); ++i) m[i] = rng.normal();
  Matrix a = m, b = m;
  corrupt_values(a, 1234);
  corrupt_values(b, 1234);
  index_t diffs = 0;
  for (index_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "same seed must flip the same bits";
    if (std::memcmp(&a[i], &m[i], sizeof(real_t)) != 0) ++diffs;
  }
  EXPECT_GE(diffs, 1);  // 1..3 bit flips, possibly in one value
  EXPECT_LE(diffs, 3);
  // A different seed produces a different corruption.
  Matrix c = m;
  corrupt_values(c, 1235);
  bool any_diff = false;
  for (index_t i = 0; i < m.size(); ++i)
    any_diff = any_diff || std::memcmp(&a[i], &c[i], sizeof(real_t)) != 0;
  EXPECT_TRUE(any_diff);
  // Empty payloads are a no-op, not a crash.
  Matrix empty;
  corrupt_values(empty, 7);
}

TEST(SilentCorrupt, ScheduleIsPureFunctionOfSeed) {
  const FaultConfig cfg = silent_storm(13, 1.0, 0.5);
  FaultPlan a(cfg), b(cfg);
  index_t detected = 0, escaped = 0;
  for (int i = 0; i < 200; ++i) {
    const FaultEvent ea = a.next(4), eb = b.next(4);
    ASSERT_EQ(ea.kind, FaultKind::kSilentCorrupt);
    EXPECT_EQ(ea.detected, eb.detected);
    EXPECT_EQ(ea.payload_seed, eb.payload_seed);
    if (ea.detected) {
      ++detected;
      EXPECT_EQ(ea.retries, 1);  // the rejected attempt is retransmitted
    } else {
      ++escaped;
      EXPECT_NE(ea.payload_seed, 0u);
    }
  }
  // escape=0.5 over 200 events: both outcomes must occur.
  EXPECT_GT(detected, 20);
  EXPECT_GT(escaped, 20);
}

TEST(SilentCorrupt, PreexistingMixesReplayUnchanged) {
  // The terminal-bucket walk must keep schedules for specs without a
  // silent weight byte-identical to pre-guard builds: rank_down/rank_lost
  // remain terminal when every downstream weight is zero.
  const FaultConfig cfg = FaultConfig::parse("11:1.0:rank_down=1");
  FaultPlan plan(cfg);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(plan.next(4).kind, FaultKind::kRankDown);
}

TEST(SilentCorrupt, DetectedCorruptionIsCaughtAndCharged) {
  // escape=0: every silent_corrupt event is caught by the transport
  // checksum. Must-complete collectives retransmit; no ticket ever leaks.
  CommSim comm(4, mist_v100());
  comm.configure_faults(silent_storm(5, 1.0, 0.0));
  for (int i = 0; i < 10; ++i)
    comm.charge_allreduce(1 << 14, "comm/grad_allreduce",
                          FailMode::kRetryUntilSuccess);
  auto& reg = comm.profiler().registry();
  EXPECT_EQ(reg.counter_value("comm/faults/injected"), 10);
  EXPECT_EQ(reg.counter_value("comm/faults/sdc_detected"), 10);
  EXPECT_EQ(reg.counter_value("comm/faults/sdc_escaped"), 0);
  EXPECT_EQ(reg.counter_value("comm/faults/retries"), 10);
  EXPECT_FALSE(comm.take_silent_corruption().has_value());
  // The checksum + retransmission cost strictly exceeds the clean wire.
  const double clean = 10.0 * allreduce_seconds(comm.model(), 4, 1 << 14);
  EXPECT_GT(comm.comm_seconds(), clean);

  // Under kMayFail, a caught corruption drops the collective loudly.
  CommSim strict(4, mist_v100());
  strict.configure_faults(silent_storm(5, 1.0, 0.0));
  EXPECT_THROW(strict.charge_broadcast(1 << 14, "comm/factor_bcast"),
               CommFailure);
  EXPECT_EQ(strict.profiler().registry().counter_value(
                "comm/faults/unrecoverable"),
            1);
}

TEST(SilentCorrupt, EscapedCorruptionFlipsBitsInPayload) {
  // escape=1: every event slips past the checksum, so the collective hands
  // its caller a ticket, and the payload the caller corrupts with it must
  // actually differ from the clean one. A clean wire hands out no ticket.
  auto run = [](bool faulty) {
    CommSim comm(2, mist_v100());
    if (faulty) comm.configure_faults(silent_storm(23, 1.0, 1.0));
    Rng rng(9);
    Matrix m(4, 4);
    for (index_t i = 0; i < m.size(); ++i) m[i] = rng.normal();
    comm.charge_allreduce(comm.wire_bytes(m.size()), "comm/grad_allreduce",
                          FailMode::kRetryUntilSuccess);
    const auto ticket = comm.take_silent_corruption();
    EXPECT_EQ(ticket.has_value(), faulty);
    if (ticket) corrupt_values(m, *ticket);
    return m;
  };
  const Matrix clean = run(false), corrupted = run(true);
  bool differs = false;
  for (index_t i = 0; i < clean.size(); ++i)
    differs = differs || std::memcmp(clean.data() + i, corrupted.data() + i,
                                     sizeof(real_t)) != 0;
  EXPECT_TRUE(differs) << "an escaped event must corrupt the payload";
}

TEST(SilentCorrupt, UnconsumedTicketDiesAtNextCollective) {
  // A ticket from charge N must never leak into collective N+2: the next
  // charge clears any pending ticket before drawing its own fault.
  CommSim comm(4, mist_v100());
  comm.configure_faults(silent_storm(23, 1.0, 1.0));
  comm.charge_allgather(1 << 12, "comm/gather");
  EXPECT_TRUE(comm.take_silent_corruption().has_value());
  comm.charge_allgather(1 << 12, "comm/gather");
  comm.charge_allgather(1 << 12, "comm/gather");  // clears ticket #2
  ASSERT_TRUE(comm.take_silent_corruption().has_value());
  EXPECT_FALSE(comm.take_silent_corruption().has_value());  // consume-once
}

// ---------------------------------------------------------------------------
// Guard gates

struct TinyRun {
  TrainResult res;
  std::int64_t guard_rejects = 0, stale = 0, escaped = 0;
  std::vector<real_t> losses;
  bool threw = false;
  bool nonfinite = false;
};

TinyRun train_tiny(const std::string& optimizer, std::uint64_t net_seed,
                   TrainConfig tc, OptimConfig oc,
                   Trainer::EpochHook hook = nullptr) {
  const DataSplit data = make_spirals(512, 128, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16, 16}, 2, net_seed);
  auto opt = make_optimizer(optimizer, oc);
  Trainer trainer(net, *opt, data, tc);
  if (hook) trainer.set_epoch_hook(std::move(hook));
  TinyRun out;
  try {
    out.res = trainer.run();
  } catch (const Error&) {
    out.threw = true;
  }
  const auto& reg = trainer.comm().profiler().registry();
  for (const char* m : {"hylo", "sngd", "kfac", "ekfac", "kbfgs"}) {
    out.guard_rejects += reg.counter_value(std::string("optim/") + m +
                                           "/guard_rejects");
    out.stale += reg.counter_value(std::string("optim/") + m +
                                   "/stale_refreshes");
  }
  out.escaped = reg.counter_value("comm/faults/sdc_escaped");
  for (const auto& e : out.res.epochs) {
    out.losses.push_back(e.train_loss);
    out.nonfinite = out.nonfinite || !std::isfinite(e.train_loss) ||
                    !std::isfinite(e.test_loss);
  }
  return out;
}

TrainConfig tiny_config(index_t epochs = 2) {
  TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.world = 4;
  tc.interconnect = mist_v100();
  tc.faults = FaultConfig{};       // pin: no injection
  tc.checkpoint = no_snapshots();  // pin: no snapshots
  tc.recovery = RecoveryConfig{};  // pin: no rollbacks
  return tc;
}

OptimConfig tiny_optim() {
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 2;
  oc.rank_ratio = 0.25;
  return oc;
}

TEST(ChaosGuards, GatesAreBitwiseInvisibleOnCleanRuns) {
  // Default-on guard gates only reject non-finite/exploding candidates, so
  // a clean (fault-free) run commits exactly what a guards-off run does.
  for (const char* name : {"HyLo", "SNGD", "KFAC"}) {
    OptimConfig on = tiny_optim(), off = tiny_optim();
    off.guard_gates = false;
    const TinyRun a = train_tiny(name, 7, tiny_config(), on);
    const TinyRun b = train_tiny(name, 7, tiny_config(), off);
    ASSERT_FALSE(a.threw);
    ASSERT_FALSE(b.threw);
    ASSERT_EQ(a.losses.size(), b.losses.size());
    for (std::size_t i = 0; i < a.losses.size(); ++i)
      EXPECT_EQ(a.losses[i], b.losses[i]) << name << " epoch " << i;
    EXPECT_EQ(a.guard_rejects, 0);
    EXPECT_EQ(b.guard_rejects, 0);
  }
}

TEST(ChaosGuards, GatesRejectPoisonedRefreshesAndDegradeToStale) {
  // A heavy escaped-corruption storm: with gates on, poisoned factor
  // candidates are rejected and the layers degrade to stale factors via
  // the PR-4 machinery — with accounting in optim/<m>/guard_rejects.
  // Seed 7 over three epochs lands at least one exponent-bit flip in every
  // optimizer's factor payloads — a mantissa flip corrupts silently but
  // stays inside the sanity bounds, which is exactly why layer 2 (rollback)
  // exists on top of the gates.
  for (const char* name : {"SNGD", "KFAC", "HyLo"}) {
    TrainConfig tc = tiny_config(3);
    tc.faults = silent_storm(7, 0.8, 1.0);
    OptimConfig oc = tiny_optim();
    oc.update_freq = 1;  // maximize corrupted refreshes
    const TinyRun r = train_tiny(name, 7, tc, oc);
    EXPECT_GT(r.escaped, 0) << name;
    EXPECT_GT(r.guard_rejects, 0) << name << ": gates never fired";
    EXPECT_GE(r.stale, r.guard_rejects)
        << name << ": every reject must degrade to stale";
    // Completing with gates on means completing finite.
    if (!r.threw) {
      EXPECT_FALSE(r.nonfinite) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Rollback recovery

/// Poison hook: at the end of epoch `at`, overwrite one live weight with
/// NaN — a deterministic stand-in for corruption the guards missed. With
/// `times` > 1 the poison re-applies on re-runs (testing budget exhaustion).
Trainer::EpochHook poison_after_epoch(index_t at, int times = 1) {
  auto budget = std::make_shared<int>(times);
  return [at, budget](const EpochStats& stats, Network& net) {
    if (stats.epoch != at || *budget <= 0) return;
    --*budget;
    auto blocks = net.param_blocks();
    ASSERT_FALSE(blocks.empty());
    // The *last* block feeds softmax directly: a NaN logit is guaranteed to
    // reach the loss (a hidden-layer NaN would be squashed by ReLU's
    // `x > 0` mask and never trip the trigger).
    blocks.back()->w[0] = std::numeric_limits<real_t>::quiet_NaN();
  };
}

TEST(ChaosRecovery, RollsBackToVerifiedGoodSnapshotAndCompletes) {
  const std::string dir = tmp_dir("rollback");
  TrainConfig tc = tiny_config(3);
  tc.checkpoint.dir = dir;
  tc.checkpoint.every = 2;
  tc.checkpoint.keep = 2;
  tc.recovery = RecoveryConfig::parse("3");
  const TinyRun r =
      train_tiny("SNGD", 7, tc, tiny_optim(), poison_after_epoch(0));
  ASSERT_FALSE(r.threw);
  EXPECT_EQ(r.res.rollbacks, 1);
  EXPECT_FALSE(r.nonfinite);
  ASSERT_EQ(r.res.epochs.size(), 3u);
  // The re-run window replaced the poisoned epoch stats: one entry per
  // epoch, in order.
  for (index_t e = 0; e < 3; ++e) EXPECT_EQ(r.res.epochs[e].epoch, e);
  fs::remove_all(dir);
}

TEST(ChaosRecovery, NonFiniteLossRollsBackBeforeTheRefresh) {
  // The poisoned weights make epoch 1's first loss NaN, on a refresh
  // iteration. The trigger fires before the optimizer consumes that
  // iteration's captures, so no poisoned candidate reaches the guard gates:
  // the rollback is the only trace the poison leaves.
  for (const char* name : {"HyLo", "SNGD", "KFAC", "EKFAC", "KBFGS-L"}) {
    const std::string dir = tmp_dir(std::string("nan_first_") + name);
    TrainConfig tc = tiny_config(2);
    tc.checkpoint.dir = dir;
    tc.checkpoint.every = 2;
    tc.recovery = RecoveryConfig::parse("3");
    const TinyRun r =
        train_tiny(name, 7, tc, tiny_optim(), poison_after_epoch(0));
    ASSERT_FALSE(r.threw) << name;
    EXPECT_EQ(r.res.rollbacks, 1) << name;
    EXPECT_EQ(r.guard_rejects, 0) << name;
    EXPECT_EQ(r.stale, 0) << name;
    fs::remove_all(dir);
  }
}

TEST(ChaosRecovery, ResumedRunRollsBackToTheSnapshotItResumedFrom) {
  // The poison lands at the end of epoch 0, right after the snapshot at
  // iteration 4. A run resumed from that snapshot must have it as its
  // rollback target, and so heal exactly as the uninterrupted run does.
  const std::string dir = tmp_dir("resume_target");
  TrainConfig tc = tiny_config(3);
  tc.checkpoint.dir = dir;
  tc.checkpoint.every = 2;
  tc.checkpoint.keep = 0;
  tc.recovery = RecoveryConfig::parse("3");
  const DataSplit data = make_spirals(512, 128, 2, 0.08, 11);
  struct Out {
    TrainResult res;
    std::vector<real_t> weights;
  };
  auto train = [&](const std::string& resume_from) {
    Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 7);
    auto opt = make_optimizer("SNGD", tiny_optim());
    TrainConfig c = tc;
    if (!resume_from.empty()) c.checkpoint.dir = dir + "/resumed";
    Trainer trainer(net, *opt, data, c);
    trainer.set_epoch_hook(poison_after_epoch(0));
    Out out;
    out.res = resume_from.empty() ? trainer.run() : trainer.resume(resume_from);
    for (auto* pb : net.param_blocks())
      out.weights.insert(out.weights.end(), pb->w.data(),
                         pb->w.data() + pb->w.size());
    for (auto pp : net.plain_params())
      out.weights.insert(out.weights.end(), pp.value->begin(),
                         pp.value->end());
    return out;
  };
  const Out full = train("");
  ASSERT_EQ(full.res.rollbacks, 1);
  const Out resumed = train(dir + "/snapshot-00000004.hysnp");
  EXPECT_EQ(resumed.res.rollbacks, 1);
  ASSERT_EQ(resumed.res.epochs.size(), full.res.epochs.size());
  for (std::size_t e = 0; e < full.res.epochs.size(); ++e)
    EXPECT_EQ(resumed.res.epochs[e].train_loss, full.res.epochs[e].train_loss)
        << "epoch " << e;
  ASSERT_EQ(resumed.weights.size(), full.weights.size());
  for (std::size_t i = 0; i < full.weights.size(); ++i)
    ASSERT_EQ(resumed.weights[i], full.weights[i]) << "weight " << i;
  fs::remove_all(dir);
}

TEST(ChaosRecovery, RollbackRunsAreDeterministic) {
  // Two identical poisoned runs — rollback, restore, ladder and all — must
  // produce identical modeled results (bitwise-replayable recovery).
  auto run_once = [](const std::string& dir) {
    TrainConfig tc = tiny_config(3);
    tc.checkpoint.dir = dir;
    tc.checkpoint.every = 2;
    tc.recovery = RecoveryConfig::parse("3");
    return train_tiny("HyLo", 7, tc, tiny_optim(), poison_after_epoch(0));
  };
  const std::string da = tmp_dir("det_a"), db = tmp_dir("det_b");
  const TinyRun a = run_once(da), b = run_once(db);
  ASSERT_FALSE(a.threw);
  ASSERT_FALSE(b.threw);
  EXPECT_EQ(a.res.rollbacks, 1);
  EXPECT_EQ(b.res.rollbacks, a.res.rollbacks);
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    EXPECT_EQ(a.losses[i], b.losses[i]);
  EXPECT_EQ(a.res.comm_seconds, b.res.comm_seconds);
  fs::remove_all(da);
  fs::remove_all(db);
}

TEST(ChaosRecovery, ExhaustedBudgetFailsLoudly) {
  // The poison re-applies on every re-run: recovery cannot help, and after
  // the budget is spent the run must exit with a loud diagnostic instead
  // of looping or silently emitting NaN results.
  const std::string dir = tmp_dir("exhaust");
  TrainConfig tc = tiny_config(3);
  tc.checkpoint.dir = dir;
  tc.checkpoint.every = 2;
  tc.recovery = RecoveryConfig::parse("2:4");
  const DataSplit data = make_spirals(512, 128, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 7);
  auto opt = make_optimizer("SNGD", tiny_optim());
  Trainer trainer(net, *opt, data, tc);
  trainer.set_epoch_hook(poison_after_epoch(0, /*times=*/100));
  EXPECT_THROW(trainer.run(), Error);
  EXPECT_EQ(trainer.recovery().rollbacks(), 2);
  EXPECT_EQ(trainer.comm().profiler().registry().counter_value(
                "recover/rollbacks"),
            2);
  fs::remove_all(dir);
}

TEST(ChaosRecovery, PinnedSnapshotSurvivesRotation) {
  // Satellite: ckpt::retain_last must never delete the pinned verified-
  // good snapshot, even when it falls out of the keep window.
  const std::string dir = tmp_dir("retain");
  auto touch = [&](int iter) {
    char name[40];
    std::snprintf(name, sizeof(name), "snapshot-%08d.hysnp", iter);
    const std::string path = (fs::path(dir) / name).string();
    std::ofstream(path) << "x";
    return path;
  };
  const std::string pinned = touch(2);
  for (int i = 4; i <= 12; i += 2) touch(i);
  ckpt::retain_last(dir, 2, pinned);
  const auto left = ckpt::list_snapshots(dir);
  ASSERT_EQ(left.size(), 3u);  // pin + the newest two
  EXPECT_EQ(left.front(), pinned);
  // Without a pin the same call would have dropped it.
  ckpt::retain_last(dir, 2, "");
  EXPECT_EQ(ckpt::list_snapshots(dir).size(), 2u);
  fs::remove_all(dir);
}

TEST(ChaosRecovery, RecoveryRequiresCheckpointCadence) {
  const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16}, 2, 7);
  Sgd opt(tiny_optim());
  TrainConfig tc = tiny_config(1);
  tc.recovery = RecoveryConfig::parse("on");  // but snapshots pinned off
  EXPECT_THROW(Trainer(net, opt, data, tc), Error);
}

TEST(ChaosRecovery, DisabledRecoveryIsBitwiseInvisible) {
  // With recovery off (the default), a run with the subsystem pinned off
  // and a run with it wholly unset are identical — and HYLO_RECOVER must
  // not leak in when the config pins it. The guard restores the ambient
  // spec the chaos_env ctest variants rely on for the rest of the suite.
  const testutil::ScopedEnv off("HYLO_RECOVER", "off");
  auto run_once = [](bool pin_off, const std::string& dir) {
    TrainConfig tc = tiny_config(2);
    tc.checkpoint.dir = dir;
    tc.checkpoint.every = 4;
    if (!pin_off) tc.recovery.reset();  // env "off" applies
    return train_tiny("HyLo", 7, tc, tiny_optim());
  };
  const std::string da = tmp_dir("off_a"), db = tmp_dir("off_b");
  const TinyRun a = run_once(true, da), b = run_once(false, db);
  ASSERT_FALSE(a.threw);
  ASSERT_FALSE(b.threw);
  EXPECT_EQ(a.res.rollbacks, 0);
  EXPECT_EQ(b.res.rollbacks, 0);
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    EXPECT_EQ(a.losses[i], b.losses[i]);
  EXPECT_EQ(a.res.comm_seconds, b.res.comm_seconds);
  fs::remove_all(da);
  fs::remove_all(db);
}

// ---------------------------------------------------------------------------
// The chaos property, across every curvature optimizer and both comm modes

TEST(ChaosProperty, CompletesOrFailsLoudlyNeverSilentlyWrong) {
  // For a seeded silent-corruption storm: under guards + recovery, every
  // curvature optimizer in both comm modes either completes with finite
  // results or exits through a typed hylo::Error — a run that "completes"
  // with non-finite epoch stats would be a silent wrong result.
  int completed = 0;
  for (const char* name : {"HyLo", "SNGD", "KFAC", "EKFAC", "KBFGS-L"}) {
    for (const CommMode mode : {CommMode::kLockstep, CommMode::kAsync}) {
      const std::string dir = tmp_dir(std::string("prop_") + name +
                                      (mode == CommMode::kAsync ? "_a" : "_l"));
      TrainConfig tc = tiny_config(2);
      tc.comm_mode = mode;
      tc.faults = silent_storm(31, 0.5, 0.5);
      tc.checkpoint.dir = dir;
      tc.checkpoint.every = 4;
      tc.recovery = RecoveryConfig::parse("3:8");
      OptimConfig oc = tiny_optim();
      oc.update_freq = 1;
      const TinyRun r = train_tiny(name, 7, tc, oc);
      EXPECT_GT(r.escaped, 0) << name;
      if (!r.threw) {
        EXPECT_FALSE(r.nonfinite)
            << name << " completed with non-finite stats — silent corruption";
        EXPECT_EQ(r.res.epochs.size(), 2u) << name;
        ++completed;
      }
      fs::remove_all(dir);
    }
  }
  // The storm is survivable by design: most configurations must complete
  // (a loud Error is acceptable for stragglers, silence never is).
  EXPECT_GE(completed, 6);
}

}  // namespace
}  // namespace hylo
