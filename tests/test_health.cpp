// Training-health diagnostics (DESIGN.md §12): condition-estimate helpers,
// the HealthMonitor cadence gate, the alert rules fed synthetic timelines,
// the disabled-probes bitwise-identity contract, and probe emission across
// all five curvature optimizers plus a seeded divergent run that must fire
// a critical alert. Every trainer test pins cfg.health and cfg.faults
// explicitly so ambient HYLO_HEALTH / HYLO_FAULTS environments cannot
// perturb the assertions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "hylo/hylo.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

using obs::AlertConfig;
using obs::AlertEngine;
using obs::AlertSeverity;
using obs::HealthConfig;
using obs::HealthMonitor;
using obs::Json;
using obs::LayerHealth;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<real_t> flat_weights(Network& net) {
  std::vector<real_t> out;
  for (auto* pb : net.param_blocks())
    out.insert(out.end(), pb->w.data(), pb->w.data() + pb->w.size());
  for (auto pp : net.plain_params())
    out.insert(out.end(), pp.value->begin(), pp.value->end());
  return out;
}

std::vector<Json> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<Json> records;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) records.push_back(Json::parse(line));
  return records;
}

// ------------------------------------------------ condition estimates ----

TEST(CondEstimates, CholeskyDiagonalRatioSquared) {
  // diag(4, 1) has Cholesky diag (2, 1): κ estimate (2/1)² = 4.
  Matrix l(2, 2);
  l(0, 0) = 2.0;
  l(1, 1) = 1.0;
  EXPECT_DOUBLE_EQ(obs::cond_from_cholesky(l), 4.0);
  EXPECT_TRUE(std::isnan(obs::cond_from_cholesky(Matrix())));
  l(1, 1) = 0.0;  // singular factor
  EXPECT_TRUE(std::isinf(obs::cond_from_cholesky(l)));
}

TEST(CondEstimates, LuDiagonalRatio) {
  Matrix lu(3, 3);
  lu(0, 0) = -8.0;  // magnitudes count, not signs
  lu(1, 1) = 2.0;
  lu(2, 2) = 4.0;
  EXPECT_DOUBLE_EQ(obs::cond_from_lu(lu), 4.0);
}

TEST(CondEstimates, PairInfinityNormProduct) {
  // κ∞(M) = ‖M‖∞ ‖M⁻¹‖∞ is exact for a diagonal matrix.
  Matrix m(2, 2), inv(2, 2);
  m(0, 0) = 10.0;
  m(1, 1) = 2.0;
  inv(0, 0) = 0.1;
  inv(1, 1) = 0.5;
  EXPECT_DOUBLE_EQ(obs::cond_from_pair(m, inv), 5.0);
}

TEST(CondEstimates, CountNonfinite) {
  Matrix m(2, 2);
  m(0, 0) = kNaN;
  m(1, 1) = kInf;
  EXPECT_EQ(obs::count_nonfinite(m), 2);
  EXPECT_EQ(obs::count_nonfinite(std::vector<real_t>{0.0, -kInf, 3.0}), 1);
  EXPECT_EQ(obs::count_nonfinite(Matrix()), 0);
}

// ------------------------------------------------------ monitor gating ----

TEST(HealthMonitor, DisabledMonitorIsNeverDue) {
  HealthMonitor mon;  // default: disabled
  EXPECT_FALSE(mon.enabled());
  for (int i = 0; i < 5; ++i) {
    mon.begin_refresh();
    EXPECT_FALSE(mon.due());
  }
}

TEST(HealthMonitor, CadenceSelectsEveryNthRefresh) {
  HealthConfig cfg;
  cfg.enabled = true;
  cfg.cadence = 3;
  HealthMonitor mon(cfg);
  std::vector<bool> due;
  for (int i = 0; i < 7; ++i) {
    mon.begin_refresh();
    due.push_back(mon.due());
    mon.flush(0, i, i);
  }
  EXPECT_EQ(due, (std::vector<bool>{true, false, false, true, false, false,
                                    true}));
  EXPECT_EQ(mon.probes(), 3);
}

TEST(HealthMonitor, FlushAggregatesWorstLayer) {
  HealthConfig cfg;
  cfg.enabled = true;
  HealthMonitor mon(cfg);
  mon.begin_refresh();
  ASSERT_TRUE(mon.due());
  LayerHealth a;
  a.layer = 0;
  a.cond = 10.0;
  a.staleness = 1;
  LayerHealth b;
  b.layer = 1;
  b.cond_a = 500.0;  // per-layer worst = max over cond/cond_a/cond_g
  b.cond_g = 40.0;
  b.nonfinite = 2;
  b.staleness = 4;
  mon.report_layer(a);
  mon.report_layer(b);
  mon.report_norms(0, 2.0, 1.0);
  mon.report_nonfinite(3, 0);
  mon.flush(0, 0, 0);
  EXPECT_FALSE(mon.due());  // flush closes the probe window
  EXPECT_DOUBLE_EQ(mon.last_max_cond(), 500.0);
  EXPECT_EQ(mon.last_max_staleness(), 4);
  EXPECT_EQ(mon.last_nonfinite(), 5);  // 2 factor + 3 weight entries
  EXPECT_DOUBLE_EQ(mon.worst_cond(), 500.0);
  EXPECT_EQ(mon.total_nonfinite(), 5);
}

TEST(HealthMonitor, FromEnvParsesCadence) {
  testutil::ScopedEnv env("HYLO_HEALTH", nullptr);
  EXPECT_FALSE(resolve_config(TrainConfig{}).health.enabled);
  env.set("0");
  EXPECT_FALSE(resolve_config(TrainConfig{}).health.enabled);
  env.set("4");
  const ResolvedConfig r = resolve_config(TrainConfig{});
  ASSERT_EQ(r.source.at("health").str(), "env");
  const HealthConfig& cfg = r.health;
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.cadence, 4);
  env.set("garbage");
  EXPECT_THROW(resolve_config(TrainConfig{}), Error);
  env.set("-2");
  EXPECT_THROW(resolve_config(TrainConfig{}), Error);
}

// --------------------------------------------------------- alert rules ----

TEST(AlertRules, NonFiniteProbeIsCriticalAndDedupesPerEpoch) {
  AlertEngine eng{AlertConfig{}};
  eng.on_probe(0, 10, 7, 1.5, 0);
  eng.on_probe(0, 11, 9, 1.5, 0);  // same epoch: deduped
  eng.on_probe(1, 20, 1, 1.5, 0);  // next epoch: fires again
  ASSERT_EQ(eng.fired().size(), 2u);
  EXPECT_EQ(eng.fired()[0].rule, "non_finite");
  EXPECT_EQ(eng.fired()[0].severity, AlertSeverity::kCritical);
  EXPECT_EQ(eng.fired()[0].epoch, 0);
  EXPECT_EQ(eng.fired()[1].epoch, 1);
  EXPECT_EQ(eng.critical_count(), 2);
}

TEST(AlertRules, CondBlowupSeverityTiers) {
  AlertConfig cfg;
  cfg.cond_warning = 1e3;
  cfg.cond_critical = 1e6;
  AlertEngine eng(cfg);
  eng.on_probe(0, 0, 0, 1e2, 0);  // healthy
  EXPECT_TRUE(eng.fired().empty());
  eng.on_probe(1, 0, 0, 1e4, 0);  // warning band
  ASSERT_EQ(eng.fired().size(), 1u);
  EXPECT_EQ(eng.fired()[0].rule, "cond_blowup");
  EXPECT_EQ(eng.fired()[0].severity, AlertSeverity::kWarning);
  eng.on_probe(2, 0, 0, 1e7, 0);  // critical band
  EXPECT_EQ(eng.fired()[1].severity, AlertSeverity::kCritical);
  eng.on_probe(3, 0, 0, kInf, 0);  // singular factor
  EXPECT_EQ(eng.fired()[2].severity, AlertSeverity::kCritical);
  eng.on_probe(4, 0, 0, kNaN, 0);  // no probe data: not a blow-up
  EXPECT_EQ(eng.fired().size(), 3u);
}

TEST(AlertRules, StalenessAndFaultBudgets) {
  AlertConfig cfg;
  cfg.staleness_budget = 2;
  cfg.fault_budget = 5;
  AlertEngine eng(cfg);
  eng.on_probe(0, 0, 0, 1.0, 2);  // at budget: fine
  EXPECT_TRUE(eng.fired().empty());
  eng.on_probe(1, 0, 0, 1.0, 3);  // over
  ASSERT_EQ(eng.fired().size(), 1u);
  EXPECT_EQ(eng.fired()[0].rule, "staleness_budget");
  EXPECT_EQ(eng.fired()[0].severity, AlertSeverity::kWarning);
  eng.on_epoch(1, 0, 0.5, "KID", 6);  // fault budget exceeded
  ASSERT_EQ(eng.fired().size(), 2u);
  EXPECT_EQ(eng.fired()[1].rule, "fault_budget");
  EXPECT_EQ(eng.critical_count(), 0);
}

TEST(AlertRules, LossDivergenceNeedsAFullTrailingWindow) {
  AlertConfig cfg;
  cfg.loss_window = 3;
  cfg.loss_divergence_factor = 2.0;
  AlertEngine eng(cfg);
  // A 10x jump inside the warmup window must not fire: no baseline yet.
  eng.on_epoch(0, 0, 1.0, "KID", 0);
  eng.on_epoch(1, 0, 10.0, "KID", 0);
  eng.on_epoch(2, 0, 1.0, "KID", 0);
  EXPECT_TRUE(eng.fired().empty());
  // Window is now {1, 10, 1}, mean 4: 9 > 2*4 fires.
  eng.on_epoch(3, 0, 9.0, "KID", 0);
  ASSERT_EQ(eng.fired().size(), 1u);
  EXPECT_EQ(eng.fired()[0].rule, "loss_divergence");
  EXPECT_EQ(eng.fired()[0].severity, AlertSeverity::kCritical);
  EXPECT_DOUBLE_EQ(eng.fired()[0].threshold, 8.0);
}

TEST(AlertRules, NonFiniteLossIsCriticalNotDivergence) {
  AlertEngine eng{AlertConfig{}};
  eng.on_epoch(0, 0, 1.0, "KID", 0);
  eng.on_epoch(1, 0, kNaN, "KID", 0);
  ASSERT_EQ(eng.fired().size(), 1u);
  EXPECT_EQ(eng.fired()[0].rule, "non_finite");
  EXPECT_EQ(eng.critical_count(), 1);
}

TEST(AlertRules, SwitchOscillationCountsFlips) {
  AlertConfig cfg;
  cfg.oscillation_window = 6;
  cfg.oscillation_flips = 4;
  AlertEngine eng(cfg);
  const char* modes[] = {"KID", "KIS", "KID", "KIS", "KID"};
  for (int e = 0; e < 5; ++e) eng.on_epoch(e, 0, 1.0, modes[e], 0);
  // 4 flips across 5 epochs: flapping.
  ASSERT_FALSE(eng.fired().empty());
  EXPECT_EQ(eng.fired().back().rule, "switch_oscillation");
  EXPECT_EQ(eng.fired().back().severity, AlertSeverity::kWarning);

  // A single clean switch never fires.
  AlertEngine calm(cfg);
  for (int e = 0; e < 6; ++e)
    calm.on_epoch(e, 0, 1.0, e < 3 ? "KID" : "KIS", 0);
  EXPECT_TRUE(calm.fired().empty());
}

TEST(AlertRules, SummaryRollsUpByRule) {
  AlertEngine eng{AlertConfig{}};
  EXPECT_EQ(eng.summary(), "health: no alerts fired");
  eng.on_probe(2, 0, 4, 1.0, 0);
  const std::string s = eng.summary();
  EXPECT_NE(s.find("1 alert(s), 1 critical"), std::string::npos);
  EXPECT_NE(s.find("non_finite: x1 (first at epoch 2)"), std::string::npos);
}

// ------------------------------------------------- trainer integration ----

TrainConfig base_train_config() {
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 16;
  tc.world = 2;
  tc.interconnect = mist_v100();
  tc.max_iters_per_epoch = 6;
  tc.faults = FaultConfig{};     // pin ambient HYLO_FAULTS off
  tc.health = HealthConfig{};    // pin ambient HYLO_HEALTH off (disabled)
  return tc;
}

struct RunOutput {
  std::vector<real_t> weights;
  TrainResult result;
};

RunOutput run_hylo(const TrainConfig& tc) {
  const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 1);
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 2;
  oc.rank_ratio = 0.25;
  HyloOptimizer opt(oc);
  Trainer trainer(net, opt, data, tc);
  RunOutput out;
  out.result = trainer.run();
  out.weights = flat_weights(net);
  return out;
}

TEST(HealthTrainer, ProbesAreBitwiseInvisible) {
  // The tentpole contract: enabling probes (any cadence) must not change a
  // single bit of training — probes read committed state into locals only.
  const RunOutput off = run_hylo(base_train_config());

  for (const index_t cadence : {index_t{1}, index_t{3}}) {
    TrainConfig tc = base_train_config();
    HealthConfig hc;
    hc.enabled = true;
    hc.cadence = cadence;
    tc.health = hc;
    const RunOutput on = run_hylo(tc);
    ASSERT_EQ(on.weights.size(), off.weights.size());
    for (std::size_t i = 0; i < off.weights.size(); ++i)
      ASSERT_EQ(on.weights[i], off.weights[i])
          << "weight " << i << " diverged at cadence " << cadence;
    // Losses/metrics are modeled quantities and must match exactly; the
    // simulated time axis folds in *measured* compute wall time, which is
    // not reproducible run-to-run, so it is deliberately not compared.
    for (std::size_t e = 0; e < off.result.epochs.size(); ++e) {
      EXPECT_EQ(on.result.epochs[e].train_loss,
                off.result.epochs[e].train_loss);
      EXPECT_EQ(on.result.epochs[e].test_metric,
                off.result.epochs[e].test_metric);
    }
  }
  // And the disabled run reports a disabled subsystem.
  EXPECT_EQ(off.result.alerts_fired, 0);
  EXPECT_EQ(off.result.critical_alerts, 0);
}

TEST(HealthTrainer, ProbesEmitRecordsAndMetrics) {
  const auto dir = std::filesystem::temp_directory_path() / "hylo_health_rec";
  std::filesystem::remove_all(dir);
  const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 1);
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 2;
  oc.rank_ratio = 0.25;
  HyloOptimizer opt(oc);
  TrainConfig tc = base_train_config();
  HealthConfig hc;
  hc.enabled = true;
  tc.health = hc;
  tc.telemetry.dir = dir.string();
  Trainer trainer(net, opt, data, tc);
  trainer.run();

  EXPECT_GT(trainer.health().probes(), 0);
  EXPECT_TRUE(std::isfinite(trainer.health().worst_cond()));
  EXPECT_GT(trainer.health().worst_cond(), 0.0);

  // Every per-layer key in every health record comes from the probe
  // catalogue (plus the layer index itself) — the closed-set contract the
  // lint rule enforces on metric names.
  std::set<std::string> catalogue = {"layer"};
  for (const char* p : obs::kProbeCatalogue) catalogue.insert(p);
  const auto records = read_jsonl(trainer.run_log().run_log_path());
  index_t health_records = 0;
  const Json* summary = nullptr;
  for (const Json& r : records) {
    const std::string type = r.at("type").str();
    if (type == "health_summary") summary = &r;
    if (type != "health") continue;
    ++health_records;
    EXPECT_EQ(r.at("method").str(), "hylo");
    for (const Json& layer : r.at("layers").items())
      for (const auto& [key, value] : layer.members())
        EXPECT_TRUE(catalogue.count(key) > 0)
            << "unregistered probe field '" << key << "'";
  }
  EXPECT_EQ(health_records, trainer.health().probes());
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->at("probes").number(),
                   static_cast<double>(trainer.health().probes()));

  // Metrics landed under the method-tagged prefix.
  auto& reg = trainer.comm().profiler().registry();
  const Json snap = reg.snapshot();
  bool saw_cond = false;
  for (const auto& [name, v] : snap.at("histograms").members())
    if (name == "optim/hylo/health/cond") saw_cond = true;
  EXPECT_TRUE(saw_cond);
  std::filesystem::remove_all(dir);
}

TEST(HealthTrainer, EveryCurvatureMethodProbes) {
  const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  for (const std::string method :
       {"SNGD", "KFAC", "EKFAC", "KBFGS-L", "HyLo"}) {
    Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 1);
    OptimConfig oc;
    oc.lr = 0.05;
    oc.damping = 0.3;
    oc.update_freq = 2;
    oc.rank_ratio = 0.25;
    auto opt = make_optimizer(method, oc);
    TrainConfig tc = base_train_config();
    HealthConfig hc;
    hc.enabled = true;
    tc.health = hc;
    Trainer trainer(net, *opt, data, tc);
    trainer.run();
    EXPECT_GT(trainer.health().probes(), 0) << method;
    // Every curvature method exposes at least one readable condition
    // estimate through its existing factorization.
    EXPECT_TRUE(std::isfinite(trainer.health().worst_cond())) << method;
    EXPECT_GT(trainer.health().worst_cond(), 0.0) << method;
    EXPECT_EQ(trainer.health().total_nonfinite(), 0) << method;
  }
}

TEST(HealthTrainer, SeededDivergenceFiresCriticalAlert) {
  // SGD at lr 1e6 blows the weights to NaN within an epoch; the probe
  // layer must catch it and the engine must escalate to critical.
  const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 1);
  OptimConfig oc;
  oc.lr = 1e6;
  oc.momentum = 0.9;
  oc.weight_decay = 5e-4;  // lr * wd = 500x weight growth per step -> inf
  auto opt = make_optimizer("SGD", oc);
  TrainConfig tc = base_train_config();
  tc.epochs = 2;
  HealthConfig hc;
  hc.enabled = true;
  tc.health = hc;
  Trainer trainer(net, *opt, data, tc);
  const TrainResult res = trainer.run();

  EXPECT_GT(res.critical_alerts, 0);
  bool saw_non_finite = false;
  for (const auto& a : trainer.alerts().fired())
    if (a.rule == "non_finite" && a.severity == AlertSeverity::kCritical)
      saw_non_finite = true;
  EXPECT_TRUE(saw_non_finite);
  EXPECT_GT(trainer.health().total_nonfinite(), 0);
}

}  // namespace
}  // namespace hylo
