// Configuration resolution (DESIGN.md §17): every HYLO_* value parses
// strictly or is rejected with the variable's name, misspelt and orphaned
// variables are refused, and run_start records where each setting came from.
//
// Env-proofing: each test that depends on the environment clears the
// variables the resolver reads through testutil::ScopedEnv, which restores
// them afterwards, so the ambient settings of any ctest lane neither leak in
// nor get lost.
#include <gtest/gtest.h>

#include <unistd.h>

#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "hylo/hylo.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

namespace fs = std::filesystem;
using testutil::ScopedEnv;

/// Unsets, for its lifetime, every variable resolve_config reads.
struct ClearedEnv {
  std::deque<ScopedEnv> guards;
  ClearedEnv() {
    for (const char* name :
         {"HYLO_COMM", "HYLO_FAULTS", "HYLO_CKPT_DIR", "HYLO_CKPT_EVERY",
          "HYLO_CKPT_KEEP", "HYLO_HEALTH", "HYLO_RECOVER"})
      guards.emplace_back(name, nullptr);
  }
};

/// The hylo::Error message `f` throws, or "" when it returns.
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// The setting `var` controls, printed, read through the parser its reader
/// uses: the resolver for the trainer's settings, the thread pool's default
/// for HYLO_NUM_THREADS, and the audit module's switch for HYLO_AUDIT.
std::string observe(const std::string& var) {
  if (var == "HYLO_FAULTS")
    return std::to_string(resolve_config(TrainConfig{}).faults.seed);
  if (var == "HYLO_RECOVER") {
    TrainConfig tc;  // recovery needs a cadence to roll back to
    tc.checkpoint.dir = "unused";
    tc.checkpoint.every = 4;
    const RecoveryConfig rc = resolve_config(tc).recovery;
    return std::to_string(rc.max_rollbacks) + ":" +
           std::to_string(rc.first_order_iters);
  }
  if (var == "HYLO_CKPT_EVERY") {
    const ScopedEnv dir("HYLO_CKPT_DIR", "unused");
    return std::to_string(resolve_config(TrainConfig{}).checkpoint.every);
  }
  if (var == "HYLO_NUM_THREADS") {
    par::set_num_threads(0);  // 0 re-reads the variable
    return std::to_string(par::num_threads());
  }
  if (var == "HYLO_AUDIT")
    return *env::read("HYLO_AUDIT", env::parse_switch) ? "on" : "off";
  ADD_FAILURE() << "no observer for " << var;
  return "";
}

TEST(ConfigResolver, StrictValuesParseExactlyOrNameTheVariable) {
  struct Case {
    const char* var;
    const char* value;
    const char* expect;  ///< the parsed setting, or nullptr: rejected
  };
  const Case cases[] = {
      {"HYLO_FAULTS", "7:0.1", "7"},
      {"HYLO_FAULTS", "1.5:0.1", nullptr},
      {"HYLO_FAULTS", "1e300:0.1", nullptr},
      {"HYLO_FAULTS", "18446744073709551615:0.1", "18446744073709551615"},
      {"HYLO_FAULTS", "9007199254740993:0.1", "9007199254740993"},
      {"HYLO_FAULTS", "18446744073709551616:0.1", nullptr},
      {"HYLO_FAULTS", "7:1:timeout=inf", nullptr},
      {"HYLO_FAULTS", "7:0.1:timeout=1e308,straggler=1e308", nullptr},
      {"HYLO_RECOVER", "2:7", "2:7"},
      {"HYLO_RECOVER", "inf", nullptr},
      {"HYLO_RECOVER", "1e300", nullptr},
      {"HYLO_RECOVER", "2:1e300", nullptr},
      {"HYLO_CKPT_EVERY", "10", "10"},
      {"HYLO_CKPT_EVERY", "abc", nullptr},
      {"HYLO_CKPT_EVERY", "10x", nullptr},
      {"HYLO_NUM_THREADS", "3", "3"},
      {"HYLO_NUM_THREADS", "abc", nullptr},
      {"HYLO_NUM_THREADS", "0", nullptr},
      {"HYLO_NUM_THREADS", "2x", nullptr},
      {"HYLO_AUDIT", "Off", "off"},
      {"HYLO_AUDIT", "no", "off"},
      {"HYLO_AUDIT", "1", "on"},
      {"HYLO_AUDIT", "sometimes", nullptr},
  };
  const ClearedEnv cleared;
  const int threads = par::num_threads();
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.var) + "=" + c.value);
    const ScopedEnv set(c.var, c.value);
    std::string got;
    const std::string error = error_of([&] { got = observe(c.var); });
    if (c.expect != nullptr) {
      EXPECT_EQ(error, "");
      EXPECT_EQ(got, c.expect);
    } else {
      EXPECT_EQ(error.rfind(std::string(c.var) + "='" + c.value + "'", 0), 0u)
          << error;
    }
  }
  par::set_num_threads(threads);
}

TEST(ConfigResolver, RejectsMisspeltAndOrphanedVariables) {
  const ClearedEnv cleared;
  EXPECT_THROW(env::get("HYLO_FAULT"), Error);  // readers use the catalogue
  {
    const ScopedEnv typo("HYLO_FAULT", "7:0.1");
    const std::string error = error_of([] { resolve_config(TrainConfig{}); });
    EXPECT_NE(error.find("HYLO_FAULT"), std::string::npos) << error;
  }
  for (const char* orphan : {"HYLO_CKPT_EVERY", "HYLO_CKPT_KEEP"}) {
    const ScopedEnv set(orphan, "5");
    EXPECT_NE(error_of([] { resolve_config(TrainConfig{}); }).find(orphan),
              std::string::npos);
  }
}

TEST(ConfigResolver, PinnedFieldsStillParseTheirVariables) {
  const ClearedEnv cleared;
  TrainConfig tc;
  tc.faults = FaultConfig{};
  tc.health = obs::HealthConfig{};
  const ScopedEnv faults("HYLO_FAULTS", "1.5:0.1");
  EXPECT_EQ(error_of([&] { resolve_config(tc); }).rfind("HYLO_FAULTS=", 0),
            0u);
  const ScopedEnv valid("HYLO_FAULTS", "7:0.1");
  const ScopedEnv health("HYLO_HEALTH", "-1");
  EXPECT_EQ(error_of([&] { resolve_config(tc); }).rfind("HYLO_HEALTH=", 0),
            0u);
}

TEST(ConfigResolver, FullyPinnedConfigReadsConfigEverywhere) {
  // What perfbench pins: every source is "config" whatever the ambient
  // (valid) environment says.
  TrainConfig tc;
  tc.comm_mode = CommMode::kLockstep;
  tc.faults = FaultConfig{};
  tc.checkpoint.dir = "unused";
  tc.checkpoint.every = 0;
  tc.health = obs::HealthConfig{};
  tc.recovery = RecoveryConfig{};
  const ResolvedConfig r = resolve_config(tc);
  EXPECT_EQ(r.source.dump(),
            R"({"comm_mode":"config","faults":"config",)"
            R"("checkpoint":"config","health":"config","recovery":"config"})");
  EXPECT_EQ(r.comm_mode, CommMode::kLockstep);
  EXPECT_FALSE(r.faults.enabled());
  EXPECT_FALSE(r.checkpoint.enabled());
  EXPECT_FALSE(r.health.enabled);
  EXPECT_FALSE(r.recovery.enabled);
}

TEST(ConfigResolver, RunStartRecordsConfigSource) {
  const ClearedEnv cleared;
  const ScopedEnv faults("HYLO_FAULTS", "7:0.1");
  const fs::path dir = fs::temp_directory_path() /
                       ("hylo_config_source_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  Sgd opt(OptimConfig{});
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  tc.world = 2;
  tc.max_iters_per_epoch = 2;
  tc.health = obs::HealthConfig{};
  tc.telemetry.dir = dir.string();
  Trainer trainer(net, opt, data, tc);
  trainer.run();

  std::ifstream in(trainer.run_log().run_log_path());
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  const obs::Json start = obs::Json::parse(first);
  EXPECT_EQ(start.at("type").str(), "run_start");
  EXPECT_EQ(start.at("config_source").dump(),
            R"({"comm_mode":"default","faults":"env","checkpoint":"default",)"
            R"("health":"config","recovery":"default"})");
  fs::remove_all(dir);
}

TEST(ConfigResolver, RunStartRecordsFaultSeedExactly) {
  const ClearedEnv cleared;
  // 2^53 + 1 (the first integer a double rounds) and 2^64 - 1.
  for (const std::string seed : {"9007199254740993", "18446744073709551615"}) {
    const fs::path dir = fs::temp_directory_path() /
                         ("hylo_fault_seed_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
    Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
    Sgd opt(OptimConfig{});
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 16;
    tc.world = 2;
    tc.max_iters_per_epoch = 2;
    tc.faults = FaultConfig::parse(seed + ":0.1");
    tc.health = obs::HealthConfig{};
    tc.telemetry.dir = dir.string();
    Trainer trainer(net, opt, data, tc);
    trainer.run();

    std::ifstream in(trainer.run_log().run_log_path());
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    const obs::Json start = obs::Json::parse(first);
    EXPECT_EQ(start.at("faults").at("seed").str(), seed);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace hylo
