// resolve_config (core/trainer.hpp): the one place TrainConfig meets the
// HYLO_* environment.
#include <limits>

#include "hylo/common/env.hpp"
#include "hylo/core/trainer.hpp"

namespace hylo {

namespace {

/// The precedence rule: a pinned config wins, else the environment, else
/// the default already in `out`. Returns the winner's source name.
template <typename T>
const char* pick(T& out, const std::optional<T>& pinned,
                 const std::optional<T>& env_value) {
  const std::optional<T>& chosen = pinned.has_value() ? pinned : env_value;
  if (chosen.has_value()) out = *chosen;
  return pinned.has_value() ? "config" : env_value ? "env" : "default";
}

index_t parse_count(const std::string& v) {
  return env::parse_int<index_t>(v, 0, std::numeric_limits<index_t>::max(),
                                 "value");
}

}  // namespace

ResolvedConfig resolve_config(const TrainConfig& cfg) {
  env::reject_unknown_names();
  const auto comm = env::read("HYLO_COMM", parse_comm_mode);
  const auto faults = env::read("HYLO_FAULTS", FaultConfig::parse);
  const auto ckpt_dir = env::get("HYLO_CKPT_DIR");
  const auto ckpt_every = env::read("HYLO_CKPT_EVERY", parse_count);
  const auto ckpt_keep = env::read("HYLO_CKPT_KEEP", parse_count);
  HYLO_CHECK(ckpt_dir.has_value() || !(ckpt_every || ckpt_keep),
             "HYLO_CKPT_EVERY / HYLO_CKPT_KEEP need HYLO_CKPT_DIR");
  const auto health = env::read("HYLO_HEALTH", obs::HealthConfig::parse);
  const auto recovery = env::read("HYLO_RECOVER", RecoveryConfig::parse);

  std::optional<ckpt::CkptConfig> env_ckpt;
  if (ckpt_dir.has_value())
    env_ckpt = ckpt::CkptConfig{*ckpt_dir, ckpt_every.value_or(50),
                                ckpt_keep.value_or(3)};
  std::optional<ckpt::CkptConfig> pinned_ckpt;
  if (!cfg.checkpoint.dir.empty()) pinned_ckpt = cfg.checkpoint;

  ResolvedConfig r;
  r.source.set("comm_mode", pick(r.comm_mode, cfg.comm_mode, comm));
  r.source.set("faults", pick(r.faults, cfg.faults, faults));
  r.source.set("checkpoint", pick(r.checkpoint, pinned_ckpt, env_ckpt));
  r.source.set("health", pick(r.health, cfg.health, health));
  r.source.set("recovery", pick(r.recovery, cfg.recovery, recovery));
  HYLO_CHECK(!r.recovery.enabled || r.checkpoint.enabled(),
             "recovery needs a checkpoint cadence to roll back to — set "
             "TrainConfig::checkpoint (dir + every) or HYLO_CKPT_DIR / "
             "HYLO_CKPT_EVERY alongside HYLO_RECOVER");
  return r;
}

}  // namespace hylo
