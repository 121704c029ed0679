#include "hylo/core/recovery.hpp"

#include <limits>
#include <string>

#include "hylo/common/env.hpp"

namespace hylo {

RecoveryConfig RecoveryConfig::parse(const std::string& spec) {
  RecoveryConfig cfg;
  const std::string s = env::lower(spec);
  if (s.empty() || s == "off") return cfg;  // disabled
  cfg.enabled = true;
  if (s == "on" || s == "1") return cfg;
  const auto fields = env::split(s, ':');
  HYLO_CHECK(fields.size() <= 3,
             "bad recovery spec '" << spec
                                   << "': expected "
                                      "off|on|BUDGET[:FO_ITERS[:LR_BACKOFF]]");
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  cfg.max_rollbacks =
      env::parse_int<index_t>(fields[0], 1, kMax, "recovery budget");
  if (fields.size() >= 2)
    cfg.first_order_iters = env::parse_int<index_t>(
        fields[1], 0, kMax, "recovery first-order iters");
  if (fields.size() == 3) {
    cfg.lr_backoff =
        env::parse_real(fields[2], 0.0, 1.0, "recovery lr backoff");
    HYLO_CHECK(cfg.lr_backoff > 0.0,
               "bad recovery spec '" << spec
                                     << "': lr backoff must be in (0, 1]");
  }
  return cfg;
}

RecoveryAction RecoveryPolicy::on_trigger(const std::string& snapshot_path) {
  RecoveryAction act;
  if (rollbacks_ >= cfg_.max_rollbacks) {
    act.exhausted = true;
    return act;
  }
  ++rollbacks_;
  rung_ = snapshot_path == last_target_ ? rung_ + 1 : 1;
  last_target_ = snapshot_path;
  act.rung = rung_;
  act.first_order = rung_ >= 2;
  act.reduce_lr = rung_ >= 3;
  return act;
}

}  // namespace hylo
