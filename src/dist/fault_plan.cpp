#include "hylo/dist/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/common/env.hpp"

namespace hylo {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kCorruptPayload: return "corrupt_payload";
    case FaultKind::kRankDown: return "rank_down";
    case FaultKind::kRankLost: return "rank_lost";
    case FaultKind::kSilentCorrupt: return "silent_corrupt";
  }
  return "unknown";
}

FaultConfig FaultConfig::parse(const std::string& spec) {
  const auto fields = env::split(spec, ':');
  HYLO_CHECK(fields.size() == 2 || fields.size() == 3,
             "fault spec '" << spec << "' is not seed:rate[:mix]");
  FaultConfig cfg;
  cfg.seed = env::parse_int<std::uint64_t>(
      fields[0], 0, std::numeric_limits<std::uint64_t>::max(),
      "fault spec: seed");
  cfg.rate = env::parse_real(fields[1], 0.0, 1.0, "fault spec: rate");
  if (fields.size() == 3 && !fields[2].empty()) {
    // An explicit mix replaces the all-ones default: unnamed kinds are off.
    cfg.timeout_weight = cfg.straggler_weight = 0.0;
    cfg.corrupt_weight = cfg.rank_down_weight = cfg.rank_lost_weight = 0.0;
    cfg.silent_weight = 0.0;
    // Each mix key and the field it sets. `escape` is a pseudo-key: the
    // silent_corrupt detection-escape probability, not a mix weight.
    const std::pair<std::string_view, double*> keys[] = {
        {"timeout", &cfg.timeout_weight},
        {"straggler", &cfg.straggler_weight},
        {"corrupt", &cfg.corrupt_weight},
        {"corrupt_payload", &cfg.corrupt_weight},
        {"rank_down", &cfg.rank_down_weight},
        {"rank_lost", &cfg.rank_lost_weight},
        {"silent", &cfg.silent_weight},
        {"silent_corrupt", &cfg.silent_weight},
        {"escape", &cfg.sdc_escape}};
    for (const std::string& pair : env::split(fields[2], ',')) {
      const auto kv = env::split(pair, '=');
      HYLO_CHECK(kv.size() == 2,
                 "fault spec: mix entry '" << pair << "' is not kind=weight");
      const auto* key = std::find_if(
          std::begin(keys), std::end(keys),
          [&](const auto& k) { return k.first == kv[0]; });
      HYLO_CHECK(key != std::end(keys),
                 "fault spec: unknown fault kind '"
                     << kv[0]
                     << "' (want timeout|straggler|corrupt|rank_down|"
                        "rank_lost|silent|escape)");
      const double hi = key->second == &cfg.sdc_escape
                            ? 1.0
                            : std::numeric_limits<double>::max();
      *key->second = env::parse_real(kv[1], 0.0, hi, "fault spec: " + kv[0]);
    }
  }
  HYLO_CHECK(!cfg.enabled() || (cfg.total_weight() > 0.0 &&
                                 std::isfinite(cfg.total_weight())),
             "fault spec: rate > 0 needs kind weights with a positive, "
             "finite sum");
  return cfg;
}

FaultPlan::FaultPlan(FaultConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  HYLO_CHECK(cfg_.rate >= 0.0 && cfg_.rate <= 1.0,
             "fault rate " << cfg_.rate << " outside [0, 1]");
  HYLO_CHECK(!cfg_.enabled() || cfg_.total_weight() > 0.0,
             "fault plan enabled with all kind weights zero");
}

FaultEvent FaultPlan::next(index_t world) {
  HYLO_CHECK(world >= 1, "fault plan needs world >= 1");
  ++drawn_;
  FaultEvent ev;
  if (!active() || rng_.uniform() >= cfg_.rate) return ev;

  double u = rng_.uniform() * cfg_.total_weight();
  if ((u -= cfg_.timeout_weight) < 0.0) {
    ev.kind = FaultKind::kTimeout;
  } else if ((u -= cfg_.straggler_weight) < 0.0) {
    ev.kind = FaultKind::kStraggler;
  } else if ((u -= cfg_.corrupt_weight) < 0.0) {
    ev.kind = FaultKind::kCorruptPayload;
  } else if ((u -= cfg_.rank_down_weight) < 0.0 ||
             (cfg_.rank_lost_weight <= 0.0 && cfg_.silent_weight <= 0.0)) {
    // The trailing clause keeps rank_down the terminal bucket when the
    // opt-in kinds are off, so pre-existing schedules replay byte-identically
    // even if floating-point residue leaves u marginally non-negative.
    ev.kind = FaultKind::kRankDown;
  } else if ((u -= cfg_.rank_lost_weight) < 0.0 ||
             cfg_.silent_weight <= 0.0) {
    ev.kind = FaultKind::kRankLost;
  } else {
    ev.kind = FaultKind::kSilentCorrupt;
  }
  ev.rank = rng_.uniform_int(world);
  switch (ev.kind) {
    case FaultKind::kTimeout:
      ev.retries = 1 + static_cast<int>(rng_.uniform_int(3));  // 1..3 lost
      break;
    case FaultKind::kStraggler:
      ev.slowdown = 2.0 + 14.0 * rng_.uniform();  // 2x .. 16x
      break;
    case FaultKind::kCorruptPayload:
      ev.retries = 1;  // checksum catch + one retransmission
      break;
    case FaultKind::kRankDown:
      ev.retries = 1;  // the attempt that died
      ev.recoverable = false;
      break;
    case FaultKind::kRankLost:
      ev.retries = 1;  // the attempt the dead rank took down with it
      ev.recoverable = false;
      break;
    case FaultKind::kSilentCorrupt:
      // Both draws happen unconditionally so the per-event draw count is
      // fixed and the schedule stays a pure function of the seed.
      ev.detected = rng_.uniform() >= cfg_.sdc_escape;
      ev.payload_seed = rng_.next_u64();
      ev.retries = ev.detected ? 1 : 0;  // caught: the rejected attempt
      break;
    case FaultKind::kNone:
      break;
  }
  return ev;
}

void FaultPlan::serialize(ckpt::Archive ar) {
  ar.expect(cfg_.seed, "seed");
  ar.expect(cfg_.rate, "rate");
  ar(rng_, "rng");
  ar(drawn_, "drawn");
  ar.require(drawn_ >= 0, "drawn", "draw cursor ", drawn_, " is negative");
}

}  // namespace hylo
