#pragma once
/// \file fault_plan.hpp
/// Deterministic fault injection for the simulated fabric. A FaultPlan is a
/// seeded hylo::Rng-driven schedule of per-collective fault events that
/// CommSim consults on every charge: the k-th collective of a run always
/// draws the k-th event, so the same seed + config produces a byte-identical
/// fault schedule (and therefore an identical run log) on every replay.
///
/// Event taxonomy (DESIGN.md §10):
///   timeout         -- k lost attempts, each burning the collective's full
///                      modeled time plus an exponentially growing backoff
///                      (retry_seconds in cost_model.hpp); always recovers.
///   straggler(s×)   -- one slow participant stretches the collective by s×;
///                      always recovers.
///   corrupt_payload -- wire corruption caught by the transport checksum,
///                      forcing one retransmission of the payload; always
///                      recovers and no corrupted value ever flows (data in
///                      shared memory stays exact — the cost is modeled, like
///                      all wire time).
///   silent_corrupt  -- wire corruption that gets PAST the transport layer
///                      and reaches the application-level payload check (the
///                      modeled CRC pass in checksum_seconds). With
///                      probability 1-escape the check catches it: degradable
///                      collectives (curvature gathers/broadcasts) fail with
///                      CommFailure after charging the wasted attempt and the
///                      optimizer serves stale factors; must-complete
///                      collectives retry, charged but never failing. With
///                      probability `escape` the corruption is SILENT: the
///                      collective "succeeds" and a seeded, deterministic
///                      bit-flip is applied to the payload values post-charge
///                      (the only fault kind that ever corrupts data in
///                      shared memory). Off by default — opt in with a
///                      silent mix weight — so existing schedules replay
///                      byte-identically. Numeric commit gates in the
///                      curvature optimizers (OptimConfig::guard_gates) are
///                      the last line of defense against escaped events.
///   rank_down(r)    -- participant r dies mid-collective. Degradable
///                      collectives (curvature gathers/broadcasts) fail with
///                      CommFailure after charging the wasted attempt; the
///                      optimizer keeps serving stale factors. Must-complete
///                      collectives (gradient allreduce) re-form the ring and
///                      retry, charged but never failing.
///   rank_lost(r)    -- participant r dies *permanently*. The collective
///                      re-forms among the survivors and completes (the data
///                      already lives in shared memory), and the world
///                      shrinks by one at the next iteration boundary: the
///                      trainer re-partitions layer ownership and data
///                      shards and training continues (DESIGN.md §11). Off
///                      by default — opt in with a rank_lost mix weight —
///                      so existing transient-fault schedules replay
///                      byte-identically.
///
/// Configured programmatically (TrainConfig::faults) or via the environment:
///   HYLO_FAULTS=seed:rate[:mix]
/// where `mix` is a comma list of kind=weight pairs, e.g.
///   HYLO_FAULTS=42:0.1:timeout=1,rank_down=2
/// Silent corruption mixes in as `silent` (alias `silent_corrupt`); the
/// pseudo-key `escape` sets the detection-escape probability instead of a
/// weight, e.g.
///   HYLO_FAULTS=42:0.2:silent=1,escape=0.25
/// Unset/empty HYLO_FAULTS (and no config) means the plan is absent and the
/// comm path takes zero new branches — bitwise-identical to a fault-free
/// build.

#include <cstdint>
#include <string>

#include "hylo/common/check.hpp"
#include "hylo/common/rng.hpp"
#include "hylo/common/types.hpp"

namespace hylo::ckpt {
class Archive;
}  // namespace hylo::ckpt

namespace hylo {

/// Thrown by CommSim when an injected fault makes a degradable collective
/// unrecoverable. CurvatureOptimizer subclasses catch it and fall back to
/// the previous refresh's factors (or the plain SGD direction).
class CommFailure : public Error {
 public:
  explicit CommFailure(const std::string& what) : Error(what) {}
};

enum class FaultKind {
  kNone,
  kTimeout,
  kStraggler,
  kCorruptPayload,
  kRankDown,
  kRankLost,  ///< permanent: the world shrinks around the dead rank
  kSilentCorrupt,  ///< payload corruption past the transport checksum
};

const char* to_string(FaultKind k);

/// One drawn per-collective fault event.
struct FaultEvent {
  FaultKind kind = FaultKind::kNone;
  index_t rank = 0;       ///< affected participant (straggler/rank_down)
  double slowdown = 1.0;  ///< straggler stretch factor
  int retries = 0;        ///< failed attempts before resolution
  bool recoverable = true;///< false: collective cannot complete (rank_down)
  bool detected = true;   ///< silent_corrupt: did the payload check catch it?
  std::uint64_t payload_seed = 0;  ///< seeds the bit-flips when it escaped
};

/// Schedule parameters. `rate` is the per-collective fault probability; the
/// weights set the relative frequency of each kind among injected events.
struct FaultConfig {
  std::uint64_t seed = 0;
  double rate = 0.0;
  double timeout_weight = 1.0;
  double straggler_weight = 1.0;
  double corrupt_weight = 1.0;
  double rank_down_weight = 1.0;
  /// Permanent rank loss is opt-in (default 0): mixing it in changes the
  /// shape of the run — the world shrinks — so a spec must ask for it.
  double rank_lost_weight = 0.0;
  /// Silent corruption is opt-in (default 0): mixing it in lets corrupted
  /// values actually flow into shared memory when an event escapes the
  /// payload check, so a spec must ask for it.
  double silent_weight = 0.0;
  /// Probability a silent_corrupt event escapes the application-level
  /// payload check (the deliberately imperfect CRC): 0 catches everything,
  /// 1 lets every event through silently.
  double sdc_escape = 0.25;

  bool enabled() const { return rate > 0.0; }
  double total_weight() const {
    return timeout_weight + straggler_weight + corrupt_weight +
           rank_down_weight + rank_lost_weight + silent_weight;
  }

  /// Parse "seed:rate[:mix]" (see file comment). Throws hylo::Error on a
  /// malformed spec, a seed that is not an integer in [0, 2^64), an
  /// out-of-range rate, a non-finite weight, or an unknown mix kind.
  static FaultConfig parse(const std::string& spec);
};

/// The deterministic schedule itself: one event per next() call, drawn from
/// a private Rng seeded with the config seed. Collectives are issued in a
/// deterministic order by the lockstep simulator, so the schedule is a pure
/// function of (seed, config, collective sequence).
class FaultPlan {
 public:
  explicit FaultPlan(FaultConfig cfg);

  bool active() const { return cfg_.enabled(); }
  const FaultConfig& config() const { return cfg_; }

  /// Draw the fault event for the next collective over `world` ranks.
  FaultEvent next(index_t world);

  /// Collectives consulted so far (drawn events, faulting or not).
  std::int64_t drawn() const { return drawn_; }

  /// The draw cursor's field list (hylo::ckpt): the plan is a pure function
  /// of (config, rng state, drawn count), so restoring the last two replays
  /// the exact remaining schedule of the interrupted run. A load checks the
  /// stored seed and rate against this plan's.
  void serialize(ckpt::Archive ar);

 private:
  FaultConfig cfg_;
  Rng rng_;
  std::int64_t drawn_ = 0;
};

}  // namespace hylo
