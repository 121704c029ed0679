#pragma once
/// \file recovery.hpp
/// Checkpoint-rollback self-healing policy (DESIGN.md §16).
///
/// The guards in dist/ (transport checksum) and optim/ (numeric commit
/// gates) stop most silent corruption at the door, but an escaped bit-flip
/// can still drive training non-finite or divergent. The RecoveryPolicy is
/// the trainer's last line of defense: when a critical trigger fires
/// (non-finite iteration loss, or a critical health alert — non_finite /
/// loss_divergence / cond_blowup), the trainer rolls back to its last
/// verified-good snapshot and re-runs the window under an escalating
/// action ladder:
///
///   rung 1  plain re-run — the fault plan's draw cursor is *not* rolled
///           back, so the re-run sees fresh fault draws and a transient
///           corruption does not repeat (and the run stays a pure function
///           of the seed: no livelock on the same event).
///   rung 2  re-run + serve first-order directions for `first_order_iters`
///           iterations (CurvatureOptimizer::set_first_order) — steps past
///           a poisoned curvature window without giving up preconditioning
///           for the rest of the run.
///   rung 3+ re-run + first-order window + multiply lr by `lr_backoff`
///           (persistent) — tames genuine optimization divergence that no
///           amount of re-running fixes.
///
/// The rung escalates only on *consecutive* rollbacks to the same
/// snapshot; recovering past the trigger resets the ladder (the next
/// incident starts again at rung 1). A bounded total budget
/// (`max_rollbacks`) caps the whole run; exhausting it fails loudly with a
/// recovery report — never a silent wrong result.
///
/// Off by default: with recovery disabled the trainer takes no rollback
/// branches and runs byte-identically to a build without this subsystem.

#include <string>

#include "hylo/common/types.hpp"

namespace hylo {

/// Trainer-facing recovery config (TrainConfig::recovery or HYLO_RECOVER).
struct RecoveryConfig {
  bool enabled = false;
  /// Total rollbacks permitted for the run; exceeding it fails loudly.
  index_t max_rollbacks = 3;
  /// Rung-2 window: iterations served first-order after a repeat rollback.
  index_t first_order_iters = 20;
  /// Rung-3 action: lr *= lr_backoff (persistent) on a third consecutive
  /// rollback to the same snapshot.
  double lr_backoff = 0.5;

  /// Parse a spec string: "off" (disabled), "on" or "1" (defaults), or
  /// "BUDGET[:FO_ITERS[:LR_BACKOFF]]" with integer BUDGET >= 1 and
  /// FO_ITERS >= 0, e.g. "5:40:0.25". Throws hylo::Error on malformed input.
  static RecoveryConfig parse(const std::string& spec);
};

/// What the trainer must do about one critical trigger.
struct RecoveryAction {
  index_t rung = 0;          ///< consecutive rollbacks to the same snapshot
  bool first_order = false;  ///< rung >= 2: serve first-order for a window
  bool reduce_lr = false;    ///< rung >= 3: back off the learning rate
  bool exhausted = false;    ///< budget spent — caller must fail loudly
};

/// The rollback decision engine: tracks the retry budget and the
/// consecutive-rollback rung per target snapshot. Pure bookkeeping — the
/// trainer owns the actual restore, so the policy stays unit-testable.
class RecoveryPolicy {
 public:
  RecoveryPolicy() = default;
  explicit RecoveryPolicy(RecoveryConfig cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.enabled; }
  const RecoveryConfig& config() const { return cfg_; }

  /// Decide the response to a critical trigger that would roll back to
  /// `snapshot_path`. Consumes one unit of budget unless exhausted.
  RecoveryAction on_trigger(const std::string& snapshot_path);

  /// Reset the consecutive-rollback rung: training progressed past the
  /// last trigger (a fresh verified-good snapshot landed), so the next
  /// incident starts the ladder from rung 1 again.
  void note_progress() { rung_ = 0; }

  index_t rollbacks() const { return rollbacks_; }
  index_t budget_left() const {
    return rollbacks_ >= cfg_.max_rollbacks ? 0
                                            : cfg_.max_rollbacks - rollbacks_;
  }

 private:
  RecoveryConfig cfg_;
  index_t rollbacks_ = 0;
  index_t rung_ = 0;
  std::string last_target_;
};

}  // namespace hylo
