#pragma once
/// \file trainer.hpp
/// Training driver for the lockstep-simulated distributed setting. One
/// physical Network stands in for P bit-identical replicas (data-parallel
/// replicas stay identical under identical updates); each iteration runs P
/// local batches through it, averages gradients (allreduce), refreshes the
/// optimizer's curvature on schedule, and applies the update.
///
/// Simulated wall time =
///     measured parallel compute (fwd/bwd, factorization, inversion) / P
///   + measured replicated compute (precondition + update)
///   + modeled communication time (α-β cost model).
/// This is the time axis of the Fig. 3/5/7/8/9 reproductions.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/core/recovery.hpp"
#include "hylo/data/datasets.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/obs/run_log.hpp"
#include "hylo/optim/optimizer.hpp"

namespace hylo {

class CurvatureOptimizer;

/// Step decay: lr *= gamma at the start of each listed epoch.
struct LrSchedule {
  std::vector<index_t> milestones;
  real_t gamma = 0.1;

  bool decays_at(index_t epoch) const {
    for (const auto m : milestones)
      if (m == epoch) return true;
    return false;
  }
};

/// Five fields can also come from the environment: comm_mode (HYLO_COMM),
/// faults (HYLO_FAULTS), checkpoint (HYLO_CKPT_*), health (HYLO_HEALTH) and
/// recovery (HYLO_RECOVER). One precedence rule covers all five: a field
/// set here pins the setting, off included (a std::optional holding a
/// disabled config, or a checkpoint with a non-empty dir and every == 0);
/// the environment applies only to a field left unset; with neither, the
/// feature is off and training is bitwise identical to a build without it.
struct TrainConfig {
  index_t epochs = 10;
  index_t batch_size = 32;  ///< per worker (paper's local batch m)
  index_t world = 1;        ///< number of simulated workers P
  InterconnectModel interconnect = loopback();
  /// Modeled bytes per communicated scalar: 4 = FP32 (KAISA's wire format),
  /// 2 = FP16, 2.625 = the 21-bit custom float of Ueno et al. [7].
  double wire_scalar_bytes = 4.0;
  /// Comm execution mode (DESIGN.md §15); lockstep by default.
  std::optional<CommMode> comm_mode;
  /// Modeled device throughput driving the async timeline's per-rank
  /// compute advance (never measured wall time, so replays are bitwise).
  /// Ignored in lockstep mode.
  ComputeModel compute = v100_fp32();
  LrSchedule lr_schedule;
  std::uint64_t data_seed = 1;
  /// Cap on iterations per epoch (-1 = full epoch); used by profiling
  /// benches that need a fixed, small iteration count.
  index_t max_iters_per_epoch = -1;
  /// Early-stop once the test metric reaches this value (<0 disables).
  real_t target_metric = -1.0;
  bool verbose = false;
  /// Structured telemetry (run.jsonl + trace.json). Set `telemetry.dir` to
  /// enable; `verbose` additionally echoes the epoch lines to stdout
  /// regardless of telemetry. See obs/run_log.hpp for the artifact layout.
  obs::RunLogConfig telemetry;
  /// Deterministic fault injection on the simulated fabric
  /// (dist/fault_plan.hpp).
  std::optional<FaultConfig> faults;
  /// Crash-safe run snapshots (hylo::ckpt, DESIGN.md §11): `dir` + `every`
  /// write a RunSnapshot every N iterations; Trainer::resume(path)
  /// continues one bitwise-identically. A non-empty dir pins the field.
  ckpt::CkptConfig checkpoint;
  /// Training-health probes + alert engine (obs/health.hpp, DESIGN.md §12).
  std::optional<obs::HealthConfig> health;
  /// Checkpoint-rollback self-healing (core/recovery.hpp, DESIGN.md §16).
  /// Needs an active checkpoint cadence to roll back to.
  std::optional<RecoveryConfig> recovery;
};

/// The five environment-overridable settings as a Trainer runs them.
struct ResolvedConfig {
  CommMode comm_mode = CommMode::kLockstep;
  FaultConfig faults;
  ckpt::CkptConfig checkpoint;
  obs::HealthConfig health;
  RecoveryConfig recovery;
  /// Where each came from, as run_start's `config_source` record:
  /// {"comm_mode": "config" | "env" | "default", "faults": ..., ...}.
  obs::Json source = obs::Json::object();
};

/// Resolve `cfg` against the environment under TrainConfig's precedence
/// rule. Every set variable is parsed, even one a config field overrides.
/// Throws hylo::Error, naming the variable, on a malformed value; on a set
/// HYLO_* name outside env::kCatalogue; on HYLO_CKPT_EVERY or HYLO_CKPT_KEEP
/// without HYLO_CKPT_DIR; and on recovery without a checkpoint cadence.
ResolvedConfig resolve_config(const TrainConfig& cfg);

struct EpochStats {
  index_t epoch = 0;
  real_t train_loss = 0.0, train_metric = 0.0;
  real_t test_loss = 0.0, test_metric = 0.0;
  double wall_seconds = 0.0;  ///< cumulative simulated time after this epoch
  std::string note;           ///< e.g. HyLo mode tag
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double total_seconds = 0.0;        ///< simulated
  double compute_seconds = 0.0;      ///< parallel-compute contribution
  double replicated_seconds = 0.0;   ///< precondition/update contribution
  double comm_seconds = 0.0;         ///< modeled wire contribution
  index_t iterations = 0;
  /// First simulated time at which test_metric >= target (if reached).
  std::optional<double> time_to_target;
  std::optional<index_t> epochs_to_target;
  /// Alert-engine rollup (0/0 when health probes are disabled).
  index_t alerts_fired = 0;
  index_t critical_alerts = 0;
  /// Self-healing rollbacks taken (0 unless recovery is enabled and a
  /// critical trigger fired).
  index_t rollbacks = 0;

  real_t best_metric() const;
};

class Trainer {
 public:
  /// `net` must match the dataset (classification logits or 1-channel
  /// segmentation). The optimizer is driven through the full distributed
  /// lifecycle; pass world=1 in `cfg` for the single-device setting.
  Trainer(Network& net, Optimizer& opt, const DataSplit& data,
          TrainConfig cfg);

  TrainResult run();

  /// Restore a run snapshot written by this configuration and continue
  /// training to cfg.epochs. The network, optimizer, and config must
  /// structurally match the snapshotting run; the continuation is then
  /// bitwise-identical to the uninterrupted run in every modeled quantity
  /// (weights, losses, metrics, modeled comm seconds, fault schedule).
  /// Measured comp/* timings restart from their as-of-snapshot totals.
  TrainResult resume(const std::string& path);

  /// Live world size: starts at cfg.world and shrinks as rank_lost faults
  /// are committed at iteration boundaries.
  index_t world() const { return world_; }

  /// The resolved snapshot cadence (explicit config or HYLO_CKPT_* env).
  const ckpt::CkptConfig& checkpoint_config() const { return ckpt_; }

  /// Evaluate on the test split (no gradient, eval-mode BN).
  std::pair<real_t, real_t> evaluate();

  /// Profiler with comp/* (measured) and comm/* (modeled) sections.
  const Profiler& profiler() const { return comm_.profiler(); }
  CommSim& comm() { return comm_; }

  /// The run's structured telemetry (disabled unless cfg.telemetry.dir is
  /// set). Finalized — trace.json written, metrics snapshot appended — when
  /// run() returns.
  obs::RunLogger& run_log() { return runlog_; }
  const obs::RunLogger& run_log() const { return runlog_; }

  /// Health-probe monitor and alert engine (both inert unless health is
  /// enabled via TrainConfig::health or HYLO_HEALTH).
  const obs::HealthMonitor& health() const { return health_; }
  const obs::AlertEngine& alerts() const { return alerts_; }

  /// The rollback policy (inert unless enabled via TrainConfig::recovery
  /// or HYLO_RECOVER) and the snapshot it would currently roll back to.
  const RecoveryPolicy& recovery() const { return recovery_; }
  const std::string& last_good_snapshot() const { return last_good_path_; }

  /// Optional per-epoch observer (benches log gradient norms etc.).
  using EpochHook = std::function<void(const EpochStats&, Network&)>;
  void set_epoch_hook(EpochHook hook) { hook_ = std::move(hook); }

 private:
  /// The training loop shared by run() and resume(): epochs from the start
  /// position (0, or the restored snapshot's) to cfg.epochs.
  TrainResult run_from();
  void run_epoch(index_t epoch, TrainResult& result);
  /// Write a RunSnapshot after the iteration that left the run at
  /// (epoch, next_iter); `loss_acc`/`metric_acc`/`rank_batches` are the
  /// epoch-in-progress accumulators a resume needs to finish the epoch.
  /// Returns the snapshot's path (for verified-good pinning).
  std::string write_snapshot(index_t epoch, index_t next_iter, real_t loss_acc,
                             real_t metric_acc, index_t rank_batches);
  /// Parse + verify a snapshot and load every section into live state.
  void restore_snapshot(const std::string& path);
  /// Load the network, optimizer and progress sections (the state both a
  /// resume and a rollback restore) and check the progress cursor. Returns
  /// the run-log cursor stored with them.
  std::int64_t load_training_state(const ckpt::SnapshotReader& snap);
  /// One data loader per live rank, sharding the training split world_ ways.
  void reset_loaders();
  /// True when no live weight or bias holds a non-finite value — the
  /// trainer-side verification gate for pinning a snapshot as the
  /// verified-good rollback target.
  bool weights_finite() const;
  /// Decide and record the response to a critical trigger: consume one
  /// unit of rollback budget and throw RollbackSignal (caught by
  /// run_from), or fail loudly once the budget is exhausted.
  [[noreturn]] void initiate_rollback(index_t epoch, index_t iter,
                                      const char* why);
  /// Partial restore for a rollback: network, optimizer, and progress
  /// cursor only. Monotonic quantities (profiler clock, counters, fault
  /// draw cursor, async timeline) deliberately keep running — re-run work
  /// costs real simulated time and the fault schedule never rewinds (so a
  /// transient corruption does not repeat and the run stays a pure
  /// function of the seed).
  void rollback_restore(const std::string& path);
  /// Commit pending rank_lost deaths at an iteration boundary: shrink the
  /// world, re-partition data shards and layer ownership, log the event.
  void apply_world_shrink(index_t epoch, index_t next_iter);
  void log_epoch(const EpochStats& stats, index_t epoch);
  /// Per-collective {calls, bytes, modeled seconds} accumulated since the
  /// previous call (per-epoch deltas for the run log).
  obs::Json collective_deltas();
  /// Per-epoch deltas of the comm/faults/* counters plus the summed
  /// optim/*/stale_refreshes delta (via `stale`). Only called while fault
  /// injection is active, so fault-free run logs carry no new fields.
  obs::Json fault_deltas(std::int64_t* stale);

  Network* net_;
  Optimizer* opt_;
  const DataSplit* data_;
  TrainConfig cfg_;
  CommSim comm_;
  obs::RunLogger runlog_;
  obs::HealthMonitor health_;
  obs::AlertEngine alerts_;
  CurvatureOptimizer* curv_ = nullptr;  ///< non-null iff it has refreshes
  std::int64_t last_alert_faults_ = 0;  ///< fault-budget epoch delta base
  std::vector<DataLoader> loaders_;
  SoftmaxCrossEntropy ce_;
  DiceBceLoss dice_;
  bool segmentation_;
  index_t global_iter_ = 0;
  index_t world_;            ///< live world (== cfg_.world until rank loss)
  ckpt::CkptConfig ckpt_;    ///< resolved snapshot cadence (config or env)
  RecoveryPolicy recovery_;  ///< resolved rollback policy (config or env)
  std::string last_good_path_;     ///< pinned verified-good rollback target
  index_t last_crit_seen_ = 0;     ///< critical-alert trigger watermark
  index_t first_order_left_ = 0;   ///< rung-2 window countdown
  bool resumed_ = false;
  index_t start_epoch_ = 0, start_iter_ = 0;  ///< restored resume position
  real_t resume_loss_acc_ = 0.0, resume_metric_acc_ = 0.0;
  index_t resume_rank_batches_ = 0;
  double wall_seconds_ = 0.0;
  double comp_par_seconds_ = 0.0, comp_rep_seconds_ = 0.0, comm_seconds_ = 0.0;
  std::map<std::string, double> last_comm_seconds_;
  std::map<std::string, std::int64_t> last_comm_counters_;
  std::map<std::string, std::int64_t> last_fault_counters_;
  EpochHook hook_;
};

/// Construct an optimizer by paper name: "SGD", "ADAM", "KFAC", "EKFAC",
/// "KBFGS-L", "SNGD", "HyLo". KAISA is the distributed execution of "KFAC"
/// (pass world > 1 in TrainConfig).
std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          const OptimConfig& cfg);

}  // namespace hylo
