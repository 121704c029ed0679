#pragma once
/// \file trainer.hpp
/// Training driver for the lockstep-simulated distributed setting. One
/// physical Network stands in for P bit-identical replicas (data-parallel
/// replicas stay identical under identical updates); each iteration runs P
/// local batches through it, averages gradients (allreduce), refreshes the
/// optimizer's curvature on schedule, and applies the update. The simulated
/// wall time, the time axis of the Fig. 3/5/7/8/9 reproductions, is the
/// horizon of the communicator's event timeline: rank clocks advance only
/// by modeled compute (FLOPs through TrainConfig::compute) and the wire by
/// modeled collectives, in both comm modes. Measured seconds stay in the
/// comp/* sections and are never added to it.

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
  /// Modeled device throughput: every rank clock advances by FLOPs through
  /// it (never measured wall time, so replays are bitwise).
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
  double wall_seconds = 0.0;  ///< timeline horizon after this epoch
  std::string note;           ///< e.g. HyLo mode tag
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double total_seconds = 0.0;    ///< simulated wall: the timeline horizon
  double compute_seconds = 0.0;  ///< modeled compute on the critical path
  double comm_seconds = 0.0;     ///< modeled wire seconds (comm/* ledger)
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

  /// Train to cfg.epochs. A Trainer runs once: a second run() or resume()
  /// throws.
  TrainResult run();

  /// Restore a run snapshot written by this configuration and continue
  /// training to cfg.epochs. The network, optimizer, and config must
  /// structurally match the snapshotting run; the continuation is then
  /// bitwise-identical to the uninterrupted run in every modeled quantity
  /// (weights, losses, metrics, the wall, modeled comm seconds, fault
  /// schedule). Measured comp/* timings restart from their as-of-snapshot
  /// totals. With
  /// recovery enabled, the snapshot is the first rollback target when its
  /// weights scan finite.
  TrainResult resume(const std::string& path);

  /// Live world size: starts at cfg.world and shrinks as rank_lost faults
  /// are committed at iteration boundaries.
  index_t world() const { return world_; }

  /// The resolved snapshot cadence (explicit config or HYLO_CKPT_* env).
  const ckpt::CkptConfig& checkpoint_config() const { return ckpt_; }

  /// Evaluate on the test split (no gradient, eval-mode BN).
  std::pair<real_t, real_t> evaluate();

  /// Profiler with comp/* (measured) and model/*, comm/* (modeled) sections.
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
  /// Where the run stands, as a snapshot's `progress` section stores it. A
  /// fresh run starts from the default cursor; resume() and a rollback load
  /// one, so all three then run the same loop.
  struct Cursor {
    index_t epoch = 0;
    index_t iter = 0;  ///< next iteration of the epoch
    real_t loss_sum = 0.0, metric_sum = 0.0;  ///< the epoch's, over ranks
    /// Local batches consumed this epoch: iters * world while the world is
    /// static, the exact mixed-world sum after a mid-epoch shrink.
    index_t rank_batches = 0;
    /// The epoch's lr decay and begin_epoch ran (a snapshot always lands
    /// after them; the optimizer section carries their effects).
    bool epoch_begun = false;
    /// Run-log records written as of the snapshot; a resume continues the
    /// log's numbering from here, a rollback's live log keeps appending.
    std::int64_t log_records = 0;
  };

  /// One snapshot section: its name, whether this run's snapshots carry it,
  /// whether a rollback restores it, and the one field list that writes
  /// and loads it (DESIGN.md §11).
  struct Section {
    const char* name;
    bool present;
    bool rollback;
    std::function<void(ckpt::Archive)> fields;
  };

  void begin_epoch();
  void run_epoch(TrainResult& result);
  /// One iteration: the steps in order, each ordering rule at its call. A
  /// step whose subsystem (faults, snapshots, health, recovery, telemetry)
  /// is off does no work, so such runs stay byte-identical to a build
  /// without that subsystem.
  void run_iteration();
  /// P local fwd/bwd passes; accumulates the loss into the cursor, moves
  /// the layer captures into `cap` when `capture`, and returns the summed
  /// {loss, metric} over ranks.
  std::pair<real_t, real_t> forward_backward(bool capture, CaptureSet& cap);
  /// Averages over the live ranks, books the fwd/bwd compute `fb_timer` has
  /// measured and charges the gradient allreduce.
  void average_gradients(const WallTimer& fb_timer);
  void optimizer_step(bool capture, const CaptureSet& cap, real_t loss);
  void record_step(bool capture, real_t loss, real_t metric);
  void probe_health();
  void end_iteration();
  /// The recovery triggers, shared by every site that checks them: roll
  /// back when `why` names one the caller saw (an optimizer abort), the
  /// loss is non-finite, or a critical alert fired since the last check.
  /// Consumes one unit of rollback budget and throws RollbackSignal (caught
  /// by run()), or fails loudly once the budget is exhausted.
  void check_triggers(real_t loss, const char* why = nullptr);
  /// Restore the pinned snapshot's network, optimizer and cursor and apply
  /// the recovery ladder. Monotonic quantities (profiler clock, counters,
  /// fault draw cursor, the timeline) deliberately keep running — re-run
  /// work costs real simulated time and the fault schedule never rewinds
  /// (so a transient corruption does not repeat and the run stays a pure
  /// function of the seed).
  void roll_back(const RecoveryAction& act, TrainResult& result);
  /// The measured comp/* seconds so far, by stage, as the run log labels
  /// them.
  obs::Json measured_seconds() const;
  /// Every snapshot section in file order: write_snapshot, resume and
  /// rollback all walk this one list.
  std::vector<Section> sections();
  /// Write a RunSnapshot of the run at the cursor; returns its path.
  std::string write_snapshot();
  /// Verified-good pinning: make `path`, a snapshot of the live state, the
  /// rollback target when recovery is on and no live weight or bias holds a
  /// non-finite value.
  void pin_if_good(const std::string& path);
  /// Non-finite values in the live weights and biases, or in their
  /// gradients.
  index_t nonfinite(bool grads);
  /// Parse + verify a snapshot and load every section into live state.
  void restore_snapshot(const std::string& path);
  /// Load every section a resume restores or, with `rollback`, the ones a
  /// rollback restores (network, optimizer and progress), checking that
  /// the snapshot carries exactly the sections this run writes.
  void load_sections(const ckpt::SnapshotReader& snap, bool rollback);
  /// One data loader per live rank, sharding the training split world_ ways
  /// and positioned at the cursor.
  void reset_loaders();
  /// Commit pending rank_lost deaths: shrink the world, re-partition data
  /// shards and layer ownership, log the event.
  void apply_world_shrink();
  void log_epoch(const EpochStats& stats);
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
  std::vector<ParamBlock*> blocks_;     ///< the network's, in graph order
  index_t grad_scalars_ = 0;            ///< allreduced per iteration
  double fwd_bwd_flops_ = 0.0;          ///< one rank's modeled fwd/bwd
  std::int64_t last_alert_faults_ = 0;  ///< fault-budget epoch delta base
  std::vector<DataLoader> loaders_;
  Batch batch_;  ///< one local batch, its buffers reused across iterations
  SoftmaxCrossEntropy ce_;
  DiceBceLoss dice_;
  bool segmentation_;
  bool ran_ = false;  ///< run() has started
  Cursor cursor_;
  index_t global_iter_ = 0;
  index_t world_;            ///< live world (== cfg_.world until rank loss)
  ckpt::CkptConfig ckpt_;    ///< resolved snapshot cadence (config or env)
  RecoveryPolicy recovery_;  ///< resolved rollback policy (config or env)
  std::string last_good_path_;     ///< pinned verified-good rollback target
  index_t last_crit_seen_ = 0;     ///< critical-alert trigger watermark
  index_t first_order_left_ = 0;   ///< rung-2 window countdown
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
