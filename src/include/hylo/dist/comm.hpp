#pragma once
/// \file comm.hpp
/// Simulated communicator and the run's one simulated clock. Data movement
/// between the P simulated ranks happens in shared memory (the runner
/// executes ranks sequentially, bit-exactly), while every collective is an
/// event on the EventTimeline's FIFO wire and rank clocks advance only by
/// modeled compute (compute()). The wall is the timeline's horizon in both
/// modes (DESIGN.md §15): kLockstep (default) waits out every collective;
/// kAsync leaves curvature chains in flight as (time, seq) handles the
/// caller polls, so factor gathers overlap the next iterations' compute.
/// Measured compute (comp/* sections) never reaches a clock.
///
/// Wire-byte ledger semantics (`<section>.bytes` counters): every charge
/// records the **total bytes crossing the wire**, summed over ranks and
/// ring/tree steps — allgather records (P-1)·Σ per-rank payloads, allreduce
/// and broadcast record their logical payload once (the reduction/fan-out
/// traffic is folded into modeled seconds, matching how KAISA reports
/// volumes). Retried attempts re-send bytes but land in the separate
/// total_retry_bytes() ledger so clean and faulty runs stay comparable.

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hylo/common/timer.hpp"
#include "hylo/dist/cost_model.hpp"
#include "hylo/dist/event_sim.hpp"
#include "hylo/dist/fault_plan.hpp"
#include "hylo/obs/trace.hpp"
#include "hylo/tensor/matrix.hpp"

namespace hylo {

/// What an unrecoverable injected fault (rank_down) does to a collective.
enum class FailMode {
  /// The collective aborts: the wasted attempt is charged and CommFailure is
  /// thrown for the caller to degrade on (curvature gathers/broadcasts).
  kMayFail,
  /// The fabric re-forms around the dead rank and retries until the
  /// collective completes — charged, never thrown (gradient allreduce).
  kRetryUntilSuccess,
};

/// How the communicator executes collectives (see file header).
enum class CommMode { kLockstep, kAsync };

const char* to_string(CommMode mode);

/// Parse a comm mode spec, as HYLO_COMM takes it: "lockstep"/"sync" or
/// "async"/"event", any case. Throws hylo::Error on anything else.
CommMode parse_comm_mode(const std::string& spec);

/// Completion handle for a nonblocking (icharge_*) collective. In async
/// mode the caller keeps the handle and commits its dependent state once
/// ready_s is behind the rank clocks; `failed` marks a kMayFail collective
/// lost to an injected fault — the caller degrades exactly as it would on a
/// lockstep CommFailure.
struct CommEvent {
  std::uint64_t seq = 0;
  double start_s = 0.0;
  double ready_s = 0.0;
  bool failed = false;
};

class CommSim {
 public:
  CommSim(index_t world, InterconnectModel model,
          ComputeModel compute = v100_fp32())
      : world_(world), model_(std::move(model)),
        compute_(std::move(compute)), timeline_(world) {
    HYLO_CHECK(world >= 1, "world must be >= 1");
  }

  index_t world() const { return world_; }
  const InterconnectModel& model() const { return model_; }

  /// Advance `rank`'s clock by the modeled seconds of `flops` on the compute
  /// model, book them under model/<stage> and draw the span on the rank's
  /// trace track (with `args`); zero FLOPs do nothing. The only way compute
  /// time reaches a clock.
  void compute(index_t rank, double flops, const std::string& stage,
               obs::Json args = obs::Json::object());

  /// Blocking collectives: issued at the latest rank clock, then every clock
  /// waits for the completion, in both modes. Charge a broadcast of `bytes`
  /// from one root under `section` (the data is already visible in shared
  /// memory). With an active fault plan and mode kMayFail, throws
  /// CommFailure on an unrecoverable injected fault.
  void charge_broadcast(index_t bytes, const std::string& section,
                        FailMode mode = FailMode::kMayFail);

  /// Charge an allgather where each rank contributes `bytes_per_rank`.
  /// Ledger: (world-1)·world·bytes_per_rank total wire bytes; the latency
  /// term uses bytes_per_rank (ring step size).
  void charge_allgather(index_t bytes_per_rank, const std::string& section,
                        FailMode mode = FailMode::kMayFail);

  /// Charge an allgather with per-rank payload sizes (HyLo/SNGD gather
  /// unequal row blocks). Ledger: (world-1)·Σ bytes; the latency term uses
  /// the max per-rank payload — the ring is paced by its largest block.
  void charge_allgather(const std::vector<index_t>& bytes_per_rank,
                        const std::string& section,
                        FailMode mode = FailMode::kMayFail);

  /// Charge an allreduce of `bytes`.
  void charge_allreduce(index_t bytes, const std::string& section,
                        FailMode mode = FailMode::kMayFail);

  /// Whether curvature chains wait out each collective (lockstep) or stay in
  /// flight (async). Only meaningful before any collective is charged.
  void set_mode(CommMode mode) { mode_ = mode; }
  CommMode mode() const { return mode_; }
  bool async() const { return mode_ == CommMode::kAsync; }

  /// The run's simulated clock (never null).
  EventTimeline* timeline() { return &timeline_; }
  const EventTimeline* timeline() const { return &timeline_; }

  /// Every rank waits until `ev` completes (a lost collective completes at
  /// the end of its wasted attempts).
  void wait(const CommEvent& ev) { timeline_.barrier_at(ev.ready_s); }

  /// Nonblocking collectives. The operation is charged now (profiler
  /// seconds, wire-byte ledger, fault-plan draw) and placed on the wire no
  /// earlier than `earliest_start_s`; the returned handle carries its
  /// modeled completion. Unlike the blocking forms, a kMayFail fault does
  /// not throw — it comes back as event.failed.
  CommEvent icharge_allgather(const std::vector<index_t>& bytes_per_rank,
                              const std::string& section,
                              double earliest_start_s,
                              FailMode mode = FailMode::kMayFail);
  CommEvent icharge_broadcast(index_t bytes, const std::string& section,
                              double earliest_start_s,
                              FailMode mode = FailMode::kMayFail);
  CommEvent icharge_allreduce(index_t bytes, const std::string& section,
                              double earliest_start_s,
                              FailMode mode = FailMode::kMayFail);

  /// Install the deterministic fault schedule (disabled config removes it).
  /// Every subsequent collective consults the plan; comm/faults/* counters
  /// and trace instants record each injected event.
  void configure_faults(const FaultConfig& cfg);

  /// Silent-corruption ticket for the collective just charged. A
  /// silent_corrupt event that escaped the payload check does not throw —
  /// the collective "succeeds" — but the caller must then corrupt the
  /// payload it moved through shared memory: calling this after a charge
  /// returns-and-clears the bit-flip seed when the last charge escaped
  /// (nullopt otherwise). Optimizers consume tickets for their
  /// charge_*/icharge_* curvature collectives via apply_escaped_corruption.
  /// An unconsumed ticket is cleared by the next charge — it never leaks
  /// across collectives.
  std::optional<std::uint64_t> take_silent_corruption() {
    auto t = pending_sdc_;
    pending_sdc_.reset();
    return t;
  }
  bool faults_active() const {
    return fault_plan_ != nullptr && fault_plan_->active();
  }
  const FaultPlan* fault_plan() const { return fault_plan_.get(); }
  FaultPlan* fault_plan() { return fault_plan_.get(); }

  /// Elastic world-shrink (rank_lost events). A permanently dead rank is
  /// recorded here when the fault fires, but the world does not shrink
  /// mid-iteration — collectives already in flight were sized for the old
  /// world. The trainer calls commit_shrinks() at the next iteration
  /// boundary, re-partitions layer ownership, and carries on with the
  /// survivors (DESIGN.md §11).
  bool has_pending_shrinks() const { return !pending_lost_.empty(); }

  /// Shrink the world by the pending dead ranks and return them (original
  /// rank numbers, in death order). Bumps `dist/elastic/world_shrinks` and
  /// the `dist/elastic/world` gauge per committed loss.
  std::vector<index_t> commit_shrinks();

  /// Ranks lost over the whole run so far (committed), in death order.
  const std::vector<index_t>& lost_ranks() const { return lost_ranks_; }

  /// The field list of a snapshot's `faults` section: the fault plan's draw
  /// cursor, then the elastic state — the surviving world size and the
  /// committed loss history. A load checks that survivors and losses add up
  /// to this simulator's world. Requires an active fault plan.
  void serialize_faults(ckpt::Archive ar);

  /// Modeled communication seconds accumulated so far (all comm sections).
  double comm_seconds() const;

  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

  /// Wire-byte / message accounting per section, kept as registry counters
  /// `<section>.bytes` and `<section>.msgs` (PowerSGD/MKOR-style
  /// bytes-on-wire bookkeeping — the numbers that substantiate compression
  /// ratios, independent of the modeled seconds).
  std::int64_t wire_bytes_charged(const std::string& section) const {
    return profiler_.registry().counter_value(section + ".bytes");
  }
  std::int64_t messages(const std::string& section) const {
    return profiler_.registry().counter_value(section + ".msgs");
  }
  /// Totals across every comm/* section. Retried attempts are *excluded*
  /// by design (the fault suite pins clean and faulty runs to the same
  /// wire totals so compression ratios stay comparable); they are exposed
  /// separately via total_retry_bytes().
  std::int64_t total_wire_bytes() const;
  std::int64_t total_messages() const;

  /// Bytes re-sent by retried attempts (timeout / corrupt / rank_down
  /// recovery), i.e. the comm/faults/retry_bytes counter. Zero on clean
  /// runs; total_wire_bytes() + total_retry_bytes() is everything that
  /// crossed the modeled wire including waste.
  std::int64_t total_retry_bytes() const {
    return profiler_.registry().counter_value("comm/faults/retry_bytes");
  }

  /// Attach a trace buffer: every collective and compute advance is then
  /// also drawn at its timeline position. Not owned; may be null.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }
  obs::TraceBuffer* trace() { return trace_; }

  /// Trace instant on the interconnect track at the latest rank clock (no-op
  /// without a trace).
  void trace_instant(const std::string& name, const std::string& cat,
                     obs::Json args = obs::Json::object());

  /// Default bytes per scalar on the wire: FP32, as KAISA communicates.
  static constexpr index_t kWireScalarBytes = 4;

  /// Configure the wire precision (4 = FP32, 2 = FP16, 2.625 = the 21-bit
  /// custom float of Ueno et al. [7]). Affects modeled time only — the
  /// shared-memory data stays full precision.
  void set_wire_scalar_bytes(double bytes) {
    HYLO_CHECK(bytes > 0.0, "wire scalar bytes must be positive");
    wire_scalar_bytes_ = bytes;
  }
  double wire_scalar_bytes() const { return wire_scalar_bytes_; }

  /// Modeled wire size of `scalars` values at the configured precision,
  /// rounded to the nearest byte (truncation undercounted the 2.625-byte
  /// custom-float mode).
  index_t wire_bytes(index_t scalars) const {
    return static_cast<index_t>(
        std::llround(static_cast<double>(scalars) * wire_scalar_bytes_));
  }

 private:
  /// What an injected fault does to one collective: the seconds it adds to
  /// a delivered one or, when `lost`, the wasted seconds that replace it.
  struct FaultOutcome {
    double extra_s = 0.0;
    bool lost = false;
  };

  /// The end of a blocking charge_*: every clock waits for `ev`; a lost
  /// collective throws CommFailure.
  void block(const CommEvent& ev, const std::string& section);

  /// The core behind every collective: draws the fault plan, reserves the
  /// wire (a lost collective for its wasted attempts), and books
  /// seconds/bytes/msgs plus a trace span at its wire position.
  CommEvent icharge(const char* kind, index_t ledger_bytes,
                    const std::string& section, double seconds,
                    double earliest_start_s, FailMode mode);

  /// Account an injected event's counters and ledgers and return what it
  /// does to the collective; an unrecoverable event under kMayFail books
  /// its wasted attempts and comes back `lost`.
  FaultOutcome apply_fault(const FaultEvent& ev, index_t bytes, double seconds,
                           FailMode mode);

  index_t world_;
  InterconnectModel model_;
  ComputeModel compute_;
  Profiler profiler_;
  obs::TraceBuffer* trace_ = nullptr;
  double wire_scalar_bytes_ = kWireScalarBytes;
  CommMode mode_ = CommMode::kLockstep;
  EventTimeline timeline_;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::vector<index_t> pending_lost_;  ///< deaths awaiting commit_shrinks()
  std::vector<index_t> lost_ranks_;    ///< committed deaths, run lifetime
  std::optional<std::uint64_t> pending_sdc_;  ///< escaped-corruption ticket
};

/// Apply a seeded, deterministic corruption to a payload matrix: 1–3 bit
/// flips at Rng(seed)-chosen element/bit positions. The pure-function shape
/// (same seed + same matrix extents → same flips) is what keeps
/// silent-corruption runs bitwise replayable. No-op on an empty matrix.
void corrupt_values(Matrix& m, std::uint64_t seed);

/// Round-robin layer-to-rank assignment used by both distributed KFAC
/// (KAISA) and HyLo for the inversion step.
class LayerAssignment {
 public:
  LayerAssignment(index_t layers, index_t world)
      : layers_(layers), world_(world) {
    HYLO_CHECK(layers >= 0 && world >= 1, "bad assignment args");
  }

  index_t owner(index_t layer) const {
    HYLO_CHECK(layer >= 0 && layer < layers_, "layer out of range");
    return layer % world_;
  }

  /// Number of layers owned by `rank` (load balance accounting).
  index_t owned_count(index_t rank) const {
    HYLO_CHECK(rank >= 0 && rank < world_, "rank out of range");
    return layers_ / world_ + ((layer_remainder() > rank) ? 1 : 0);
  }

 private:
  index_t layer_remainder() const { return layers_ % world_; }
  index_t layers_, world_;
};

}  // namespace hylo
