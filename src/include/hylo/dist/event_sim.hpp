#pragma once
/// \file event_sim.hpp
/// Event-timeline simulator: the one simulated clock of a run, in both comm
/// modes (DESIGN.md §15). Each simulated rank carries its own clock,
/// advanced only by *modeled* compute seconds (CommSim::compute — never
/// measured wall time, so replays are bitwise). Every collective reserves
/// the shared interconnect as a FIFO resource: an operation starts at
/// max(its dependency time, the time the wire frees up) and occupies the
/// wire for its modeled duration. Every operation gets a monotonically
/// increasing sequence number at issue; all completion processing is ordered
/// by (ready time, seq), which totally orders the timeline — two runs with
/// the same seed and thread count produce byte-identical event histories.

#include <cstdint>
#include <string>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/common/types.hpp"

namespace hylo::ckpt {
class Archive;
}  // namespace hylo::ckpt

namespace hylo {

/// One modeled operation on the shared interconnect. `failed` marks a
/// kMayFail collective lost to an injected fault: it occupied the wire for
/// its wasted attempts (charged to comm/faults/wasted), and its handle
/// reports failure at the end of them instead of a delivery.
struct TimelineEvent {
  std::uint64_t seq = 0;  ///< issue order; total-order tie-break
  double start_s = 0.0;   ///< when the wire picked the operation up
  double ready_s = 0.0;   ///< completion on the simulated timeline
  bool failed = false;
  std::string section;    ///< profiler section, e.g. "comm/gather"
};

class EventTimeline {
 public:
  explicit EventTimeline(index_t world);

  index_t world() const { return world_; }

  /// Elastic world change (rank loss commit). Clocks beyond the new world
  /// are dropped; growth extends with the current max clock.
  void set_world(index_t world);

  /// One rank's simulated clock (modeled seconds, never wall time).
  double rank_clock(index_t rank) const;

  /// Advance one rank's clock by modeled local compute.
  void advance(index_t rank, double seconds);

  double max_clock() const;

  /// Blocking-collective semantics: every rank waits until `t`.
  void barrier_at(double t);

  /// Modeled compute on the critical path so far: per stretch between
  /// barriers (all clocks equal after one), the slowest rank's advance.
  double compute_seconds() const;

  /// Reserve the wire for an operation that may start no earlier than
  /// `earliest_start_s` and occupies it for `duration_s` — a failed one for
  /// its wasted attempts. Returns the event (also appended to the
  /// issue-ordered history).
  TimelineEvent issue(const std::string& section, double earliest_start_s,
                      double duration_s, bool failed);

  /// When the wire next frees up.
  double wire_busy_until() const { return wire_busy_until_; }

  /// Latest modeled time anywhere: rank clocks or in-flight wire traffic.
  double horizon() const;

  /// Every issued operation, in seq order. Completion order is recovered by
  /// sorting on (ready_s, seq) — the queue ordering rule.
  const std::vector<TimelineEvent>& history() const { return history_; }

  /// The field list of the clocks, wire reservation, seq counter and
  /// critical-path compute, so a resumed run continues the timeline
  /// bitwise. The event history itself
  /// is not persisted — it is diagnostic, and a resumed run only ever
  /// appends.
  void serialize(ckpt::Archive ar);

 private:
  index_t world_;
  std::vector<double> clocks_;
  double wire_busy_until_ = 0.0;
  std::uint64_t next_seq_ = 0;
  double compute_s_ = 0.0;  ///< critical-path compute up to synced_s_
  double synced_s_ = 0.0;   ///< when the clocks were last all equal
  std::vector<TimelineEvent> history_;
};

/// Stable completion order over a set of events: (ready_s, seq).
bool completes_before(const TimelineEvent& a, const TimelineEvent& b);

}  // namespace hylo
