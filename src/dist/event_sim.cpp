#include "hylo/dist/event_sim.hpp"

#include <algorithm>

#include "hylo/ckpt/snapshot.hpp"

namespace hylo {

EventTimeline::EventTimeline(index_t world) : world_(world) {
  HYLO_CHECK(world >= 1, "timeline world must be >= 1");
  clocks_.assign(static_cast<std::size_t>(world), 0.0);
}

void EventTimeline::set_world(index_t world) {
  HYLO_CHECK(world >= 1, "timeline world must be >= 1");
  const double now = max_clock();
  world_ = world;
  clocks_.resize(static_cast<std::size_t>(world), now);
}

double EventTimeline::rank_clock(index_t rank) const {
  HYLO_CHECK(rank >= 0 && rank < world_, "timeline rank out of range");
  return clocks_[static_cast<std::size_t>(rank)];
}

void EventTimeline::advance(index_t rank, double seconds) {
  HYLO_CHECK(rank >= 0 && rank < world_, "timeline rank out of range");
  HYLO_CHECK(seconds >= 0.0, "cannot advance a clock backwards");
  clocks_[static_cast<std::size_t>(rank)] += seconds;
}

double EventTimeline::max_clock() const {
  double mx = 0.0;
  for (const double c : clocks_) mx = std::max(mx, c);
  return mx;
}

void EventTimeline::barrier_at(double t) {
  for (double& c : clocks_) c = std::max(c, t);
}

TimelineEvent EventTimeline::issue(const std::string& section,
                                   double earliest_start_s, double duration_s,
                                   bool failed) {
  HYLO_CHECK(earliest_start_s >= 0.0 && duration_s >= 0.0,
             "bad timeline issue args");
  TimelineEvent ev;
  ev.seq = next_seq_++;
  ev.failed = failed;
  ev.section = section;
  if (failed) {
    // Lost collectives never occupied the wire: the handle carries the
    // would-have-started time so callers can still order degradations.
    ev.start_s = earliest_start_s;
    ev.ready_s = earliest_start_s;
  } else {
    ev.start_s = std::max(earliest_start_s, wire_busy_until_);
    ev.ready_s = ev.start_s + duration_s;
    wire_busy_until_ = ev.ready_s;
  }
  history_.push_back(ev);
  return ev;
}

double EventTimeline::horizon() const {
  return std::max(max_clock(), wire_busy_until_);
}

void EventTimeline::serialize(ckpt::Archive ar) {
  ar(clocks_, "clocks");  // one per rank: its length is the world
  ar(wire_busy_until_, "wire_busy_until");
  ar(next_seq_, "next_seq");
  if (!ar.loading()) return;
  world_ = static_cast<index_t>(clocks_.size());
  ar.require(world_ >= 1, "clocks", "world ", world_);
  history_.clear();
}

bool completes_before(const TimelineEvent& a, const TimelineEvent& b) {
  if (a.ready_s != b.ready_s) return a.ready_s < b.ready_s;
  return a.seq < b.seq;
}

}  // namespace hylo
