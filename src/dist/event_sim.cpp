#include "hylo/dist/event_sim.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/ckpt/snapshot.hpp"

namespace hylo {

EventTimeline::EventTimeline(index_t world) : world_(world) {
  HYLO_CHECK(world >= 1, "timeline world must be >= 1");
  clocks_.assign(static_cast<std::size_t>(world), 0.0);
}

void EventTimeline::set_world(index_t world) {
  HYLO_CHECK(world >= 1, "timeline world must be >= 1");
  const double now = max_clock();
  // Close the stretch before a lost clock can take its advance with it.
  compute_s_ += now - synced_s_;
  world_ = world;
  clocks_.resize(static_cast<std::size_t>(world), now);
  synced_s_ = max_clock();
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
  compute_s_ += max_clock() - synced_s_;
  for (double& c : clocks_) c = std::max(c, t);
  synced_s_ = max_clock();
}

double EventTimeline::compute_seconds() const {
  return compute_s_ + (max_clock() - synced_s_);
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
  ev.start_s = std::max(earliest_start_s, wire_busy_until_);
  ev.ready_s = ev.start_s + duration_s;
  wire_busy_until_ = ev.ready_s;
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
  ar(compute_s_, "compute");
  ar(synced_s_, "synced");
  if (!ar.loading()) return;
  world_ = static_cast<index_t>(clocks_.size());
  ar.require(world_ >= 1, "clocks", "world ", world_);
  ar.require(std::isfinite(compute_s_) && std::isfinite(synced_s_) &&
                 synced_s_ <= max_clock(),
             "synced", "critical-path compute ", compute_s_, " synced at ",
             synced_s_, " past the clocks");
  history_.clear();
}

bool completes_before(const TimelineEvent& a, const TimelineEvent& b) {
  if (a.ready_s != b.ready_s) return a.ready_s < b.ready_s;
  return a.seq < b.seq;
}

}  // namespace hylo
