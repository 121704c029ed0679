#pragma once
/// \file trace.hpp
/// Trace events on the *simulated* timeline. The runner executes the P
/// ranks sequentially, but the quantity of interest is the modeled parallel
/// schedule, so every span and instant arrives with its position on the
/// event timeline (hylo::EventTimeline) and the buffer only records it: a
/// rank track per simulated rank carries its modeled compute, the
/// interconnect track the wire events (DESIGN.md §7). A measured duration
/// travels only as a span arg named as measured. Events land in a bounded
/// ring buffer (oldest dropped first) and export as Chrome trace format
/// JSON, loadable in chrome://tracing or https://ui.perfetto.dev.
///
/// TraceBuffer is internally synchronized: every public method takes the
/// buffer mutex, so spans recorded from concurrent hylo::par workers are
/// serialized (their relative order then depends on thread timing).

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "hylo/common/thread_annotations.hpp"
#include "hylo/common/types.hpp"
#include "hylo/obs/json.hpp"

namespace hylo::obs {

struct TraceEvent {
  std::string name;
  std::string cat;      ///< "model", "comm", "optim", "train", ...
  char ph = 'X';        ///< Chrome phase: 'X' complete span, 'i' instant
  int tid = 0;          ///< track id: simulated rank, or kCommTrack
  double ts_us = 0.0;   ///< start, microseconds on the simulated timeline
  double dur_us = 0.0;  ///< span length ('X' only)
  Json args = Json::object();
};

class TraceBuffer {
 public:
  /// Track id used for modeled collectives (the "interconnect" lane).
  static constexpr int kCommTrack = 1 << 20;

  explicit TraceBuffer(std::size_t capacity = 1 << 16);

  /// Span of `dur_s` starting at `start_s` on the simulated timeline.
  void add_span(const std::string& name, const std::string& cat, int tid,
                double start_s, double dur_s, Json args = Json::object());

  /// Instant event at `at_s` on the simulated timeline.
  void add_instant(const std::string& name, const std::string& cat, int tid,
                   double at_s, Json args = Json::object());

  /// Label a track in the exported trace ("rank 0", "interconnect", ...).
  void set_track_name(int tid, std::string name);

  std::size_t size() const {
    MutexLock lk(mu_);
    return ring_.size();
  }
  /// Events evicted from the ring so far.
  std::int64_t dropped() const {
    MutexLock lk(mu_);
    return dropped_;
  }
  /// Oldest-first access, i in [0, size()). The reference stays valid only
  /// while no concurrent writer is recording.
  const TraceEvent& event(std::size_t i) const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with thread_name
  /// metadata for every named track.
  void write_chrome_trace(std::ostream& os) const;
  void write_chrome_trace(const std::string& path) const;

 private:
  void record(TraceEvent e) HYLO_REQUIRES(mu_);

  mutable Mutex mu_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_ HYLO_GUARDED_BY(mu_);  ///< circular once full
  std::size_t head_ HYLO_GUARDED_BY(mu_) = 0;  ///< next write slot when full
  std::int64_t dropped_ HYLO_GUARDED_BY(mu_) = 0;
  std::map<int, std::string> track_names_ HYLO_GUARDED_BY(mu_);
};

}  // namespace hylo::obs
