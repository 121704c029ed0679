#include "hylo/obs/trace.hpp"

#include <algorithm>
#include <fstream>

namespace hylo::obs {

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  HYLO_CHECK(capacity_ >= 1, "trace capacity must be >= 1");
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void TraceBuffer::record(TraceEvent e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
  dropped_ += 1;
}

const TraceEvent& TraceBuffer::event(std::size_t i) const {
  MutexLock lk(mu_);
  HYLO_CHECK(i < ring_.size(), "trace event index out of range");
  return ring_[(head_ + i) % ring_.size()];
}

void TraceBuffer::add_span(const std::string& name, const std::string& cat,
                           int tid, double start_s, double dur_s, Json args) {
  MutexLock lk(mu_);
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.tid = tid;
  e.ts_us = start_s * 1e6;
  e.dur_us = dur_s * 1e6;
  e.args = std::move(args);
  record(std::move(e));
}

void TraceBuffer::add_instant(const std::string& name, const std::string& cat,
                              int tid, double at_s, Json args) {
  MutexLock lk(mu_);
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.tid = tid;
  e.ts_us = at_s * 1e6;
  e.args = std::move(args);
  record(std::move(e));
}

void TraceBuffer::set_track_name(int tid, std::string name) {
  MutexLock lk(mu_);
  track_names_[tid] = std::move(name);
}

void TraceBuffer::write_chrome_trace(std::ostream& os) const {
  MutexLock lk(mu_);
  Json events = Json::array();
  for (const auto& [tid, name] : track_names_) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 0);
    meta.set("tid", tid);
    meta.set("args", Json::object().set("name", name));
    events.push(std::move(meta));
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& ev = ring_[(head_ + i) % ring_.size()];
    Json j = Json::object();
    j.set("name", ev.name);
    j.set("cat", ev.cat);
    j.set("ph", std::string(1, ev.ph));
    j.set("pid", 0);
    j.set("tid", ev.tid);
    j.set("ts", ev.ts_us);
    if (ev.ph == 'X') j.set("dur", ev.dur_us);
    if (ev.ph == 'i') j.set("s", "t");  // instant scope: thread
    if (ev.args.size() > 0) j.set("args", ev.args);
    events.push(std::move(j));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  if (dropped_ > 0)
    doc.set("otherData",
            Json::object().set("dropped_events", dropped_));
  doc.dump(os);
  os << "\n";
}

void TraceBuffer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  HYLO_CHECK(out.good(), "cannot open " << path);
  write_chrome_trace(out);
}

}  // namespace hylo::obs
