#include "hylo/dist/comm.hpp"

#include <algorithm>
#include <cstring>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/common/env.hpp"
#include "hylo/common/rng.hpp"

namespace hylo {

const char* to_string(CommMode mode) {
  switch (mode) {
    case CommMode::kLockstep: return "lockstep";
    case CommMode::kAsync: return "async";
  }
  return "?";
}

CommMode parse_comm_mode(const std::string& spec) {
  const std::string v = env::lower(spec);
  if (v == "lockstep" || v == "sync") return CommMode::kLockstep;
  if (v == "async" || v == "event") return CommMode::kAsync;
  HYLO_CHECK(false, "'" << spec
                        << "' is not a comm mode (lockstep|sync|async|event)");
  return CommMode::kLockstep;
}

void corrupt_values(Matrix& m, std::uint64_t seed) {
  if (m.size() == 0) return;
  Rng rng(seed);
  const index_t flips = 1 + rng.uniform_int(3);
  for (index_t f = 0; f < flips; ++f) {
    real_t& v = m.data()[rng.uniform_int(m.size())];
    const index_t bit = rng.uniform_int(
        static_cast<index_t>(sizeof(real_t)) * 8);
    unsigned char bytes[sizeof(real_t)];
    std::memcpy(bytes, &v, sizeof(real_t));
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    std::memcpy(&v, bytes, sizeof(real_t));
  }
}

void CommSim::configure_faults(const FaultConfig& cfg) {
  fault_plan_ = cfg.enabled() ? std::make_unique<FaultPlan>(cfg) : nullptr;
}

void CommSim::compute(index_t rank, double flops, const std::string& stage,
                      obs::Json args) {
  if (flops == 0.0) return;
  const double seconds = compute_seconds(compute_, flops);
  const double start = timeline_.rank_clock(rank);
  timeline_.advance(rank, seconds);
  profiler_.add("model/" + stage, seconds);
  if (trace_ != nullptr)
    trace_->add_span(stage, "model", static_cast<int>(rank), start, seconds,
                     std::move(args));
}

void CommSim::trace_instant(const std::string& name, const std::string& cat,
                            obs::Json args) {
  if (trace_ != nullptr)
    trace_->add_instant(name, cat, obs::TraceBuffer::kCommTrack,
                        timeline_.max_clock(), std::move(args));
}

CommSim::FaultOutcome CommSim::apply_fault(const FaultEvent& ev, index_t bytes,
                                           double seconds, FailMode mode) {
  auto& reg = profiler_.registry();
  reg.counter("comm/faults/injected").inc();
  reg.counter(std::string("comm/faults/") + to_string(ev.kind)).inc();

  FaultOutcome out;
  // The attempts were made (and their wire time passed) before the failure
  // was declared: book them, and let the caller degrade.
  auto lose = [&](double wasted) {
    profiler_.add("comm/faults/wasted", wasted);
    reg.counter("comm/faults/unrecoverable").inc();
    out.lost = true;
    out.extra_s = wasted;
    return out;
  };
  switch (ev.kind) {
    case FaultKind::kStraggler:
      out.extra_s = seconds * (ev.slowdown - 1.0);
      break;
    case FaultKind::kTimeout:
    case FaultKind::kCorruptPayload:
      out.extra_s = retry_seconds(model_, seconds, ev.retries);
      reg.counter("comm/faults/retries").inc(ev.retries);
      reg.counter("comm/faults/retry_bytes").inc(bytes * ev.retries);
      break;
    case FaultKind::kRankDown: {
      const double wasted = retry_seconds(model_, seconds, ev.retries);
      reg.counter("comm/faults/retries").inc(ev.retries);
      reg.counter("comm/faults/retry_bytes").inc(bytes * ev.retries);
      if (mode == FailMode::kMayFail) return lose(wasted);
      // Must-complete collective: re-form the ring without the dead rank
      // (one extra full-cost round) and finish.
      reg.counter("comm/faults/forced_recovery").inc();
      out.extra_s = wasted + retry_seconds(model_, seconds, 1);
      break;
    }
    case FaultKind::kRankLost: {
      // Permanent death. The data already lives in shared memory, so the
      // collective always completes: charge the attempt the dead rank took
      // down plus one re-form round among the survivors, and queue the rank
      // for the trainer to commit at the next iteration boundary. A world of
      // one (or one that would shrink to zero) cannot lose a rank — the
      // event degrades to a forced recovery with no shrink.
      const double wasted = retry_seconds(model_, seconds, ev.retries);
      reg.counter("comm/faults/retries").inc(ev.retries);
      reg.counter("comm/faults/retry_bytes").inc(bytes * ev.retries);
      reg.counter("comm/faults/forced_recovery").inc();
      out.extra_s = wasted + retry_seconds(model_, seconds, 1);
      const bool already_dying =
          std::find(pending_lost_.begin(), pending_lost_.end(), ev.rank) !=
          pending_lost_.end();
      if (!already_dying &&
          world_ - static_cast<index_t>(pending_lost_.size()) > 1)
        pending_lost_.push_back(ev.rank);
      break;
    }
    case FaultKind::kSilentCorrupt: {
      // The application-level CRC pass runs on every silent event, caught
      // or escaped — its modeled cost is charged either way.
      const double crc = checksum_seconds(model_, bytes);
      if (ev.detected) {
        // Caught: behaves like transport-level corruption, except the
        // detection happened at the application layer. Degradable
        // collectives abort to stale factors; must-complete collectives
        // retransmit.
        reg.counter("comm/faults/sdc_detected").inc();
        reg.counter("comm/faults/retries").inc(ev.retries);
        reg.counter("comm/faults/retry_bytes").inc(bytes * ev.retries);
        if (mode == FailMode::kMayFail)
          return lose(crc + retry_seconds(model_, seconds, ev.retries));
        reg.counter("comm/faults/forced_recovery").inc();
        out.extra_s = crc + retry_seconds(model_, seconds, ev.retries);
      } else {
        // Escaped: the collective "succeeds" and the caller must corrupt
        // the payload it just moved (take_silent_corruption ticket).
        reg.counter("comm/faults/sdc_escaped").inc();
        pending_sdc_ = ev.payload_seed;
        out.extra_s = crc;
      }
      break;
    }
    case FaultKind::kNone:
      break;
  }
  reg.histogram("comm/faults/extra_seconds").observe(out.extra_s);
  return out;
}

std::vector<index_t> CommSim::commit_shrinks() {
  std::vector<index_t> committed;
  committed.swap(pending_lost_);
  auto& reg = profiler_.registry();
  for (const index_t rank : committed) {
    HYLO_CHECK(world_ > 1, "cannot shrink a world of one");
    --world_;
    lost_ranks_.push_back(rank);
    reg.counter("dist/elastic/world_shrinks").inc();
    reg.gauge("dist/elastic/world").set(static_cast<double>(world_));
    if (trace_ != nullptr) {
      obs::Json args = obs::Json::object();
      args.set("lost_rank", static_cast<std::int64_t>(rank));
      args.set("world", static_cast<std::int64_t>(world_));
      trace_instant("world_shrink", "comm", std::move(args));
    }
  }
  if (!committed.empty()) timeline_.set_world(world_);
  return committed;
}

void CommSim::serialize_faults(ckpt::Archive ar) {
  HYLO_CHECK(faults_active(), "faults section without an active fault plan");
  fault_plan_->serialize(ar);
  const index_t configured =
      world_ + static_cast<index_t>(lost_ranks_.size());
  ar(world_, "world");
  ar(lost_ranks_, "lost_ranks");
  if (!ar.loading()) return;
  const auto lost = static_cast<index_t>(lost_ranks_.size());
  ar.require(world_ >= 1 && world_ <= configured && lost == configured - world_,
             "world", "elastic world ", world_, " + ", lost,
             " lost ranks != configured world ", configured);
  pending_lost_.clear();
}

void CommSim::block(const CommEvent& ev, const std::string& section) {
  wait(ev);
  if (ev.failed)
    throw CommFailure("collective under '" + section +
                      "' was lost to an injected fault and could not "
                      "complete");
}

CommEvent CommSim::icharge(const char* kind, index_t ledger_bytes,
                           const std::string& section, double seconds,
                           double earliest_start_s, FailMode mode) {
  // A corruption ticket belongs to exactly one collective: drop any that the
  // previous charge's caller declined to consume.
  pending_sdc_.reset();
  FaultEvent fev;
  FaultOutcome out;
  if (faults_active()) {
    fev = fault_plan_->next(world_);
    if (fev.kind != FaultKind::kNone)
      out = apply_fault(fev, ledger_bytes, seconds, mode);
  }
  // A lost collective holds the wire for its wasted attempts.
  const double wire_s = out.lost ? out.extra_s : seconds + out.extra_s;
  const TimelineEvent tev =
      timeline_.issue(section, earliest_start_s, wire_s, out.lost);
  if (!out.lost) {
    profiler_.add(section, wire_s);
    auto& reg = profiler_.registry();
    reg.counter(section + ".bytes").inc(ledger_bytes);
    reg.counter(section + ".msgs").inc();
  }
  if (trace_ != nullptr) {
    obs::Json args = obs::Json::object();
    args.set("kind", kind);
    args.set("bytes", static_cast<std::int64_t>(ledger_bytes));
    args.set("world", static_cast<std::int64_t>(world_));
    args.set("seq", static_cast<std::int64_t>(tev.seq));
    if (fev.kind != FaultKind::kNone) {
      args.set("fault", to_string(fev.kind));
      args.set("fault_rank", static_cast<std::int64_t>(fev.rank));
      if (fev.kind == FaultKind::kStraggler) args.set("slowdown", fev.slowdown);
      if (fev.retries > 0)
        args.set("retries", static_cast<std::int64_t>(fev.retries));
      if (fev.kind == FaultKind::kSilentCorrupt)
        args.set("escaped", static_cast<std::int64_t>(fev.detected ? 0 : 1));
      args.set(out.lost ? "wasted_s" : "fault_extra_s", out.extra_s);
    }
    trace_->add_span(section, "comm", obs::TraceBuffer::kCommTrack,
                     tev.start_s, wire_s, std::move(args));
  }
  return CommEvent{tev.seq, tev.start_s, tev.ready_s, out.lost};
}

namespace {
/// Total wire traffic of a ring allgather: every rank's payload traverses
/// world-1 hops.
index_t allgather_ledger_bytes(index_t world, index_t sum_bytes) {
  return (world - 1) * sum_bytes;
}
}  // namespace

void CommSim::charge_broadcast(index_t bytes, const std::string& section,
                               FailMode mode) {
  block(icharge_broadcast(bytes, section, timeline_.max_clock(), mode),
        section);
}

void CommSim::charge_allgather(index_t bytes_per_rank,
                               const std::string& section, FailMode mode) {
  charge_allgather(
      std::vector<index_t>(static_cast<std::size_t>(world_), bytes_per_rank),
      section, mode);
}

void CommSim::charge_allgather(const std::vector<index_t>& bytes_per_rank,
                               const std::string& section, FailMode mode) {
  block(icharge_allgather(bytes_per_rank, section, timeline_.max_clock(), mode),
        section);
}

void CommSim::charge_allreduce(index_t bytes, const std::string& section,
                               FailMode mode) {
  block(icharge_allreduce(bytes, section, timeline_.max_clock(), mode),
        section);
}

CommEvent CommSim::icharge_allgather(const std::vector<index_t>& bytes_per_rank,
                                     const std::string& section,
                                     double earliest_start_s, FailMode mode) {
  HYLO_CHECK(static_cast<index_t>(bytes_per_rank.size()) == world_,
             "allgather needs one payload size per rank");
  index_t sum = 0, mx = 0;
  for (const index_t b : bytes_per_rank) {
    HYLO_CHECK(b >= 0, "negative allgather payload");
    sum += b;
    mx = std::max(mx, b);
  }
  return icharge("allgather", allgather_ledger_bytes(world_, sum), section,
                 allgather_seconds(model_, world_, mx), earliest_start_s,
                 mode);
}

CommEvent CommSim::icharge_broadcast(index_t bytes, const std::string& section,
                                     double earliest_start_s, FailMode mode) {
  return icharge("broadcast", bytes, section,
                 broadcast_seconds(model_, world_, bytes), earliest_start_s,
                 mode);
}

CommEvent CommSim::icharge_allreduce(index_t bytes, const std::string& section,
                                     double earliest_start_s, FailMode mode) {
  return icharge("allreduce", bytes, section,
                 allreduce_seconds(model_, world_, bytes), earliest_start_s,
                 mode);
}

double CommSim::comm_seconds() const {
  double total = 0.0;
  for (const auto& [name, entry] : profiler_.sections())
    if (name.rfind("comm/", 0) == 0) total += entry.seconds;
  return total;
}

std::int64_t CommSim::total_wire_bytes() const {
  std::int64_t total = 0;
  for (const auto& [name, c] : profiler_.registry().counters())
    if (name.rfind("comm/", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".bytes") == 0)
      total += c.value();
  return total;
}

std::int64_t CommSim::total_messages() const {
  std::int64_t total = 0;
  for (const auto& [name, c] : profiler_.registry().counters())
    if (name.rfind("comm/", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".msgs") == 0)
      total += c.value();
  return total;
}

}  // namespace hylo
