#include "hylo/optim/second_order.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/common/timer.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {

using Collective = CurvatureOptimizer::Collective;

// Issue one collective on the event timeline; a loss comes back as
// event.failed.
CommEvent issue(CommSim& comm, const Collective& c, double earliest_s) {
  const char* section =
      c.kind == Collective::Kind::kBroadcast ? "comm/broadcast" : "comm/gather";
  if (c.kind == Collective::Kind::kAllgather) {
    std::vector<index_t> bytes;
    bytes.reserve(c.scalars.size());
    for (const index_t s : c.scalars) bytes.push_back(comm.wire_bytes(s));
    return comm.icharge_allgather(bytes, section, earliest_s);
  }
  const index_t bytes = comm.wire_bytes(c.scalars.front());
  if (c.kind == Collective::Kind::kAllreduce)
    return comm.icharge_allreduce(bytes, section, earliest_s);
  return comm.icharge_broadcast(bytes, section, earliest_s);
}

// Consume the escaped-corruption ticket the collective just issued may have
// left and flip its seeded bits in one of the candidate matrices the
// collective carried; the seed picks that victim deterministically.
void apply_escaped_corruption(CommSim& comm,
                              const std::vector<Matrix*>& carries) {
  const auto ticket = comm.take_silent_corruption();
  if (!ticket || carries.empty()) return;
  Matrix* victim = carries[static_cast<std::size_t>(*ticket % carries.size())];
  if (victim != nullptr) corrupt_values(*victim, *ticket);
}

// Issue a layer's collectives in order, each starting once its predecessor
// completes, and stop at the first one lost. Lockstep waits out every link.
// The returned handle starts with the first link, completes with the last
// one issued and fails if that one was lost.
CommEvent publish(CommSim& comm, const std::vector<Collective>& chain,
                  double now) {
  CommEvent ev;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const CommEvent link = issue(comm, chain[i], i == 0 ? now : ev.ready_s);
    if (!comm.async()) comm.wait(link);
    if (i == 0) ev.start_s = link.start_s;
    ev.seq = link.seq;
    ev.ready_s = link.ready_s;
    ev.failed = link.failed;
    if (link.failed) break;
    apply_escaped_corruption(comm, chain[i].carries);
  }
  return ev;
}

// Bookkeeping for a refresh that did not commit (a collective lost to an
// injected fault, a missed async deadline, or a guard rejection): counts
// optim/<method>/stale_refreshes and drops a trace instant naming the
// fallback the layer degrades to.
void note_stale_refresh(CommSim& comm, const char* method, index_t layer,
                        bool has_previous) {
  comm.profiler()
      .registry()
      .counter(std::string("optim/") + method + "/stale_refreshes")
      .inc();
  if (comm.trace() != nullptr) {
    obs::Json args = obs::Json::object();
    args.set("optimizer", method);
    args.set("layer", static_cast<std::int64_t>(layer));
    args.set("fallback", has_previous ? "stale_factors" : "sgd_direction");
    comm.trace_instant("stale_refresh", "optim", std::move(args));
  }
}

// Numeric commit gate (DESIGN.md §16): a candidate is rejected when a
// matrix holds non-finite values or an absurd magnitude, or when its norm
// explodes relative to the position-matched served predecessor (an empty or
// missing predecessor skips that ratio check). Each matrix is read once
// (kern::norm_scan: finiteness and a lane-partial sum of squares); a
// candidate that passes keeps its norms, so as the served predecessor it is
// not scanned again. A rejection books optim/<method>/guard_rejects (+ a
// trace instant) and the layer degrades exactly as for a lost collective.
bool guard_commit(CommSim& comm, const char* method, index_t layer,
                  CurvatureOptimizer::LayerState& cand,
                  const CurvatureOptimizer::LayerState* served) {
  // Bounds chosen far outside anything a healthy refresh produces: a clean
  // run never trips them, so default-on gates stay bitwise-invisible.
  constexpr real_t kAbsNormBound = 1e30;
  constexpr real_t kRatioBound = 1e6;
  const std::vector<const Matrix*> next = cand.guarded();
  const std::vector<const Matrix*> prev =
      served != nullptr ? served->guarded() : std::vector<const Matrix*>{};
  // A served state restored from a snapshot, or committed ungated, has no
  // norms yet.
  const auto prev_norm = [&](std::size_t i) {
    if (served->gate_norms.size() == prev.size()) return served->gate_norms[i];
    return std::sqrt(kern::norm_scan(prev[i]->data(), prev[i]->size()).sumsq);
  };
  std::vector<real_t> norms(next.size(), 0.0);
  const char* reason = nullptr;
  for (std::size_t i = 0; i < next.size(); ++i) {
    const Matrix* m = next[i];
    if (m == nullptr || m->size() == 0) continue;
    const kern::NormScan scan = kern::norm_scan(m->data(), m->size());
    if (!scan.finite) {
      reason = "non_finite";
      break;
    }
    const real_t norm = norms[i] = std::sqrt(scan.sumsq);
    if (norm > kAbsNormBound) {
      reason = "abs_norm";
      break;
    }
    if (i < prev.size() && prev[i] != nullptr && prev[i]->size() > 0) {
      const real_t before = prev_norm(i);
      if (before > 0.0 && norm > kRatioBound * before) {
        reason = "norm_ratio";
        break;
      }
    }
  }
  if (reason == nullptr) {
    cand.gate_norms = std::move(norms);
    return true;
  }
  comm.profiler()
      .registry()
      .counter(std::string("optim/") + method + "/guard_rejects")
      .inc();
  if (comm.trace() != nullptr) {
    obs::Json args = obs::Json::object();
    args.set("optimizer", method);
    args.set("layer", static_cast<std::int64_t>(layer));
    args.set("reason", reason);
    comm.trace_instant("guard_reject", "optim", std::move(args));
  }
  return false;
}

}  // namespace

CurvatureOptimizer::Collective CurvatureOptimizer::Collective::allgather(
    const std::vector<Matrix>& parts, std::vector<Matrix*> carries) {
  Collective c{Kind::kAllgather, {}, std::move(carries)};
  c.scalars.reserve(parts.size());
  for (const Matrix& m : parts) c.scalars.push_back(m.size());
  return c;
}

void CurvatureOptimizer::update_curvature(
    const std::vector<ParamBlock*>& blocks, const CaptureSet& capture,
    CommSim* comm) {
  const index_t layers = capture.layers();
  HYLO_CHECK(layers == static_cast<index_t>(blocks.size()),
             "capture/block count mismatch");
  const bool async = comm != nullptr && comm->async();
  // The next refresh is the commit deadline: whatever is still in flight
  // degrades to stale factors, exactly like a lost lockstep collective.
  if (async) settle_in_flight(*comm, /*deadline=*/true);
  if (static_cast<index_t>(layers_.size()) != layers) {
    layers_.resize(static_cast<std::size_t>(layers));
    staleness_.resize(static_cast<std::size_t>(layers), 0);
  }

  // Candidates are complete before any collective goes out (the data lives
  // in shared memory); only their commit waits on the collectives.
  // hylo-scratch-begin(refresh)
  std::vector<Candidate> built = build(capture, comm);
  HYLO_CHECK(static_cast<index_t>(built.size()) == layers,
             "" << name() << " built " << built.size() << " candidates for "
                    << layers << " layers");
  double now = 0.0;
  if (comm != nullptr) {
    const LayerAssignment owners(layers, comm->world());
    for (index_t l = 0; l < layers; ++l) {
      const Candidate& c = built[static_cast<std::size_t>(l)];
      const obs::Json args = obs::Json::object().set("layer", l);
      for (index_t rank = 0; rank < comm->world(); ++rank)
        comm->compute(rank, c.local_flops, "factorization", args);
      comm->compute(owners.owner(l), c.owner_flops, "inversion", args);
    }
    now = comm->timeline()->max_clock();
  }
  for (index_t l = 0; l < layers; ++l) {
    Candidate& c = built[static_cast<std::size_t>(l)];
    const CommEvent ev =
        comm != nullptr ? publish(*comm, c.collectives, now) : CommEvent{};
    if (async) {
      // hylo-commit-begin(refresh)
      in_flight_.push_back({l, ev, std::move(c.state)});
      // hylo-commit-end(refresh)
    } else {
      settle(comm, l, std::move(c.state), !ev.failed);
    }
  }
  // hylo-scratch-end(refresh)
  probe_health(capture);
}

void CurvatureOptimizer::settle(CommSim* comm, index_t layer,
                                std::unique_ptr<LayerState> cand,
                                bool landed) {
  // hylo-scratch-begin(settle)
  auto& slot = layers_[static_cast<std::size_t>(layer)];
  auto& age = staleness_[static_cast<std::size_t>(layer)];
  bool commit = landed && (comm == nullptr || !cfg_.guard_gates);
  if (landed && !commit) {
    const WallTimer timer;
    commit = guard_commit(*comm, method_, layer, *cand, slot.get());
    comm->profiler().add("comp/commit_gate", timer.seconds());
  }
  if (!commit && comm != nullptr)
    note_stale_refresh(*comm, method_, layer, slot != nullptr);
  // hylo-commit-begin(settle)
  if (commit) {
    slot = std::move(cand);
    age = 0;
  } else {
    ++age;
  }
  // hylo-commit-end(settle)
  // hylo-scratch-end(settle)
}

void CurvatureOptimizer::settle_in_flight(CommSim& comm, bool deadline) {
  if (in_flight_.empty()) return;
  const double now = comm.timeline()->max_clock();
  // hylo-scratch-begin(settle_in_flight)
  // hylo-commit-begin(take_in_flight)
  std::vector<InFlight> queue = std::move(in_flight_);
  in_flight_.clear();
  // hylo-commit-end(take_in_flight)
  // The event-queue rule: chains settle in (ready time, seq) order, which
  // totally orders the replayed timeline.
  std::sort(queue.begin(), queue.end(),
            [](const InFlight& x, const InFlight& y) {
              if (x.event.ready_s != y.event.ready_s)
                return x.event.ready_s < y.event.ready_s;
              return x.event.seq < y.event.seq;
            });
  for (InFlight& p : queue) {
    if (p.layer >= static_cast<index_t>(layers_.size()))
      continue;  // network shrank; refresh is moot
    const bool landed = !p.event.failed && p.event.ready_s <= now;
    if (landed || p.event.failed || deadline) {
      settle(&comm, p.layer, std::move(p.state), landed);
    } else {
      // hylo-commit-begin(keep_in_flight)
      in_flight_.push_back(std::move(p));
      // hylo-commit-end(keep_in_flight)
    }
  }
  // hylo-scratch-end(settle_in_flight)
}

void CurvatureOptimizer::poll_async(CommSim& comm) {
  settle_in_flight(comm, /*deadline=*/false);
}

index_t CurvatureOptimizer::layer_staleness(index_t layer) const {
  HYLO_CHECK(layer >= 0 && layer < static_cast<index_t>(staleness_.size()),
             "" << name() << " layer " << layer << " unknown");
  return staleness_[static_cast<std::size_t>(layer)];
}

// Health probes read the *served* state, so a layer whose refresh was lost
// reports its stale factors, not the dropped candidate.
void CurvatureOptimizer::probe_health(const CaptureSet& capture) const {
  if (health_ == nullptr || !health_->due()) return;
  for (index_t l = 0; l < static_cast<index_t>(layers_.size()); ++l) {
    obs::LayerHealth h;
    h.layer = l;
    h.staleness = staleness_[static_cast<std::size_t>(l)];
    if (layer_ready(l)) probe_layer(l, capture, h);
    health_->report_layer(h);
  }
}

void CurvatureOptimizer::step(Network& net, index_t /*iteration*/) {
  auto blocks = net.param_blocks();
  // Snapshot raw gradients, then precondition in place.
  std::vector<Matrix> raw;
  raw.reserve(blocks.size());
  for (auto* pb : blocks) raw.push_back(pb->gw);
  // Recovery-ladder rung 2: the raw gradient passes through unchanged (the
  // KL clip below then degenerates to a plain norm clip).
  if (!first_order())
    for (std::size_t l = 0; l < blocks.size(); ++l)
      if (layer_ready(static_cast<index_t>(l)))
        precondition_block(*blocks[l], static_cast<index_t>(l));

  if (health_ != nullptr && health_->due()) {
    // gw now holds the preconditioned direction, raw the incoming gradient —
    // exactly the pair the update_ratio probe wants, with no extra GEMMs.
    for (std::size_t l = 0; l < blocks.size(); ++l)
      health_->report_norms(static_cast<index_t>(l), frobenius_norm(raw[l]),
                            frobenius_norm(blocks[l]->gw));
  }

  // KL clip (trust region on the quadratic model).
  real_t vg = 0.0;
  for (std::size_t l = 0; l < blocks.size(); ++l)
    vg += cfg_.lr * cfg_.lr * dot(blocks[l]->gw, raw[l]);
  real_t nu = 1.0;
  if (cfg_.kl_clip > 0.0 && vg > cfg_.kl_clip)
    nu = std::sqrt(cfg_.kl_clip / vg);
  apply_sgd_update(net, nu);
}

double CurvatureOptimizer::precondition_flops() const {
  double total = 0.0;
  if (first_order_) return total;
  for (const auto& st : layers_)
    if (st != nullptr) total += st->precondition_flops();
  return total;
}

index_t CurvatureOptimizer::state_bytes() const {
  index_t scalars = 0;
  for (const auto& st : layers_)
    if (st != nullptr) scalars += st->scalars();
  return scalars * static_cast<index_t>(sizeof(real_t)) + momentum_bytes();
}

void CurvatureOptimizer::serialize_state(Network& net, ckpt::Archive ar) {
  Optimizer::serialize_state(net, ar);
  ar.count(layers_, 9, "layers");  // staleness (8 bytes) + ready flag (1)
  staleness_.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    ar(staleness_[l], "staleness");
    bool ready = layers_[l] != nullptr;
    ar(ready, "ready");
    if (!ready) continue;
    if (ar.loading()) layers_[l] = make_state();
    layers_[l]->serialize(ar);
  }
  // layer (8 bytes) + event seq, start and ready (24) + failed flag (1)
  ar.count(in_flight_, 33, "in_flight");
  for (InFlight& p : in_flight_) {
    ar(p.layer, "in_flight.layer");
    ar.require(p.layer >= 0 && p.layer < static_cast<index_t>(layers_.size()),
               "in_flight.layer", "layer ", p.layer, " of ", layers_.size());
    ar(p.event.seq, "in_flight.seq");
    ar(p.event.start_s, "in_flight.start_s");
    ar(p.event.ready_s, "in_flight.ready_s");
    // settle_in_flight sorts on ready_s: a NaN would break the ordering.
    ar.require(std::isfinite(p.event.start_s) && std::isfinite(p.event.ready_s),
               "in_flight.ready_s", "event times ", p.event.start_s, ", ",
               p.event.ready_s, " are not finite");
    ar(p.event.failed, "in_flight.failed");
    if (ar.loading()) p.state = make_state();
    p.state->serialize(ar);
  }
}

void CurvatureOptimizer::book_inversions(
    CommSim* comm, const std::vector<double>& seconds) const {
  if (comm == nullptr) return;
  obs::Histogram& hist = comm->profiler().registry().histogram(
      std::string("optim/") + method_ + "/inversion_seconds");
  double total = 0.0;
  for (const double s : seconds) {
    hist.observe(s);
    total += s;
  }
  comm->profiler().add("comp/inversion", total);
}

Matrix damped_cholesky(const Matrix& c, real_t damping, int attempts) {
  // Escalation floor scaled to the matrix magnitude, so retries make real
  // progress even when the caller passed a denormal damping.
  const real_t scale =
      1e-8 * (std::abs(trace(c)) / static_cast<real_t>(c.rows()) + 1.0);
  // The damped diagonal, which try_cholesky places into its own copy of c's
  // lower triangle: no damped copy of c.
  std::vector<real_t> diag(static_cast<std::size_t>(c.rows()));
  for (index_t i = 0; i < c.rows(); ++i)
    diag[static_cast<std::size_t>(i)] = c(i, i);
  real_t added = 0.0;
  real_t next = damping;
  Matrix l;
  for (int k = 0; k < attempts; ++k) {
    for (real_t& d : diag) d += next - added;
    added = next;
    if (try_cholesky(c, l, diag.data())) return l;
    next = std::max(next * 10.0, scale);
  }
  HYLO_CHECK(false, "matrix stayed indefinite after damping escalation (n="
                        << c.rows() << ", final damping " << added << ")");
  return l;
}

Matrix damped_spd_inverse(const Matrix& c, real_t damping, int attempts) {
  return cholesky_inverse(damped_cholesky(c, damping, attempts));
}

}  // namespace hylo
