#include "hylo/core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "hylo/audit/audit.hpp"
#include "hylo/common/env.hpp"
#include "hylo/optim/hylo_optimizer.hpp"
#include "hylo/optim/kfac.hpp"
#include "hylo/optim/sngd.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {
/// The trainer's verbose flag doubles as the run log's echo switch.
obs::RunLogConfig telemetry_config(const TrainConfig& cfg) {
  obs::RunLogConfig rc = cfg.telemetry;
  rc.echo = rc.echo || cfg.verbose;
  return rc;
}

/// Thrown by check_triggers to unwind the epoch back to run(), which owns
/// the restore + ladder application. Never escapes run().
struct RollbackSignal {
  RecoveryAction action;
};

}  // namespace

real_t TrainResult::best_metric() const {
  real_t best = 0.0;
  for (const auto& e : epochs) best = std::max(best, e.test_metric);
  return best;
}

Trainer::Trainer(Network& net, Optimizer& opt, const DataSplit& data,
                 TrainConfig cfg)
    : net_(&net), opt_(&opt), data_(&data), cfg_(cfg),
      comm_(cfg.world, cfg.interconnect, cfg.compute),
      runlog_(telemetry_config(cfg)),
      segmentation_(data.train.is_segmentation()), world_(cfg.world) {
  HYLO_CHECK(cfg_.world >= 1 && cfg_.epochs >= 1 && cfg_.batch_size >= 1,
             "bad train config");
  const ResolvedConfig rc = resolve_config(cfg_);
  comm_.set_wire_scalar_bytes(cfg_.wire_scalar_bytes);
  comm_.set_mode(rc.comm_mode);
  comm_.configure_faults(rc.faults);
  ckpt_ = rc.checkpoint;
  recovery_ = RecoveryPolicy(rc.recovery);
  health_ = obs::HealthMonitor(rc.health);
  alerts_ = obs::AlertEngine(rc.health.alerts);
  curv_ = dynamic_cast<CurvatureOptimizer*>(opt_);
  blocks_ = net_->param_blocks();
  for (auto* pb : blocks_) {
    grad_scalars_ += pb->gw.size();
    fwd_bwd_flops_ += flops::forward_backward(cfg_.batch_size, pb->positions,
                                              pb->d_in, pb->d_out);
  }
  for (auto pp : net_->plain_params())
    grad_scalars_ += static_cast<index_t>(pp.grad->size());
  if (rc.health.enabled) {
    health_.set_method(env::lower(opt_->name()));
    health_.attach(&comm_.profiler().registry(), &runlog_);
    alerts_.attach(&comm_.profiler().registry(), &runlog_);
    opt_->set_health(&health_);
  }
  reset_loaders();
  if (runlog_.enabled()) {
    runlog_.attach_metrics(&comm_.profiler().registry());
    comm_.set_trace(&runlog_.trace());
    for (index_t r = 0; r < cfg_.world; ++r)
      runlog_.trace().set_track_name(static_cast<int>(r),
                                     "rank " + std::to_string(r));
    runlog_.trace().set_track_name(obs::TraceBuffer::kCommTrack,
                                   "interconnect");
    obs::Json start = obs::Json::object();
    start.set("optimizer", opt_->name());
    start.set("world", cfg_.world);
    start.set("epochs", cfg_.epochs);
    start.set("batch_size", cfg_.batch_size);
    start.set("lr", opt_->lr());
    start.set("wire_scalar_bytes", cfg_.wire_scalar_bytes);
    start.set("interconnect", cfg_.interconnect.name);
    start.set("comm_mode", to_string(comm_.mode()));
    start.set("compute_model", cfg_.compute.name);
    start.set("params", net_->num_params());
    start.set("kernel_tier", kern::tier_name(kern::active()));
    start.set("segmentation", segmentation_);
    if (comm_.faults_active()) {
      const FaultConfig& fc = comm_.fault_plan()->config();
      obs::Json faults = obs::Json::object();
      // Decimal string: a JSON number is a double and would round seeds
      // above 2^53 (and wrap those >= 2^63 through int64).
      faults.set("seed", std::to_string(fc.seed));
      faults.set("rate", fc.rate);
      faults.set("timeout_weight", fc.timeout_weight);
      faults.set("straggler_weight", fc.straggler_weight);
      faults.set("corrupt_weight", fc.corrupt_weight);
      faults.set("rank_down_weight", fc.rank_down_weight);
      faults.set("rank_lost_weight", fc.rank_lost_weight);
      // Silent-corruption fields appear only when the mix carries them, so
      // pre-existing fault specs keep their exact run_start record.
      if (fc.silent_weight > 0.0) {
        faults.set("silent_weight", fc.silent_weight);
        faults.set("sdc_escape", fc.sdc_escape);
      }
      start.set("faults", std::move(faults));
    }
    if (recovery_.enabled()) {
      const RecoveryConfig& rc = recovery_.config();
      obs::Json rec = obs::Json::object();
      rec.set("max_rollbacks", rc.max_rollbacks);
      rec.set("first_order_iters", rc.first_order_iters);
      rec.set("lr_backoff", rc.lr_backoff);
      start.set("recovery", std::move(rec));
    }
    start.set("config_source", rc.source);
    // A resumed run appends to the interrupted run's log: the original
    // run_start already opens it, resume() records the continuation point.
    if (!cfg_.telemetry.append) runlog_.record("run_start", std::move(start));
  }
}

std::pair<real_t, real_t> Trainer::evaluate() {
  const PassContext ctx{.training = false, .capture = false};
  const Dataset& test = data_->test;
  const index_t n = test.size();
  HYLO_CHECK(n > 0, "evaluate() needs a non-empty test split — training with "
                    "no held-out data would divide by zero here; trim epochs "
                    "or provide a test set");
  const index_t chunk = 256;
  real_t loss_sum = 0.0, metric_sum = 0.0;
  index_t covered = 0;
  for (index_t start = 0; start < n; start += chunk) {
    const index_t cnt = std::min(chunk, n - start);
    Tensor4 x(cnt, test.images.c(), test.images.h(), test.images.w());
    std::copy(test.images.sample_ptr(start),
              test.images.sample_ptr(start) + cnt * test.images.sample_size(),
              x.data());
    const Tensor4& out = net_->forward(x, ctx);
    if (segmentation_) {
      Tensor4 mask(cnt, 1, test.masks.h(), test.masks.w());
      std::copy(test.masks.sample_ptr(start),
                test.masks.sample_ptr(start) + cnt * test.masks.sample_size(),
                mask.data());
      const auto [l, m] = dice_.evaluate(out, mask);
      loss_sum += l * static_cast<real_t>(cnt);
      metric_sum += m * static_cast<real_t>(cnt);
    } else {
      std::vector<int> labels(test.labels.begin() + start,
                              test.labels.begin() + start + cnt);
      const auto [l, m] = ce_.evaluate(out, labels);
      loss_sum += l * static_cast<real_t>(cnt);
      metric_sum += m * static_cast<real_t>(cnt);
    }
    covered += cnt;
  }
  return {loss_sum / static_cast<real_t>(covered),
          metric_sum / static_cast<real_t>(covered)};
}

void Trainer::begin_epoch() {
  const bool decayed =
      cursor_.epoch > 0 && cfg_.lr_schedule.decays_at(cursor_.epoch);
  if (decayed) opt_->set_lr(opt_->lr() * cfg_.lr_schedule.gamma);
  opt_->begin_epoch(cursor_.epoch, decayed);
  cursor_.epoch_begun = true;
  // Recovery needs a rollback target before the first cadenced snapshot
  // lands: a fresh run pins its initial state (resume() pins the snapshot
  // it resumed from).
  if (recovery_.enabled() && global_iter_ == 0) pin_if_good(write_snapshot());
}

void Trainer::run_epoch(TrainResult& result) {
  reset_loaders();
  index_t iters = loaders_.front().batches_per_epoch();
  if (cfg_.max_iters_per_epoch >= 0)
    iters = std::min(iters, cfg_.max_iters_per_epoch);
  HYLO_CHECK(iters > 0, "epoch with zero iterations — dataset too small for "
                        "world*batch");
  HYLO_CHECK(cursor_.iter <= iters, "snapshot resumes at iteration "
                                        << cursor_.iter << " of an epoch with "
                                        << iters);
  while (cursor_.iter < iters) run_iteration();

  const auto [test_loss, test_metric] = evaluate();
  EpochStats stats;
  stats.epoch = cursor_.epoch;
  const real_t denom = static_cast<real_t>(cursor_.rank_batches);
  stats.train_loss = cursor_.loss_sum / denom;
  stats.train_metric = cursor_.metric_sum / denom;
  stats.test_loss = test_loss;
  stats.test_metric = test_metric;
  stats.wall_seconds = comm_.timeline()->horizon();
  // Uniform note: HyLo reports its per-epoch KID/KIS mode, every other
  // optimizer its name — so EpochStats carries the method tag regardless of
  // which optimizer ran.
  auto* hy = dynamic_cast<HyloOptimizer*>(opt_);
  stats.note = hy != nullptr ? to_string(hy->mode()) : opt_->name();
  if (cfg_.verbose || runlog_.enabled()) {
    std::ostringstream line;
    line << "[" << opt_->name() << "] epoch " << stats.epoch << " loss "
         << stats.train_loss << " train " << stats.train_metric << " test "
         << stats.test_metric << " t=" << stats.wall_seconds << "s"
         << (stats.note == opt_->name() ? "" : " (" + stats.note + ")");
    runlog_.console(line.str());
  }
  log_epoch(stats);
  if (health_.enabled()) {
    const std::int64_t faults =
        comm_.profiler().registry().counter_value("comm/faults/injected");
    alerts_.on_epoch(stats.epoch, global_iter_, stats.train_loss, stats.note,
                     faults - last_alert_faults_);
    last_alert_faults_ = faults;
  }
  // Epoch-boundary triggers (loss_divergence fires here, and a non-finite
  // epoch mean catches blow-ups the per-iteration check may have missed on
  // the probe-free epochs of a resumed run).
  check_triggers(stats.train_loss);
  if (hook_) hook_(stats, *net_);
  result.epochs.push_back(stats);
  cursor_ = Cursor{.epoch = cursor_.epoch + 1};
}

void Trainer::run_iteration() {
  const bool capture = opt_->needs_capture(global_iter_);
  // A probe opportunity is a curvature refresh — or, for first-order
  // methods (which never capture), every iteration; the monitor's cadence
  // then thins these to actual probes.
  if (health_.enabled() && (capture || curv_ == nullptr))
    health_.begin_refresh();
  CaptureSet cap;
  const WallTimer fb_timer;
  const auto [loss, metric] = forward_backward(capture, cap);
  // Before the optimizer consumes this iteration's gradients: a NaN loss
  // means the captures and gradients are poisoned too, and the curvature
  // machinery would fail loudly (Cholesky escalation) on them rather than
  // degrade (ChaosRecovery.NonFiniteLossRollsBackBeforeTheRefresh).
  check_triggers(loss);
  average_gradients(fb_timer);
  // Before step() serves curvature: commit every chain that completed while
  // this iteration's compute ran, before a refresh would declare the
  // stragglers stale (AsyncTrainer.CompletedChainsCommitBeforeStep).
  if (comm_.async() && curv_ != nullptr) curv_->poll_async(comm_);
  optimizer_step(capture, cap, loss);
  record_step(capture, loss, metric);
  probe_health();
  // A fresh critical alert rolls back before the iteration commits to a
  // snapshot, so every snapshot comes from an iteration that passed every
  // trigger.
  check_triggers(loss);
  end_iteration();
}

std::pair<real_t, real_t> Trainer::forward_backward(bool capture,
                                                    CaptureSet& cap) {
  const PassContext ctx{.training = true, .capture = capture};
  net_->zero_grad();
  if (capture) {
    cap.a.resize(blocks_.size());
    cap.g.resize(blocks_.size());
  }
  real_t loss = 0.0, metric = 0.0;
  for (index_t rank = 0; rank < world_; ++rank) {
    WallTimer rank_timer;
    HYLO_CHECK(loaders_[static_cast<std::size_t>(rank)].next(batch_),
               "loader exhausted mid-epoch");
    const Tensor4& out = net_->forward(batch_.images, ctx);
    LossResult lr = segmentation_ ? dice_.compute(out, batch_.masks)
                                  : ce_.compute(out, batch_.labels);
    loss += lr.loss;
    metric += lr.metric;
    net_->backward(lr.grad, ctx);
    if (capture) {
      for (std::size_t l = 0; l < blocks_.size(); ++l) {
        cap.a[l].push_back(std::move(blocks_[l]->a_samples));
        cap.g[l].push_back(std::move(blocks_[l]->g_samples));
      }
    }
    comm_.compute(rank, fwd_bwd_flops_, "forward_backward",
                  obs::Json::object()
                      .set("iter", global_iter_)
                      .set("measured_s", rank_timer.seconds()));
  }
  cursor_.loss_sum += loss;
  cursor_.metric_sum += metric;
  cursor_.rank_batches += world_;
  return {loss, metric};
}

void Trainer::average_gradients(const WallTimer& fb_timer) {
  // Average gradients over workers (the allreduce's arithmetic effect —
  // each backward already used its local-batch mean). Weighted over the
  // *surviving* ranks: after a world shrink the mean reweights itself.
  const real_t inv_world = 1.0 / static_cast<real_t>(world_);
  if (world_ > 1) {
    for (auto* pb : blocks_) pb->gw *= inv_world;
    for (auto pp : net_->plain_params())
      for (auto& g : *pp.grad) g *= inv_world;
  }
  comm_.profiler().add("comp/forward_backward", fb_timer.seconds());
  // The gradient allreduce must complete for the replicas to stay
  // bit-identical: injected rank_down faults re-form and retry.
  comm_.charge_allreduce(comm_.wire_bytes(grad_scalars_),
                         "comm/grad_allreduce",
                         FailMode::kRetryUntilSuccess);
}

void Trainer::optimizer_step(bool capture, const CaptureSet& cap,
                             real_t loss) {
  double step_s = 0.0;
  try {
    if (capture) opt_->update_curvature(blocks_, cap, &comm_);
    opt_->accumulate_gradient(blocks_);
    WallTimer step_timer;
    opt_->step(*net_, global_iter_);
    step_s = step_timer.seconds();
  } catch (const Error&) {
    // A numeric abort inside the optimizer (e.g. a Cholesky that stays
    // indefinite after damping escalation, fed by corruption the sanity
    // gates cannot see) is a critical trigger too: roll back instead of
    // dying, and let the rung-2 first-order window route the re-run
    // around the crashing refresh. Without recovery armed the abort
    // stays loud.
    if (!recovery_.enabled()) throw;
    check_triggers(loss, "optimizer_abort");
  }
  comm_.profiler().add("comp/step", step_s);
  const double step_flops =
      opt_->precondition_flops() + flops::update(grad_scalars_);
  for (index_t rank = 0; rank < world_; ++rank)
    comm_.compute(rank, step_flops, "step",
                  obs::Json::object().set("measured_s", step_s));
}

void Trainer::record_step(bool capture, real_t loss, real_t metric) {
  if (!runlog_.per_step()) return;
  obs::Json rec = obs::Json::object();
  rec.set("epoch", cursor_.epoch);
  rec.set("iter", cursor_.iter);
  rec.set("global_iter", global_iter_);
  rec.set("loss", loss / static_cast<real_t>(world_));
  rec.set("metric", metric / static_cast<real_t>(world_));
  rec.set("lr", opt_->lr());
  rec.set("capture", capture);
  if (auto* hy = dynamic_cast<HyloOptimizer*>(opt_); hy != nullptr) {
    rec.set("mode", to_string(hy->mode()));
    if (capture) rec.set("rank_r", hy->last_rank());
  }
  runlog_.record("step", std::move(rec));
}

void Trainer::probe_health() {
  if (!health_.enabled() || !health_.due()) return;
  // Trainer-side non-finite scan: live weights and the gradients the step
  // just consumed (probes are observers — nothing is modified).
  health_.report_nonfinite(nonfinite(/*grads=*/false),
                           nonfinite(/*grads=*/true));
  health_.flush(cursor_.epoch, cursor_.iter, global_iter_);
  alerts_.on_probe(cursor_.epoch, global_iter_, health_.last_nonfinite(),
                   health_.last_max_cond(), health_.last_max_staleness());
}

void Trainer::end_iteration() {
  ++global_iter_;
  ++cursor_.iter;
  // Rung-2 window: resume serving curvature once it expires.
  if (first_order_left_ > 0 && --first_order_left_ == 0 && curv_ != nullptr)
    curv_->set_first_order(false);
  // Rank deaths recorded mid-iteration commit at the boundary, so every
  // collective of one iteration saw one world, and before the snapshot, so
  // a snapshot holds the post-shrink world
  // (ElasticWorld.ResumeRestoresShrunkenWorld).
  if (comm_.has_pending_shrinks()) apply_world_shrink();
  if (ckpt_.enabled() && global_iter_ % ckpt_.every == 0)
    pin_if_good(write_snapshot());
}

void Trainer::check_triggers(real_t loss, const char* why) {
  if (!recovery_.enabled()) return;
  if (why == nullptr && !std::isfinite(loss)) why = "non_finite_loss";
  if (why == nullptr && alerts_.critical_count() > last_crit_seen_)
    why = "critical_alert";
  last_crit_seen_ = alerts_.critical_count();
  if (why == nullptr) return;
  HYLO_CHECK(!last_good_path_.empty(),
             "recovery triggered (" << why << ") at epoch " << cursor_.epoch
                 << " iter " << cursor_.iter
                 << " with no verified-good snapshot to roll back to — "
                    "tighten the checkpoint cadence (checkpoint.every / "
                    "HYLO_CKPT_EVERY)");
  const RecoveryAction act = recovery_.on_trigger(last_good_path_);
  obs::Json rec = obs::Json::object();  // the rollback or exhaustion record
  rec.set("trigger", why);
  rec.set("epoch", cursor_.epoch);
  rec.set("iter", cursor_.iter);
  rec.set("global_iter", global_iter_);
  if (act.exhausted) {
    // Loud failure with the recovery report on disk: never degrade a spent
    // budget into a silent wrong result.
    if (runlog_.enabled()) {
      rec.set("rollbacks", recovery_.rollbacks());
      rec.set("budget", recovery_.config().max_rollbacks);
      rec.set("last_good", last_good_path_);
      runlog_.record("recovery_exhausted", std::move(rec));
      runlog_.finish();
    }
    HYLO_CHECK(false,
               "recovery budget exhausted: "
                   << recovery_.rollbacks() << "/"
                   << recovery_.config().max_rollbacks
                   << " rollbacks consumed and " << why
                   << " fired again at epoch " << cursor_.epoch << " iter "
                   << cursor_.iter
                   << " — the run cannot self-heal; see the run log's "
                      "rollback records for the incident timeline");
  }
  comm_.profiler().registry().counter("recover/rollbacks").inc();
  if (runlog_.enabled()) {
    rec.set("target", last_good_path_);
    rec.set("rung", act.rung);
    rec.set("first_order", act.first_order);
    rec.set("reduce_lr", act.reduce_lr);
    rec.set("rollbacks", recovery_.rollbacks());
    rec.set("budget_left", recovery_.budget_left());
    runlog_.record("rollback", std::move(rec));
    obs::Json args = obs::Json::object();
    args.set("trigger", why);
    args.set("rung", act.rung);
    comm_.trace_instant("rollback", "recover", std::move(args));
  }
  runlog_.console("[recover] " + std::string(why) + " at epoch " +
                  std::to_string(cursor_.epoch) + " iter " +
                  std::to_string(cursor_.iter) + " — rolling back to " +
                  last_good_path_ + " (rung " + std::to_string(act.rung) +
                  ", " + std::to_string(recovery_.budget_left()) +
                  " retries left)");
  throw RollbackSignal{act};
}

void Trainer::roll_back(const RecoveryAction& act, TrainResult& result) {
  WallTimer timer;
  const index_t before = global_iter_;
  // The meta section was written by this very trainer, so the structural
  // checks are skipped; the container's per-section CRCs still verify the
  // bytes. The run-log cursor is ignored: the live log keeps appending.
  load_sections(ckpt::SnapshotReader(last_good_path_), /*rollback=*/true);
  comm_.profiler().add("ckpt/restore", timer.seconds());
  comm_.profiler().registry().counter("recover/rerun_iters")
      .inc(before - global_iter_);
  // Apply the ladder *after* the restore — it just rewound the
  // optimizer (including its lr) to the snapshot's values.
  if (act.first_order && curv_ != nullptr) {
    curv_->set_first_order(true);
    first_order_left_ = recovery_.config().first_order_iters;
  }
  if (act.reduce_lr) opt_->set_lr(opt_->lr() * recovery_.config().lr_backoff);
  // Drop stats from the window being re-run; the re-run re-records them.
  while (!result.epochs.empty() &&
         result.epochs.back().epoch >= cursor_.epoch)
    result.epochs.pop_back();
}

obs::Json Trainer::measured_seconds() const {
  const Profiler& prof = comm_.profiler();
  obs::Json out = obs::Json::object();
  for (const char* stage : {"forward_backward", "factorization", "inversion",
                            "commit_gate", "step"})
    out.set(stage, prof.seconds(std::string("comp/") + stage));
  return out;
}

obs::Json Trainer::collective_deltas() {
  // Snapshot-and-subtract so each epoch record carries only its own
  // collective traffic, not the cumulative totals.
  obs::Json out = obs::Json::object();
  const auto& reg = comm_.profiler().registry();
  for (const auto& [name, entry] : comm_.profiler().sections()) {
    if (name.rfind("comm/", 0) != 0) continue;
    const std::int64_t bytes = reg.counter_value(name + ".bytes");
    const std::int64_t msgs = reg.counter_value(name + ".msgs");
    obs::Json c = obs::Json::object();
    c.set("calls", msgs - last_comm_counters_[name + ".msgs"]);
    c.set("bytes", bytes - last_comm_counters_[name + ".bytes"]);
    c.set("modeled_seconds", entry.seconds - last_comm_seconds_[name]);
    last_comm_counters_[name + ".msgs"] = msgs;
    last_comm_counters_[name + ".bytes"] = bytes;
    last_comm_seconds_[name] = entry.seconds;
    out.set(name, std::move(c));
  }
  return out;
}

obs::Json Trainer::fault_deltas(std::int64_t* stale) {
  obs::Json out = obs::Json::object();
  *stale = 0;
  for (const auto& [name, c] : comm_.profiler().registry().counters()) {
    const bool is_fault = name.starts_with("comm/faults/");
    const bool is_stale =
        name.starts_with("optim/") && name.ends_with("/stale_refreshes");
    if (!is_fault && !is_stale) continue;
    const std::int64_t delta = c.value() - last_fault_counters_[name];
    last_fault_counters_[name] = c.value();
    if (is_fault) out.set(name.substr(12), delta);  // strip "comm/faults/"
    if (is_stale) *stale += delta;
  }
  return out;
}

void Trainer::log_epoch(const EpochStats& stats) {
  if (!runlog_.enabled()) return;
  obs::Json rec = obs::Json::object();
  rec.set("epoch", stats.epoch);
  rec.set("train_loss", stats.train_loss);
  rec.set("train_metric", stats.train_metric);
  rec.set("test_loss", stats.test_loss);
  rec.set("test_metric", stats.test_metric);
  rec.set("lr", opt_->lr());
  rec.set("mode", stats.note);
  // Cumulative seconds: the modeled wall with its critical-path compute and
  // wire ledger, and the measured CPU seconds beside them, never summed in.
  obs::Json time = obs::Json::object();
  time.set("wall", stats.wall_seconds);
  time.set("compute", comm_.timeline()->compute_seconds());
  time.set("comm", comm_.comm_seconds());
  time.set("measured", measured_seconds());
  rec.set("time", std::move(time));
  rec.set("collectives", collective_deltas());
  // Degradation accounting, present only when fault injection is active so
  // fault-free run logs stay byte-identical to a build without it.
  if (comm_.faults_active()) {
    std::int64_t stale = 0;
    rec.set("faults", fault_deltas(&stale));
    rec.set("stale_refreshes", stale);
    rec.set("world", world_);
  }
  if (auto* hy = dynamic_cast<HyloOptimizer*>(opt_); hy != nullptr) {
    rec.set("rank_r", hy->last_rank());
    const SwitchDecision& dec = hy->last_switch();
    obs::Json sw = obs::Json::object();
    sw.set("R", dec.ratio);
    sw.set("threshold", dec.threshold);
    sw.set("exceeded", dec.ratio >= 0.0 && dec.ratio >= dec.threshold);
    sw.set("lr_decayed", dec.lr_decayed);
    sw.set("critical", dec.critical);
    sw.set("reason", dec.reason);
    rec.set("switching", std::move(sw));
    comm_.trace_instant("mode:" + stats.note, "train",
                        obs::Json::object().set("epoch", stats.epoch));
  }
  runlog_.record("epoch", std::move(rec));
}

TrainResult Trainer::run() {
  HYLO_CHECK(!ran_, "Trainer::run may be called once per Trainer — it "
                    "continues from where the last run stopped; construct a "
                    "fresh Trainer to train again");
  ran_ = true;
  TrainResult result;
  while (cursor_.epoch < cfg_.epochs) {
    if (!cursor_.epoch_begun) begin_epoch();
    try {
      run_epoch(result);
    } catch (const RollbackSignal& rb) {
      roll_back(rb.action, result);
      continue;
    }
    const EpochStats& last = result.epochs.back();
    if (cfg_.target_metric > 0.0 && last.test_metric >= cfg_.target_metric) {
      result.time_to_target = last.wall_seconds;
      result.epochs_to_target = last.epoch + 1;
      break;  // time-to-convergence experiments stop at target
    }
  }
  // Cumulative, so a resumed run's count matches the uninterrupted run's.
  result.iterations = global_iter_;
  result.total_seconds = comm_.timeline()->horizon();
  result.compute_seconds = comm_.timeline()->compute_seconds();
  result.comm_seconds = comm_.comm_seconds();
  result.alerts_fired = static_cast<index_t>(alerts_.fired().size());
  result.critical_alerts = alerts_.critical_count();
  result.rollbacks = recovery_.rollbacks();
  if (recovery_.enabled() && runlog_.enabled()) {
    // Post-run recovery rollup, mirroring health_summary: how much of the
    // retry budget the run consumed and where it would roll back to now.
    const auto& reg = comm_.profiler().registry();
    obs::Json rec = obs::Json::object();
    rec.set("rollbacks", recovery_.rollbacks());
    rec.set("budget", recovery_.config().max_rollbacks);
    rec.set("rerun_iters", reg.counter_value("recover/rerun_iters"));
    rec.set("guard_rejects", optim_counter_sum(reg, "/guard_rejects"));
    rec.set("last_good", last_good_path_);
    runlog_.record("recovery_summary", std::move(rec));
  }
  if (health_.enabled()) {
    // Post-run rollup: one "health_summary" record plus a console line, so
    // a run's verdict is readable without replaying every probe record.
    if (runlog_.enabled()) {
      obs::Json rec = obs::Json::object();
      rec.set("probes", health_.probes());
      rec.set("worst_cond", health_.worst_cond());
      rec.set("total_nonfinite", health_.total_nonfinite());
      rec.set("alerts_fired", result.alerts_fired);
      rec.set("critical_alerts", result.critical_alerts);
      obs::Json rules = obs::Json::object();
      for (const char* rule : obs::kAlertCatalogue) {
        index_t n = 0;
        for (const auto& a : alerts_.fired())
          if (a.rule == rule) ++n;
        if (n > 0) rules.set(rule, n);
      }
      rec.set("by_rule", std::move(rules));
      runlog_.record("health_summary", std::move(rec));
    }
    runlog_.console(alerts_.summary());
  }
  if (runlog_.enabled()) {
    // Fold the thread-pool's cumulative fan-out stats and the write-set
    // auditor's counters into the registry so the run log's final metrics
    // snapshot carries them.
    par::export_metrics(comm_.profiler().registry());
    audit::export_metrics(comm_.profiler().registry());
    obs::Json rec = obs::Json::object();
    rec.set("epochs_run", static_cast<std::int64_t>(result.epochs.size()));
    rec.set("iterations", result.iterations);
    rec.set("best_metric", result.best_metric());
    rec.set("total_seconds", result.total_seconds);
    rec.set("compute_seconds", result.compute_seconds);
    rec.set("comm_seconds", result.comm_seconds);
    rec.set("measured_seconds", measured_seconds());
    rec.set("total_wire_bytes", comm_.total_wire_bytes());
    rec.set("total_messages", comm_.total_messages());
    if (comm_.faults_active()) {
      const auto& reg = comm_.profiler().registry();
      rec.set("faults_injected", reg.counter_value("comm/faults/injected"));
      rec.set("total_retry_bytes", comm_.total_retry_bytes());
      rec.set("stale_refreshes", optim_counter_sum(reg, "/stale_refreshes"));
      rec.set("fault_plan_draws", comm_.fault_plan()->drawn());
      rec.set("world_shrinks",
              reg.counter_value("dist/elastic/world_shrinks"));
      rec.set("final_world", world_);
    }
    if (result.time_to_target) rec.set("time_to_target", *result.time_to_target);
    if (result.epochs_to_target)
      rec.set("epochs_to_target", *result.epochs_to_target);
    runlog_.record("result", std::move(rec));
    runlog_.finish();
  }
  return result;
}

TrainResult Trainer::resume(const std::string& path) {
  HYLO_CHECK(!ran_, "Trainer::resume needs a fresh Trainer: this one ran");
  restore_snapshot(path);
  pin_if_good(path);
  return run();
}

std::vector<Trainer::Section> Trainer::sections() {
  return {
      // meta: enough to refuse a resume under a structurally different
      // setup — a lockstep snapshot replayed async, or the reverse, would
      // silently diverge from the interrupted schedule. The epoch count is
      // informational: a resume may move the horizon.
      {"meta", true, false,
       [this](ckpt::Archive ar) {
         ar.expect(opt_->name(), "optimizer");
         ar.expect(std::string(to_string(comm_.mode())), "comm_mode");
         ar.expect(cfg_.world, "world");
         ar.expect(cfg_.batch_size, "batch_size");
         index_t epochs = cfg_.epochs;
         ar(epochs, "epochs");
         ar.expect(cfg_.data_seed, "data_seed");
         ar.expect(segmentation_, "segmentation");
       }},
      {"network", true, true,
       [this](ckpt::Archive ar) { net_->serialize_state(ar); }},
      // After the network: the optimizer's list walks the restored graph.
      {"optimizer", true, true,
       [this](ckpt::Archive ar) { opt_->serialize_state(*net_, ar); }},
      // progress: the loop position plus the epoch-in-progress accumulators
      // a resume needs to finish the interrupted epoch, and the run-log
      // cursor.
      {"progress", true, true,
       [this](ckpt::Archive ar) {
         if (!ar.loading()) cursor_.log_records = runlog_.records_written();
         ar(global_iter_, "global_iter");
         ar(cursor_.epoch, "epoch");
         ar(cursor_.iter, "iter");
         ar(cursor_.loss_sum, "loss_sum");
         ar(cursor_.metric_sum, "metric_sum");
         ar(cursor_.rank_batches, "rank_batches");
         ar(cursor_.log_records, "log_records");
         if (!ar.loading()) return;
         cursor_.epoch_begun = true;  // snapshots land after begin_epoch
         // iter 0 is legal: recovery pins an initial snapshot before the
         // first training iteration so a rollback target always exists.
         ar.require(global_iter_ >= 0 && cursor_.iter >= 0 &&
                        cursor_.epoch >= 0,
                    "global_iter", "cursor is corrupt (global_iter ",
                    global_iter_, ", epoch ", cursor_.epoch, ", iter ",
                    cursor_.iter, ")");
         ar.require(cursor_.epoch < cfg_.epochs, "epoch",
                    "snapshot is at epoch ", cursor_.epoch,
                    " but the run ends at epoch ", cfg_.epochs,
                    " — nothing to resume");
       }},
      // clock: every profiler timing section (measured comp/* as-of-snapshot,
      // modeled model/* and comm/* exactly), all counters and gauges, and
      // the trainer's per-epoch delta baselines. Histograms are summaries
      // only and are not restored (DESIGN.md §11). The registry is copied
      // out to save and applied through its setters on load.
      {"clock", true, false,
       [this](ckpt::Archive ar) {
         auto& reg = comm_.profiler().registry();
         std::map<std::string, std::pair<double, std::int64_t>> timings;
         std::map<std::string, std::int64_t> counters;
         std::map<std::string, double> gauges;
         if (!ar.loading()) {
           for (const auto& [name, e] : reg.timings())
             timings[name] = {e.seconds, e.calls};
           for (const auto& [name, c] : reg.counters())
             counters[name] = c.value();
           for (const auto& [name, g] : reg.gauges()) gauges[name] = g.value();
         }
         ar(timings, "timings");
         ar(counters, "counters");
         ar(gauges, "gauges");
         ar(last_comm_seconds_, "last_comm_seconds");
         ar(last_comm_counters_, "last_comm_counters");
         ar(last_fault_counters_, "last_fault_counters");
         if (!ar.loading()) return;
         for (const auto& [name, t] : timings)
           reg.set_timing(name, t.first, t.second);
         for (const auto& [name, value] : counters) {
           auto& c = reg.counter(name);
           ar.require(value >= c.value(), "counters", "counter ", name,
                      " is behind this trainer's — resume into a fresh "
                      "Trainer");
           c.inc(value - c.value());
         }
         for (const auto& [name, value] : gauges) reg.gauge(name).set(value);
         // A baseline is a past counter value; the epoch deltas subtract it.
         for (const auto& [name, value] : last_comm_counters_)
           ar.require(value >= 0, "last_comm_counters", name, " is negative");
         for (const auto& [name, value] : last_fault_counters_)
           ar.require(value >= 0, "last_fault_counters", name, " is negative");
       }},
      // timeline: the simulated clock — rank clocks, wire cursor, event
      // sequence — so the wall and a mid-overlap completion order resume
      // bitwise. A rollback keeps it running, like the comm ledger.
      {"timeline", true, false,
       [this](ckpt::Archive ar) { comm_.timeline()->serialize(ar); }},
      // faults: the plan's draw cursor and the elastic world.
      {"faults", comm_.faults_active(), false,
       [this](ckpt::Archive ar) {
         comm_.serialize_faults(ar);
         if (ar.loading()) world_ = comm_.world();
       }},
  };
}

std::string Trainer::write_snapshot() {
  WallTimer timer;
  ckpt::SnapshotWriter snap;
  for (const Section& s : sections())
    if (s.present) s.fields(snap.section(s.name));

  namespace fs = std::filesystem;
  fs::create_directories(ckpt_.dir);
  char name[40];
  std::snprintf(name, sizeof(name), "snapshot-%08lld.hysnp",
                static_cast<long long>(global_iter_));
  const std::string path = (fs::path(ckpt_.dir) / name).string();
  snap.write(path);
  // The verified-good rollback target is pinned through rotation: losing
  // it to retain_last would leave a triggered recovery with nothing to
  // restore (it unpins naturally once a newer snapshot is verified good).
  ckpt::retain_last(ckpt_.dir, ckpt_.keep, last_good_path_);
  // Measured, under its own section: it never reaches the simulated clock.
  comm_.profiler().add("ckpt/write", timer.seconds());
  comm_.profiler().registry().counter("ckpt/snapshots").inc();
  if (runlog_.enabled()) {
    obs::Json rec = obs::Json::object();
    rec.set("path", path);
    rec.set("epoch", cursor_.epoch);
    rec.set("iter", cursor_.iter);
    rec.set("global_iter", global_iter_);
    runlog_.record("snapshot", std::move(rec));
  }
  return path;
}

void Trainer::load_sections(const ckpt::SnapshotReader& snap, bool rollback) {
  for (const Section& s : sections()) {
    if (rollback && !s.rollback) continue;
    // A section is present exactly when this run writes it: replaying a
    // faulted run fault-free (or the reverse) would silently diverge from
    // the interrupted schedule.
    HYLO_CHECK(snap.has(s.name) == s.present,
               "snapshot " << snap.path() << " has "
                           << (s.present ? "no" : "a") << " '" << s.name
                           << "' section but this run writes "
                           << (s.present ? "one" : "none")
                           << " (a run writes 'faults' only with an active "
                              "fault plan)");
    if (!s.present) continue;
    ckpt::ByteReader r = snap.open(s.name);
    s.fields(r);
    r.expect_done();
  }
}

void Trainer::restore_snapshot(const std::string& path) {
  WallTimer timer;
  const ckpt::SnapshotReader snap(path);
  load_sections(snap, /*rollback=*/false);
  comm_.profiler().add("ckpt/restore", timer.seconds());
  if (runlog_.enabled()) {
    runlog_.set_next_seq(cursor_.log_records);
    obs::Json rec = obs::Json::object();
    rec.set("path", snap.path());
    rec.set("epoch", cursor_.epoch);
    rec.set("iter", cursor_.iter);
    rec.set("global_iter", global_iter_);
    rec.set("world", world_);
    runlog_.record("resume", std::move(rec));
  }
}

void Trainer::pin_if_good(const std::string& path) {
  if (!recovery_.enabled() || nonfinite(/*grads=*/false) > 0) return;
  last_good_path_ = path;
  recovery_.note_progress();
}

index_t Trainer::nonfinite(bool grads) {
  index_t n = 0;
  for (auto* pb : blocks_) n += obs::count_nonfinite(grads ? pb->gw : pb->w);
  for (auto pp : net_->plain_params())
    n += obs::count_nonfinite(grads ? *pp.grad : *pp.value);
  return n;
}

void Trainer::reset_loaders() {
  loaders_.clear();
  loaders_.reserve(static_cast<std::size_t>(world_));
  // The epoch permutation is a pure function of seed + epoch, so
  // start_epoch + skip lands exactly on the cursor, at any world size.
  for (index_t r = 0; r < world_; ++r) {
    DataLoader& loader = loaders_.emplace_back(data_->train, cfg_.batch_size,
                                               cfg_.data_seed, r, world_);
    loader.start_epoch(cursor_.epoch);
    loader.skip(cursor_.iter);
  }
}

void Trainer::apply_world_shrink() {
  const index_t old_world = world_;
  const std::vector<index_t> dead = comm_.commit_shrinks();
  if (dead.empty()) return;
  world_ = comm_.world();
  HYLO_CHECK(world_ >= 1 &&
                 world_ + static_cast<index_t>(dead.size()) == old_world,
             "elastic shrink bookkeeping diverged");

  // Layer ownership moves with the round-robin assignment; count the layers
  // whose owner changed — the state a real elastic runtime would migrate.
  const auto layer_count = static_cast<index_t>(blocks_.size());
  index_t migrations = 0;
  if (layer_count > 0) {
    const LayerAssignment before(layer_count, old_world);
    const LayerAssignment after(layer_count, world_);
    for (index_t l = 0; l < layer_count; ++l)
      if (before.owner(l) != after.owner(l)) ++migrations;
  }
  comm_.profiler().registry().counter("dist/elastic/layer_migrations")
      .inc(migrations);

  // Re-shard the epoch among the survivors, from the boundary on.
  reset_loaders();

  if (runlog_.enabled()) {
    obs::Json lost = obs::Json::array();
    for (const auto r : dead) lost.push(r);
    obs::Json rec = obs::Json::object();
    rec.set("epoch", cursor_.epoch);
    rec.set("iter", cursor_.iter);
    rec.set("global_iter", global_iter_);
    rec.set("lost_ranks", std::move(lost));
    rec.set("world", world_);
    rec.set("layer_migrations", migrations);
    runlog_.record("world_shrink", std::move(rec));
  }
  runlog_.console("[elastic] world " + std::to_string(old_world) + " -> " +
                  std::to_string(world_) + " (" + std::to_string(dead.size()) +
                  " rank(s) lost, " + std::to_string(migrations) +
                  " layer migrations)");
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          const OptimConfig& cfg) {
  if (name == "SGD") return std::make_unique<Sgd>(cfg);
  if (name == "ADAM") return std::make_unique<Adam>(cfg);
  if (name == "KFAC" || name == "KAISA") return std::make_unique<KFac>(cfg);
  if (name == "EKFAC") return std::make_unique<EKFac>(cfg);
  if (name == "KBFGS-L" || name == "KBFGS") return std::make_unique<KBfgs>(cfg);
  if (name == "SNGD") return std::make_unique<Sngd>(cfg);
  if (name == "HyLo") return std::make_unique<HyloOptimizer>(cfg);
  HYLO_CHECK(false, "unknown optimizer " << name);
  return nullptr;
}

}  // namespace hylo
