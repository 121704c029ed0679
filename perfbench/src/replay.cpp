#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>

namespace perfbench {

using namespace hylo;

namespace {

/// In-memory span recorder; spans are written out only after the run.
class Tracer {
 public:
  Tracer() : origin_(clock::now()) { spans_.reserve(1 << 14); }

  int open(const char* name, int parent, index_t iter) {
    spans_.push_back({name, now(), 0.0, parent, iter});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  void span(const char* name, int parent, index_t iter,
            const std::function<void()>& call) {
    const int id = open(name, parent, iter);
    call();
    close(id);
  }

  std::vector<Span> take() { return std::move(spans_); }

 private:
  using clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }
  clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Durations (ms) of the spans named `name` that satisfy `keep`.
std::vector<double> durations(const std::vector<Span>& spans, const char* name,
                              const std::function<bool(const Span&)>& keep) {
  std::vector<double> out;
  for (const auto& s : spans)
    if (std::strcmp(s.name, name) == 0 && keep(s)) out.push_back(s.ms());
  return out;
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace

Replay run_traced(const WorkloadSpec& spec, const Seeds& seeds) {
  Setup s(spec, seeds);
  Network& net = s.net;
  Optimizer& opt = *s.opt;
  const TrainConfig& cfg = s.config;
  auto* hy = dynamic_cast<HyloOptimizer*>(&opt);

  // The replay's own communicator and loaders, configured as Trainer's.
  CommSim comm(cfg.world, cfg.interconnect);
  comm.set_wire_scalar_bytes(cfg.wire_scalar_bytes);
  comm.set_mode(*cfg.comm_mode);
  std::vector<DataLoader> loaders;
  for (index_t r = 0; r < cfg.world; ++r)
    loaders.emplace_back(s.data.train, cfg.batch_size, cfg.data_seed, r,
                         cfg.world);
  const SoftmaxCrossEntropy ce;

  par::ThreadPool::instance().reset_stats();
  Replay out;
  Tracer tr;
  Batch batch;
  index_t global_iter = 0;
  for (index_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const int ep = tr.open("core.epoch", -1, -1);
    tr.span("optim.begin_epoch", ep, -1,
            [&] { opt.begin_epoch(epoch, /*lr_decayed=*/false); });
    for (auto& loader : loaders) loader.start_epoch(epoch);
    const index_t iters =
        std::min(loaders.front().batches_per_epoch(), cfg.max_iters_per_epoch);
    const auto blocks = net.param_blocks();
    const index_t layer_count = static_cast<index_t>(blocks.size());
    index_t grad_scalars = 0;
    for (auto* pb : blocks) grad_scalars += pb->gw.size();
    for (auto pp : net.plain_params())
      grad_scalars += static_cast<index_t>(pp.grad->size());

    real_t loss_acc = 0.0, metric_acc = 0.0;
    for (index_t it = 0; it < iters; ++it) {
      const index_t gi = global_iter;
      const bool capture = opt.needs_capture(gi);
      const int step = tr.open("core.iteration", ep, gi);
      const PassContext ctx{.training = true, .capture = capture};
      net.zero_grad();
      CaptureSet cap;
      if (capture) {
        cap.a.resize(static_cast<std::size_t>(layer_count));
        cap.g.resize(static_cast<std::size_t>(layer_count));
      }
      real_t iter_loss = 0.0, iter_metric = 0.0;
      for (index_t rank = 0; rank < cfg.world; ++rank) {
        bool got = false;
        tr.span("data.next", step, gi, [&] {
          got = loaders[static_cast<std::size_t>(rank)].next(batch);
        });
        HYLO_CHECK(got, "loader exhausted mid-epoch");
        const Tensor4* logits = nullptr;
        tr.span("nn.forward", step, gi,
                [&] { logits = &net.forward(batch.images, ctx); });
        LossResult lr;
        tr.span("nn.loss", step, gi,
                [&] { lr = ce.compute(*logits, batch.labels); });
        iter_loss += lr.loss;
        iter_metric += lr.metric;
        tr.span("nn.backward", step, gi, [&] { net.backward(lr.grad, ctx); });
        if (capture) {
          for (index_t l = 0; l < layer_count; ++l) {
            const auto li = static_cast<std::size_t>(l);
            cap.a[li].push_back(std::move(blocks[li]->a_samples));
            cap.g[li].push_back(std::move(blocks[li]->g_samples));
          }
        }
      }
      loss_acc += iter_loss;
      metric_acc += iter_metric;
      if (!std::isfinite(iter_loss)) ++out.nonfinite_iterations;
      // The allreduce's arithmetic: each backward used its local-batch mean.
      if (cfg.world > 1) {
        const real_t inv_world = 1.0 / static_cast<real_t>(cfg.world);
        for (auto* pb : blocks) pb->gw *= inv_world;
        for (auto pp : net.plain_params())
          for (auto& g : *pp.grad) g *= inv_world;
      }
      tr.span("dist.charge_allreduce", step, gi, [&] {
        comm.charge_allreduce(comm.wire_bytes(grad_scalars),
                              "comm/grad_allreduce",
                              FailMode::kRetryUntilSuccess);
      });
      if (capture) {
        tr.span("optim.update_curvature", step, gi,
                [&] { opt.update_curvature(blocks, cap, &comm); });
        ++out.refreshes;
        if (hy != nullptr) {
          if (hy->mode() == HyloMode::kKid) ++out.kid_refreshes;
          out.rank_sum += static_cast<double>(hy->last_rank());
        }
      }
      tr.span("optim.accumulate_gradient", step, gi,
              [&] { opt.accumulate_gradient(blocks); });
      tr.span("optim.step", step, gi, [&] { opt.step(net, gi); });
      tr.close(step);
      out.captured.push_back(capture ? 1 : 0);
      ++global_iter;
    }
    out.iterations += iters;

    std::pair<real_t, real_t> test;
    tr.span("nn.evaluate", ep, -1, [&] { test = s.trainer->evaluate(); });
    tr.close(ep);
    EpochStats stats;
    stats.epoch = epoch;
    const real_t denom = static_cast<real_t>(iters * cfg.world);
    stats.train_loss = loss_acc / denom;
    stats.train_metric = metric_acc / denom;
    stats.test_loss = test.first;
    stats.test_metric = test.second;
    out.epochs.push_back(stats);
  }

  out.spans = tr.take();
  out.weights = state_bytes(net);
  const Profiler& prof = comm.profiler();
  const obs::MetricsRegistry& reg = prof.registry();
  out.modeled_comm_seconds = modeled_comm_seconds(prof);
  out.stale_refreshes = optim_counter(reg, "/stale_refreshes");
  out.guard_rejects = optim_counter(reg, "/guard_rejects");
  out.damping_escalations = optim_counter(reg, "/damping_escalations");
  out.factorize_seconds = prof.seconds("comp/factorization");
  out.invert_seconds = prof.seconds("comp/inversion");
  out.wire_bytes = comm.total_wire_bytes();
  out.messages = comm.total_messages();
  out.allreduce_bytes = comm.wire_bytes_charged("comm/grad_allreduce");
  out.gather_bytes = comm.wire_bytes_charged("comm/gather");
  out.broadcast_bytes = comm.wire_bytes_charged("comm/broadcast");
  out.optimizer_state_bytes = opt.state_bytes();
  out.test_samples = s.data.test.size();
  out.threads = par::num_threads();
  std::int64_t calls = 0, split = 0;
  for (const auto& [label, st] : par::ThreadPool::instance().stats()) {
    calls += st.calls;
    split += st.split;
  }
  out.fanout_ratio =
      calls > 0 ? static_cast<double>(split) / static_cast<double>(calls) : 0.0;
  return out;
}

void write_chrome_trace(const Replay& replay, const std::string& path) {
  std::ofstream f(path);
  HYLO_CHECK(f.good(), "cannot write trace " << path);
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < replay.spans.size(); ++i) {
    const Span& s = replay.spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"iter\":%lld}}",
                  i == 0 ? "" : ",\n", s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent,
                  static_cast<long long>(s.iter));
    f << buf;
  }
  f << "]}\n";
}

std::vector<Metric> layer_metrics(const Replay& r, const WorkloadSpec& spec,
                                  double untraced_samples_per_s) {
  const auto& spans = r.spans;
  // Iteration bookkeeping: capture flag per iteration span and the time its
  // child spans cover (for self time).
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
  auto is_capture = [&](const Span& s) {
    return s.iter >= 0 && r.captured[static_cast<std::size_t>(s.iter)] != 0;
  };
  const auto any = [](const Span&) { return true; };
  const auto plain = [&](const Span& s) { return !is_capture(s); };

  std::vector<double> step_ms, plain_ms, refresh_ms, glue_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::strcmp(s.name, "core.iteration") != 0) continue;
    step_ms.push_back(s.ms());
    (is_capture(s) ? refresh_ms : plain_ms).push_back(s.ms());
    glue_ms.push_back(s.ms() - child_ms[i]);
  }
  const double step_total = total(step_ms);

  // nn per rank-batch: non-capture iterations when the workload has any
  // (every iteration captures when the refresh period is 1).
  const bool has_plain = !plain_ms.empty();
  const auto nn_filter = has_plain ? std::function<bool(const Span&)>(plain)
                                   : std::function<bool(const Span&)>(any);
  const double fwd = median(durations(spans, "nn.forward", nn_filter));
  const double bwd = median(durations(spans, "nn.backward", nn_filter));
  double capture_extra = 0.0;
  if (has_plain && r.refreshes > 0)
    capture_extra = median(durations(spans, "nn.forward", is_capture)) +
                    median(durations(spans, "nn.backward", is_capture)) -
                    fwd - bwd;
  const double fwd_bwd_total = total(durations(spans, "nn.forward", any)) +
                               total(durations(spans, "nn.backward", any));

  const auto update = durations(spans, "optim.update_curvature", any);
  const double refresh_call = update.empty() ? 0.0 : mean(update);
  const double per_refresh =
      r.refreshes > 0 ? 1e3 / static_cast<double>(r.refreshes) : 0.0;
  const double factorize = r.factorize_seconds * per_refresh;
  const double invert = r.invert_seconds * per_refresh;

  const auto eval = durations(spans, "nn.evaluate", any);
  const auto epochs = durations(spans, "core.epoch", any);
  const double traced_samples_per_s =
      static_cast<double>(spec.samples_per_epoch()) / (median(epochs) * 1e-3);
  const double per_step = 1.0 / static_cast<double>(r.iterations);

  return {
      {"data.next_ms", median(durations(spans, "data.next", any)), "ms"},
      {"nn.forward_ms", fwd, "ms"},
      {"nn.backward_ms", bwd, "ms"},
      {"nn.capture_extra_ms", capture_extra, "ms"},
      {"nn.loss_ms", median(durations(spans, "nn.loss", any)), "ms"},
      {"nn.eval_ms_per_sample",
       median(eval) / static_cast<double>(r.test_samples), "ms"},
      {"nn.fwd_bwd_share", fwd_bwd_total / step_total, "ratio"},
      {"core.step_ms_p50", median(step_ms), "ms"},
      {"core.plain_step_ms_p50", median_or_zero(plain_ms), "ms"},
      {"core.refresh_step_ms_p50", median_or_zero(refresh_ms), "ms"},
      {"core.glue_ms", mean(glue_ms), "ms"},
      {"optim.refresh_ms", refresh_call, "ms"},
      {"optim.factorize_ms", factorize, "ms"},
      {"optim.invert_ms", invert, "ms"},
      {"optim.refresh_other_ms", refresh_call - factorize - invert, "ms"},
      {"optim.refresh_share", total(update) / step_total, "ratio"},
      {"optim.step_ms", median(durations(spans, "optim.step", any)), "ms"},
      {"optim.accumulate_ms",
       median(durations(spans, "optim.accumulate_gradient", any)), "ms"},
      {"optim.state_mb",
       static_cast<double>(r.optimizer_state_bytes) / (1024.0 * 1024.0), "MB"},
      {"optim.refreshes", static_cast<double>(r.refreshes), "count"},
      {"optim.stale_refreshes", static_cast<double>(r.stale_refreshes), "count"},
      {"optim.guard_rejects", static_cast<double>(r.guard_rejects), "count"},
      {"optim.damping_escalations", static_cast<double>(r.damping_escalations),
       "count"},
      {"optim.hylo_kid_share",
       r.refreshes > 0 ? static_cast<double>(r.kid_refreshes) /
                             static_cast<double>(r.refreshes)
                       : 0.0,
       "ratio"},
      {"optim.hylo_rank",
       r.refreshes > 0 ? r.rank_sum / static_cast<double>(r.refreshes) : 0.0,
       "count"},
      {"dist.charge_ms",
       median(durations(spans, "dist.charge_allreduce", any)), "ms"},
      {"dist.wire_bytes_per_step", static_cast<double>(r.wire_bytes) * per_step,
       "bytes"},
      {"dist.messages_per_step", static_cast<double>(r.messages) * per_step,
       "count"},
      {"dist.grad_allreduce_bytes_per_step",
       static_cast<double>(r.allreduce_bytes) * per_step, "bytes"},
      {"dist.gather_bytes_per_step",
       static_cast<double>(r.gather_bytes) * per_step, "bytes"},
      {"dist.broadcast_bytes_per_step",
       static_cast<double>(r.broadcast_bytes) * per_step, "bytes"},
      {"dist.modeled_comm_ms_per_step", r.modeled_comm_seconds * 1e3 * per_step,
       "ms"},
      {"par.threads", static_cast<double>(r.threads), "count"},
      {"par.fanout_ratio", r.fanout_ratio, "ratio"},
      {"bench.trace_overhead", traced_samples_per_s / untraced_samples_per_s,
       "ratio"},
  };
}

}  // namespace perfbench
