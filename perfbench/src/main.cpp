// perfbench — the repository benchmark. Runs one named workload through the
// public library API and prints its metrics as one JSON line (the last line
// of stdout):
//
//   perfbench --workload hylo-resnet32-p8 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics on untraced Trainer::run() calls:
// the workload runs once, and again while another whole run still fits in
// --seconds (each repeat must reproduce the first bit for bit). Each
// workload's epoch count is sized so one run takes about 30 s. --trace 1 runs
// the workload once untraced and once as a traced replay (replay.hpp),
// requires the two to agree bit for bit, and reports the per-layer metrics.
// perfbench/run.py builds this binary and is the command BENCHMARK.json names.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "hylo/tensor/kernel_dispatch.hpp"
#include "replay.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace hylo;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;  ///< the baseline seed; any other is held out
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;   ///< Chrome trace of the traced run (optional)
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    HYLO_CHECK(i + 1 < argc, "missing value for " << key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      HYLO_CHECK(val == "0" || val == "1", "--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      HYLO_CHECK(false, "unknown argument " << key);
    }
  }
  HYLO_CHECK(!a.workload.empty(), "--workload is required");
  return a;
}

/// Fixes everything outside TrainConfig that changes what runs: the kernel
/// tier, the thread-pool size, and no checked (audit) mode. Returns the
/// recorded environment as a JSON object.
std::string pin_environment(const Args& args, const Seeds& seeds) {
  HYLO_CHECK(std::string(PERFBENCH_BUILD_TYPE) == "Release",
             "perfbench must be built as Release, not '" PERFBENCH_BUILD_TYPE
             "'");
  HYLO_CHECK(!audit::enabled(),
             "HYLO_AUDIT (checked mode) is on; unset it to benchmark");
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  // One pool thread: on a shared 4-vCPU machine, 2 and 4 threads were barely
  // faster and swung HyLo epoch times by up to 150% under CPU steal; with one
  // thread steal stayed small and the swing under 45%.
  par::set_num_threads(1);
  kern::set_tier(kern::best());

  std::string ignored;
  for (const char* var :
       {"HYLO_COMM", "HYLO_FAULTS", "HYLO_CKPT_DIR", "HYLO_CKPT_EVERY",
        "HYLO_CKPT_KEEP", "HYLO_HEALTH", "HYLO_RECOVER", "HYLO_KERNEL",
        "HYLO_NUM_THREADS", "HYLO_BENCH_SCALE"})
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0')
      ignored += std::string(ignored.empty() ? "" : ",") + "\"" + var + "\"";
  std::ostringstream env;
  env << "{\"workload\":\"" << args.workload << "\",\"seed\":" << seeds.workload
      << ",\"dataset_seed\":" << find_workload(args.workload).dataset_seed
      << ",\"model_seed\":" << seeds.model
      << ",\"shuffle_seed\":" << seeds.shuffle
      << ",\"optimizer_seed\":" << seeds.optimizer << ",\"kernel_tier\":\""
      << kern::tier_name(kern::active()) << "\",\"threads\":"
      << par::num_threads() << ",\"nproc\":" << nproc << ",\"build_type\":\""
      << PERFBENCH_BUILD_TYPE << "\",\"pinned_env_ignored\":[" << ignored
      << "]}";
  return env.str();
}

/// Operations attempted and failed: iterations plus curvature refreshes;
/// failures are non-finite iterations and stale or guard-rejected refreshes.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One untraced Trainer::run() and what it produced.
struct Untraced {
  double setup_seconds = 0.0;
  double run_seconds = 0.0;
  /// Per epoch, from the previous EpochHook exit (or the run's start) to the
  /// next hook entry: the epoch's iterations plus its test-split evaluation.
  std::vector<double> epoch_seconds;
  /// One timed Trainer::evaluate() per epoch, made inside the EpochHook (and
  /// so outside epoch_seconds); spreading these samples over the whole run
  /// keeps a burst of machine noise from owning the eval figure.
  std::vector<double> eval_seconds;
  bool eval_agrees = true;  ///< every extra evaluate() matched the epoch's
  index_t test_samples = 0;
  TrainResult result;
  std::vector<unsigned char> weights;
};

Untraced run_untraced(const WorkloadSpec& spec, const Seeds& seeds,
                      Tally& tally) {
  Untraced u;
  WallTimer setup_timer;
  Setup s(spec, seeds);
  u.setup_seconds = setup_timer.seconds();
  u.test_samples = s.data.test.size();

  WallTimer run_timer;
  double resumed = 0.0;
  s.trainer->set_epoch_hook([&](const EpochStats& stats, Network&) {
    u.epoch_seconds.push_back(run_timer.seconds() - resumed);
    WallTimer eval_timer;
    const auto [loss, metric] = s.trainer->evaluate();
    u.eval_seconds.push_back(eval_timer.seconds());
    u.eval_agrees = u.eval_agrees && same_bits(loss, stats.test_loss) &&
                    same_bits(metric, stats.test_metric);
    resumed = run_timer.seconds();
  });
  run_timer.restart();
  u.result = s.trainer->run();
  u.run_seconds = run_timer.seconds();
  u.weights = state_bytes(s.net);
  std::cerr << "perfbench: " << spec.name << " set-up " << u.setup_seconds
            << " s, epochs";
  for (double e : u.epoch_seconds) std::cerr << " " << e;
  std::cerr << " s, train loss";
  for (const auto& e : u.result.epochs) std::cerr << " " << e.train_loss;
  std::cerr << "\n";

  const auto& reg = s.trainer->profiler().registry();
  index_t refreshes = 0;
  for (index_t i = 0; i < u.result.iterations; ++i)
    if (s.opt->needs_capture(i)) ++refreshes;
  tally.attempted += u.result.iterations + refreshes;
  for (const auto& e : u.result.epochs)
    if (!std::isfinite(e.train_loss)) tally.failed += spec.iters_per_epoch;
  tally.failed += optim_counter(reg, "/stale_refreshes") +
                  optim_counter(reg, "/guard_rejects");
  return u;
}

/// Bitwise comparison of two runs' deterministic outputs; names the first
/// difference in `why`.
bool same_outputs(const std::vector<EpochStats>& a,
                  const std::vector<EpochStats>& b,
                  const std::vector<unsigned char>& wa,
                  const std::vector<unsigned char>& wb, double comm_a,
                  double comm_b, std::string& why) {
  if (a.size() != b.size()) {
    why = "epoch counts differ";
    return false;
  }
  for (std::size_t e = 0; e < a.size(); ++e) {
    if (!same_bits(a[e].train_loss, b[e].train_loss) ||
        !same_bits(a[e].train_metric, b[e].train_metric) ||
        !same_bits(a[e].test_loss, b[e].test_loss) ||
        !same_bits(a[e].test_metric, b[e].test_metric)) {
      why = "epoch " + std::to_string(e) + " losses/metrics differ";
      return false;
    }
  }
  if (wa != wb) {
    why = "final network state differs";
    return false;
  }
  if (!same_bits(comm_a, comm_b)) {
    why = "modeled comm seconds differ";
    return false;
  }
  return true;
}

/// Final loss finite and below the first epoch's, the extra evaluate()
/// calls agree with the epochs' own, and a single worker models no
/// communication at all.
bool outputs_sane(const WorkloadSpec& spec, const Untraced& u,
                  std::string& why) {
  const real_t first = u.result.epochs.front().train_loss;
  const real_t last = u.result.epochs.back().train_loss;
  if (!std::isfinite(last) || !(last < first)) {
    why = "final train loss " + std::to_string(last) +
          " is not finite and below the first epoch's " + std::to_string(first);
    return false;
  }
  if (!u.eval_agrees) {
    why = "evaluate() disagrees with the epoch's own test metrics";
    return false;
  }
  if (spec.world == 1 && u.result.comm_seconds != 0.0) {
    why = "single-worker run charged modeled communication";
    return false;
  }
  return true;
}

/// Mean of the per-epoch training losses. The whole loss curve guards numerics
/// with far less spread across seeds than the final loss of a converging run
/// (on 8 seeds, quartile spread 13% against 95% on hylo-resnet32-p8).
double mean_train_loss(const TrainResult& r) {
  std::vector<double> losses;
  for (const auto& e : r.epochs) losses.push_back(e.train_loss);
  return mean(losses);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::int64_t>(1, tally.attempted)
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// --trace 0: end-to-end metrics from untraced runs. The workload runs once,
/// and again while another whole run fits in `seconds`; every repeat must
/// reproduce the first bit for bit.
bool measure_end_to_end(const WorkloadSpec& spec, const Seeds& seeds,
                        double seconds, Tally& tally,
                        std::vector<Metric>& metrics, std::string& why) {
  WallTimer clock;
  std::vector<double> epoch_seconds, eval_seconds, setup_seconds;
  const Untraced first = run_untraced(spec, seeds, tally);
  if (!outputs_sane(spec, first, why)) return false;
  auto collect = [&](const Untraced& run) {
    epoch_seconds.insert(epoch_seconds.end(), run.epoch_seconds.begin(),
                         run.epoch_seconds.end());
    eval_seconds.insert(eval_seconds.end(), run.eval_seconds.begin(),
                        run.eval_seconds.end());
    setup_seconds.push_back(run.setup_seconds);
  };
  collect(first);
  for (double last = first.run_seconds; clock.seconds() + last <= seconds;) {
    const Untraced repeat = run_untraced(spec, seeds, tally);
    if (!outputs_sane(spec, repeat, why) ||
        !same_outputs(first.result.epochs, repeat.result.epochs, first.weights,
                      repeat.weights, first.result.comm_seconds,
                      repeat.result.comm_seconds, why)) {
      why = "repeated run is not deterministic: " + why;
      return false;
    }
    collect(repeat);
    last = repeat.run_seconds;
  }

  // Set-up is cheap next to training: take enough samples for a median.
  while (setup_seconds.size() < 9) {
    WallTimer t;
    const Setup s(spec, seeds);
    setup_seconds.push_back(t.seconds());
  }

  metrics = {
      {"train_samples_per_s",
       static_cast<double>(spec.samples_per_epoch()) / median(epoch_seconds),
       "samples/s"},
      {"eval_samples_per_s",
       static_cast<double>(first.test_samples) / median(eval_seconds),
       "samples/s"},
      {"setup_s", median(setup_seconds), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"mean_train_loss", mean_train_loss(first.result), "nats"},
  };
  return true;
}

/// --trace 1: per-layer metrics from a traced replay gated on fidelity.
bool measure_layers(const WorkloadSpec& spec, const Seeds& seeds,
                    const std::string& trace_out, Tally& tally,
                    std::vector<Metric>& metrics, std::string& why) {
  const Untraced u = run_untraced(spec, seeds, tally);
  if (!outputs_sane(spec, u, why)) return false;
  const double untraced_samples_per_s =
      static_cast<double>(spec.samples_per_epoch()) / median(u.epoch_seconds);

  const Replay r = run_traced(spec, seeds);
  tally.attempted += r.iterations + r.refreshes;
  tally.failed += r.nonfinite_iterations + r.stale_refreshes + r.guard_rejects;
  if (!same_outputs(u.result.epochs, r.epochs, u.weights, r.weights,
                    u.result.comm_seconds, r.modeled_comm_seconds, why)) {
    why = "fidelity gate: the traced replay diverged from Trainer::run(): " +
          why;
    return false;
  }
  if (!trace_out.empty()) write_chrome_trace(r, trace_out);
  metrics = layer_metrics(r, spec, untraced_samples_per_s);
  metrics.push_back({"core.mean_train_loss", mean_train_loss(u.result), "nats"});
  metrics.push_back(
      {"core.final_train_loss", u.result.epochs.back().train_loss, "nats"});
  metrics.push_back(
      {"core.final_test_metric", u.result.epochs.back().test_metric, "accuracy"});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string env;
  const WorkloadSpec* spec = nullptr;
  Seeds seeds;
  try {
    args = parse_args(argc, argv);
    spec = &find_workload(args.workload);
    seeds = Seeds::derive(args.seed);
    env = pin_environment(args, seeds);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::cout << "env " << env << std::endl;

  Tally tally;
  std::vector<Metric> metrics;
  std::string why;
  bool correct = false;
  try {
    correct = args.trace ? measure_layers(*spec, seeds, args.trace_out, tally,
                                          metrics, why)
                         : measure_end_to_end(*spec, seeds, args.seconds, tally,
                                              metrics, why);
  } catch (const Error& e) {
    // A thrown hylo::Error aborts the run: count it as a failed operation.
    tally.failed += 1;
    tally.attempted += 1;
    why = std::string("hylo::Error: ") + e.what();
  }
  if (!correct) {
    std::cerr << "perfbench: CHECK FAILED on " << spec->name << " seed "
              << args.seed << ": " << why << "\n";
    metrics.clear();
  }
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}
