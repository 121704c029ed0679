#pragma once
// Shared setup for the figure/table reproduction benches: the proxy-model
// catalogue (DESIGN.md §2 maps each paper model to its CPU-scaled proxy),
// per-method hyperparameters, and small statistics helpers.
//
// Every bench binary runs standalone with defaults sized for a single CPU
// core; set HYLO_BENCH_SCALE=large in the environment to run closer to the
// paper's geometry (slower).

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "hylo/common/env.hpp"
#include "hylo/hylo.hpp"

namespace hylo::bench {

inline bool large_scale() {
  return env::read("HYLO_BENCH_SCALE", [](const std::string& scale) {
           HYLO_CHECK(scale == "large", "'" << scale
                                            << "' is not a bench scale (large, "
                                               "or unset for the default)");
           return true;
         }).value_or(false);
}

/// Opt-in telemetry for every bench driver: when HYLO_TELEMETRY_DIR is set,
/// the Trainer writes <dir>/<tag>/run.jsonl and <dir>/<tag>/trace.json for
/// each training run the bench performs (per-step records off — bench runs
/// are short but many). No-op otherwise.
inline void apply_env_telemetry(TrainConfig& tc, const std::string& tag) {
  const std::optional<std::string> dir = env::get("HYLO_TELEMETRY_DIR");
  if (!dir.has_value()) return;
  tc.telemetry.dir = *dir + "/" + tag;
  tc.telemetry.per_step = false;
}

/// One experiment setup: proxy model + matching synthetic dataset.
struct Workload {
  std::string paper_name;   // what the paper calls it
  std::string proxy_desc;   // what we actually build
  DataSplit data;
  index_t classes = 0;      // 0 for segmentation
  real_t target_metric = 0.0;
  std::uint64_t model_seed = 42;

  Network make_model() const;
};

/// The paper's five workloads as CPU proxies. `name` ∈ {"resnet50",
/// "resnet32", "unet", "densenet", "c3f1"}.
Workload make_workload(const std::string& name);

/// The compute model every figure bench charges modeled FLOPs through, so a
/// figure's time columns are the same numbers on any machine
/// (EXPERIMENTS.md states the rate and how it was calibrated).
ComputeModel bench_compute();

/// Per-method hyperparameters tuned for the proxy workloads (the paper
/// likewise tunes lr/damping per method, Sec. V-A).
OptimConfig method_config(const std::string& optimizer);

/// p-th percentile (0..100) of a vector (copied, nearest-rank).
inline real_t percentile(std::vector<real_t> v, real_t p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<real_t>(static_cast<real_t>(v.size()) - 1,
                       p / 100.0 * static_cast<real_t>(v.size())));
  return v[idx];
}

/// Least-squares slope of log(y) vs log(x) — empirical complexity exponent.
inline real_t loglog_slope(const std::vector<real_t>& x,
                           const std::vector<real_t>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  real_t sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const real_t lx = std::log(x[i]);
    const real_t ly = std::log(std::max(y[i], real_t{1e-12}));
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const real_t denom = static_cast<real_t>(n) * sxx - sx * sx;
  return denom == 0.0 ? 0.0 : (static_cast<real_t>(n) * sxy - sx * sy) / denom;
}

/// The rank HyLo used at its last refresh, r_local·P (the `optim/hylo/rank`
/// gauge); 0 before any refresh.
inline index_t hylo_rank(const Trainer& trainer) {
  const auto& gauges = trainer.profiler().registry().gauges();
  const auto it = gauges.find("optim/hylo/rank");
  return it == gauges.end() ? 0 : static_cast<index_t>(it->second.value());
}

/// A rank sweep measures nothing between two ratios that round to the same
/// r, so it stops with the ratios' ranks instead of writing such a table.
inline void check_distinct_ranks(const std::vector<real_t>& ratios,
                                 const std::vector<index_t>& ranks,
                                 const std::string& sweep) {
  for (std::size_t i = 0; i < ranks.size(); ++i)
    for (std::size_t j = i + 1; j < ranks.size(); ++j)
      HYLO_CHECK(ranks[i] != ranks[j],
                 "rank ratios " << ratios[i] << " and " << ratios[j]
                                << " both give r = " << ranks[i] << " in "
                                << sweep
                                << "; use a local batch where they differ");
}

/// Random per-layer capture for kernel-level benches (no training needed):
/// world ranks of m samples each with the given layer dims and latent rank.
CaptureSet synth_capture(Rng& rng, index_t layers, index_t world, index_t m,
                         index_t d_in, index_t d_out, index_t latent_rank,
                         real_t noise = 0.05);

}  // namespace hylo::bench
