#pragma once
// The benchmark's workloads and the set-up every run shares: one synthetic
// dataset, one ResNet proxy, one optimizer and one Trainer per workload, with
// every environment-overridable TrainConfig field pinned explicitly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hylo/hylo.hpp"

namespace perfbench {

using hylo::index_t;
using hylo::real_t;

/// One named workload: which optimizer trains which proxy at which scale.
struct WorkloadSpec {
  std::string name;
  std::string optimizer;      ///< "HyLo", "KFAC" (KAISA when world > 1), "EKFAC"
  index_t resnet_width = 8;   ///< 8: ResNet-32 proxy, 12: ResNet-50 proxy
  real_t texture_noise = 1.3; ///< dataset difficulty of the matching proxy
  /// The synthetic dataset is part of the workload, like a fixed benchmark
  /// dataset: the workload seed varies initialisation, order and sampling.
  std::uint64_t dataset_seed = 0;
  index_t world = 1;          ///< simulated workers P
  index_t batch = 16;         ///< per-worker batch
  index_t update_freq = 10;   ///< curvature refresh period (iterations)
  index_t iters_per_epoch = 10;
  index_t epochs = 1;         ///< epochs per Trainer::run()

  index_t samples_per_epoch() const { return iters_per_epoch * world * batch; }
};

/// The workloads BENCHMARK.json names; throws hylo::Error on an unknown name.
const WorkloadSpec& find_workload(const std::string& name);

/// Seeds derived from the one workload seed given on the command line.
struct Seeds {
  std::uint64_t workload = 0;
  std::uint64_t model = 0;      ///< weight initialisation
  std::uint64_t shuffle = 0;    ///< TrainConfig::data_seed (loader order)
  std::uint64_t optimizer = 0;  ///< HyLo's sampling stream

  static Seeds derive(std::uint64_t workload_seed);
};

/// Everything a training run needs. Built in place and never moved: the
/// Trainer keeps pointers to the dataset, network and optimizer.
struct Setup {
  hylo::DataSplit data;
  hylo::Network net;
  std::unique_ptr<hylo::Optimizer> opt;
  hylo::TrainConfig config;
  std::unique_ptr<hylo::Trainer> trainer;

  Setup(const WorkloadSpec& spec, const Seeds& seeds);
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

/// Sum of the optimizer's `optim/<method>/<suffix>` counters in `reg`.
std::int64_t optim_counter(const hylo::obs::MetricsRegistry& reg,
                           const std::string& suffix);

/// Modeled seconds summed over every comm/* profiler section, in the same
/// order the Trainer sums them (so the totals compare bitwise).
double modeled_comm_seconds(const hylo::Profiler& prof);

/// Network state (weights, plain params, BatchNorm statistics) as bytes.
std::vector<unsigned char> state_bytes(hylo::Network& net);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

}  // namespace perfbench
