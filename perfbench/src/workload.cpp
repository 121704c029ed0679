#include "workload.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

using namespace hylo;

namespace {

// Hyperparameters follow the repository's figure benches (method_config in
// bench/bench_common.cpp), copied here so the benchmark's workloads change
// only when this file does.
const std::vector<WorkloadSpec>& catalogue() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "hylo-resnet32-p8", .optimizer = "HyLo", .resnet_width = 8,
       .texture_noise = 1.3, .dataset_seed = 102, .world = 8, .batch = 16,
       .update_freq = 10, .iters_per_epoch = 10, .epochs = 7},
      {.name = "kaisa-resnet50-p4", .optimizer = "KFAC", .resnet_width = 12,
       .texture_noise = 1.2, .dataset_seed = 101, .world = 4, .batch = 16,
       .update_freq = 1, .iters_per_epoch = 4, .epochs = 8},
      {.name = "ekfac-resnet32-p1", .optimizer = "EKFAC", .resnet_width = 8,
       .texture_noise = 1.3, .dataset_seed = 102, .world = 1, .batch = 64,
       .update_freq = 10, .iters_per_epoch = 10, .epochs = 5},
  };
  return specs;
}

OptimConfig optim_config(const WorkloadSpec& spec) {
  OptimConfig oc;
  oc.momentum = 0.9;
  oc.weight_decay = 5e-4;
  oc.update_freq = spec.update_freq;
  oc.stat_decay = 0.95;
  oc.kl_clip = 0.01;
  oc.rank_ratio = 0.1;
  if (spec.optimizer == "HyLo") {
    oc.lr = 0.1;
    oc.damping = 0.3;
  } else {
    oc.lr = 0.05;
    oc.damping = 0.03;
  }
  return oc;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const WorkloadSpec& find_workload(const std::string& name) {
  for (const auto& spec : catalogue())
    if (spec.name == name) return spec;
  std::string known;
  for (const auto& spec : catalogue()) known += " " + spec.name;
  HYLO_CHECK(false, "unknown workload '" << name << "'; known:" << known);
  return catalogue().front();
}

Seeds Seeds::derive(std::uint64_t workload_seed) {
  Seeds s;
  s.workload = workload_seed;
  s.model = splitmix64(workload_seed ^ 0x6D6F6465ULL);
  s.shuffle = splitmix64(workload_seed ^ 0x73687566ULL);
  s.optimizer = splitmix64(workload_seed ^ 0x6F707469ULL);
  return s;
}

Setup::Setup(const WorkloadSpec& spec, const Seeds& seeds)
    : data(make_texture_images(1536, 384, 10, 3, 16, 16, spec.texture_noise,
                               spec.dataset_seed)),
      net(make_resnet({3, 16, 16}, 10, 2, spec.resnet_width, seeds.model)) {
  const OptimConfig oc = optim_config(spec);
  if (spec.optimizer == "HyLo") {
    opt = std::make_unique<HyloOptimizer>(oc, seeds.optimizer);
  } else {
    opt = make_optimizer(spec.optimizer, oc);
  }

  config.epochs = spec.epochs;
  config.batch_size = spec.batch;
  config.world = spec.world;
  config.max_iters_per_epoch = spec.iters_per_epoch;
  config.data_seed = seeds.shuffle;
  config.interconnect = mist_v100();
  config.wire_scalar_bytes = 4.0;
  // Pin every field an environment variable could otherwise fill in
  // (HYLO_COMM, HYLO_FAULTS, HYLO_CKPT_*, HYLO_HEALTH, HYLO_RECOVER). A
  // non-empty checkpoint dir with every == 0 pins snapshots off; nothing is
  // written there.
  config.comm_mode = CommMode::kLockstep;
  config.faults = FaultConfig{};
  config.checkpoint.dir = "perfbench-checkpoints-off";
  config.checkpoint.every = 0;
  config.health = obs::HealthConfig{};
  config.recovery = RecoveryConfig{};
  trainer = std::make_unique<Trainer>(net, *opt, data, config);
}

std::int64_t optim_counter(const obs::MetricsRegistry& reg,
                           const std::string& suffix) {
  std::int64_t total = 0;
  for (const auto& [name, c] : reg.counters())
    if (name.rfind("optim/", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += c.value();
  return total;
}

double modeled_comm_seconds(const Profiler& prof) {
  double total = 0.0;
  for (const auto& [name, entry] : prof.sections())
    if (name.rfind("comm/", 0) == 0) total += entry.seconds;
  return total;
}

std::vector<unsigned char> state_bytes(Network& net) {
  ckpt::ByteWriter w;
  net.serialize_state(w);
  return w.bytes();
}

double median(std::vector<double> v) {
  HYLO_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  HYLO_CHECK(!v.empty(), "mean of no samples");
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace perfbench
