// Fig. 8 reproduction: projected end-to-end training speedup of HyLo over
// SGD as the worker count grows, for r = 10%, 20% and 40% of the global
// batch. Following the paper's protocol: take the modeled time-per-epoch
// of each method over a few epochs, project to the full training length
// (SGD needs more epochs than HyLo — 90 vs 50 for ResNet-50, 200 vs 100 for
// ResNet-32, 50 vs 30 for U-Net), and report the ratio. The curvature
// update frequency is scaled inversely with P (as the paper does) to keep
// updates-per-sample constant. The local batch is 16, where the three ratios
// give 1, 3 and 6 rows per rank at every P; the rank_r columns hold the
// global r each HyLo run used.
#include <iostream>

#include "bench_common.hpp"

using namespace hylo;
using namespace hylo::bench;

namespace {

struct EpochCost {
  double seconds;  ///< modeled time per epoch
  index_t rank;    ///< HyLo's r (0 for SGD)
};

EpochCost epoch_cost(const Workload& w, const std::string& method,
                     index_t world, real_t rank_ratio, index_t freq_base) {
  Network net = w.make_model();
  OptimConfig oc = method_config(method);
  oc.rank_ratio = rank_ratio;
  // Keep second-order updates per training sample constant across P.
  oc.update_freq = std::max<index_t>(1, freq_base / world);
  auto opt = make_optimizer(method, oc);
  const index_t batch = 16;
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = batch;
  tc.world = world;
  tc.interconnect = mist_v100();
  tc.compute = bench_compute();
  // Sample a few iterations and project to a full epoch over the dataset
  // (the paper likewise measures 3 epochs and projects the whole training).
  tc.max_iters_per_epoch =
      large_scale() ? -1 : std::max<index_t>(2, 48 / world);
  apply_env_telemetry(tc, "fig8/" + w.paper_name + "/" + method + "/P" +
                              std::to_string(world));
  Trainer trainer(net, *opt, w.data, tc);
  const TrainResult res = trainer.run();
  const double per_iter =
      res.total_seconds / static_cast<double>(res.iterations);
  const double iters_per_epoch = static_cast<double>(w.data.train.size()) /
                                 static_cast<double>(world * batch);
  return {per_iter * iters_per_epoch, hylo_rank(trainer)};
}

}  // namespace

int main() {
  struct Setup {
    std::string workload;
    double sgd_epochs, hylo_epochs;  // projection lengths from the paper
    std::vector<index_t> worlds;
  };
  const std::vector<Setup> setups = {
      {"resnet50", 90, 50, {8, 16, 32, 64}},
      {"resnet32", 200, 100, {4, 8, 16, 32}},
      {"unet", 50, 30, {4, 8, 16, 32}}};

  for (const auto& setup : setups) {
    const Workload w = make_workload(setup.workload);
    std::cout << "\nFig. 8 — projected end-to-end speedup of HyLo over SGD, "
              << w.paper_name << " (SGD " << setup.sgd_epochs
              << " epochs vs HyLo " << setup.hylo_epochs << ")\n\n";
    const std::vector<real_t> ratios = {0.1, 0.2, 0.4};
    CsvWriter table({"P", "r=10%", "r=20%", "r=40%", "rank_r=10%",
                     "rank_r=20%", "rank_r=40%"});
    for (const index_t p : setup.worlds) {
      const double sgd =
          epoch_cost(w, "SGD", p, 0.1, 160).seconds * setup.sgd_epochs;
      std::vector<std::string> row = {std::to_string(p)};
      std::vector<index_t> ranks;
      for (const real_t ratio : ratios) {
        const EpochCost hylo = epoch_cost(w, "HyLo", p, ratio, 160);
        row.push_back(std::to_string(sgd / (hylo.seconds * setup.hylo_epochs)));
        ranks.push_back(hylo.rank);
      }
      check_distinct_ranks(
          ratios, ranks, "fig8 " + setup.workload + " P=" + std::to_string(p));
      for (const index_t r : ranks) row.push_back(std::to_string(r));
      table.add_row(std::move(row));
    }
    table.print_table();
    table.write_file("fig8_" + setup.workload + "_speedup.csv");
  }
  std::cout << "\nPaper's claims: speedup improves with P (up to ~1.9x at "
               "the largest scale), and smaller r gives a faster HyLo "
               "(r=10% > r=20% > r=40%).\n";
  return 0;
}
