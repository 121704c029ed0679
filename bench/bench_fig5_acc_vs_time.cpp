// Fig. 5 reproduction: multi-worker test accuracy vs simulated time for
// ResNet-50 (P=8), U-Net (P=4) and ResNet-32 (P=8) against KAISA
// (distributed KFAC), SGD and ADAM. The paper's claim: HyLo converges to
// the target 1.3x-2.4x faster than every baseline.
#include <iostream>

#include "bench_common.hpp"

using namespace hylo;
using namespace hylo::bench;

int main() {
  struct Setup {
    std::string workload;
    index_t world;
    index_t epochs;
  };
  const bool big = large_scale();
  const std::vector<Setup> setups = {{"resnet50", 8, big ? index_t{12} : index_t{5}},
                                     {"unet", 4, big ? index_t{12} : index_t{5}},
                                     {"resnet32", 8, big ? index_t{12} : index_t{5}}};

  for (const auto& setup : setups) {
    const Workload w = make_workload(setup.workload);
    std::cout << "\nFig. 5 — " << w.paper_name << " on P=" << setup.world
              << " simulated workers (" << w.proxy_desc << "), target "
              << w.target_metric << "\n\n";

    CsvWriter curves({"optimizer", "epoch", "sim_seconds", "test_metric"});
    CsvWriter summary(
        {"optimizer", "best_metric", "sim_seconds", "time_to_target"});
    double hylo_t = -1.0;
    std::vector<std::pair<std::string, double>> others;
    for (const std::string name : {"HyLo", "KAISA", "SGD", "ADAM"}) {
      Network net = w.make_model();
      OptimConfig oc = method_config(name);
      auto opt = make_optimizer(name, oc);
      TrainConfig tc;
      tc.epochs = setup.epochs;
      tc.batch_size = 8;
      tc.world = setup.world;
      tc.interconnect = mist_v100();
      tc.compute = bench_compute();
      tc.lr_schedule = {{setup.epochs * 2 / 3}, 0.1};
      tc.target_metric = w.target_metric;
      tc.max_iters_per_epoch = big ? -1 : 12;
      apply_env_telemetry(tc, "fig5/" + setup.workload + "/" + name);
      Trainer trainer(net, *opt, w.data, tc);
      const TrainResult res = trainer.run();
      for (const auto& e : res.epochs)
        curves.add(name, e.epoch, e.wall_seconds, e.test_metric);
      const double reach =
          res.time_to_target ? *res.time_to_target : res.total_seconds;
      summary.add(name, res.best_metric(), res.total_seconds,
                  res.time_to_target ? std::to_string(*res.time_to_target)
                                     : "not reached");
      if (name == "HyLo")
        hylo_t = reach;
      else
        others.push_back({name, reach});
    }
    summary.print_table();
    curves.write_file("fig5_" + setup.workload + "_curves.csv");
    std::cout << "\nSpeedup of HyLo over baselines (time to reach "
                 "target-or-end):";
    for (const auto& [name, t] : others)
      std::cout << "  " << name << " " << t / hylo_t << "x";
    std::cout << "  (paper: 1.3x-2.4x)\n";
  }
  return 0;
}
