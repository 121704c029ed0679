// Fig. 4 reproduction: single-device test accuracy vs (simulated) time for
// DenseNet and 3C1F against KFAC, EKFAC, KBFGS-L, SGD and ADAM. The paper's
// claims: HyLo reaches the target accuracy first, beats KBFGS-L/KFAC/EKFAC
// accuracy, and is ~1.4x (DenseNet) to ~3x (3C1F) faster than KFAC/EKFAC.
#include <iostream>

#include "bench_common.hpp"

using namespace hylo;
using namespace hylo::bench;

int main() {
  const bool big = large_scale();
  const index_t epochs = big ? 20 : 8;
  for (const std::string wname : {"densenet", "c3f1"}) {
    const Workload w = make_workload(wname);
    // Mirror the paper's targets: DenseNet 75%, 3C1F 93%.
    const real_t target = wname == "densenet" ? 0.75 : 0.93;
    std::cout << "\nFig. 4 — " << w.paper_name << " (" << w.proxy_desc
              << "), single device, target acc " << target << "\n\n";

    CsvWriter curves({"optimizer", "epoch", "sim_seconds", "test_acc"});
    CsvWriter summary({"optimizer", "best_acc", "final_acc", "sim_seconds",
                       "so2_overhead_measured_s", "time_to_target"});
    double kfac_over = -1.0, hylo_over = -1.0;
    for (const std::string name :
         {"HyLo", "KFAC", "EKFAC", "KBFGS-L", "SGD", "ADAM"}) {
      Network net = w.make_model();
      OptimConfig oc = method_config(name);
      auto opt = make_optimizer(name, oc);
      TrainConfig tc;
      tc.epochs = epochs;
      tc.batch_size = 32;
      tc.world = 1;
      tc.compute = bench_compute();
      tc.max_iters_per_epoch = big ? -1 : 24;
      tc.lr_schedule = {{epochs * 2 / 3}, 0.1};
      tc.target_metric = target;
      apply_env_telemetry(tc, "fig4/" + w.paper_name + "/" + name);
      Trainer trainer(net, *opt, w.data, tc);
      const TrainResult res = trainer.run();
      for (const auto& e : res.epochs)
        curves.add(name, e.epoch, e.wall_seconds, e.test_metric);
      // Measured second-order overhead: everything beyond plain
      // fwd/bwd+allreduce — the component the paper's Fig. 7 timings
      // isolate.
      const auto& prof = trainer.profiler();
      const double overhead = prof.seconds("comp/factorization") +
                              prof.seconds("comp/inversion") +
                              prof.seconds("comp/step");
      const std::string ttt = res.time_to_target
                                  ? std::to_string(*res.time_to_target)
                                  : "not reached";
      summary.add(name, res.best_metric(), res.epochs.back().test_metric,
                  res.total_seconds, overhead, ttt);
      if (name == "KFAC") kfac_over = overhead;
      if (name == "HyLo") hylo_over = overhead;
    }
    summary.print_table();
    curves.write_file("fig4_" + wname + "_curves.csv");
    if (kfac_over > 0 && hylo_over > 0)
      std::cout << "\nKFAC/HyLo second-order overhead ratio: "
                << kfac_over / hylo_over
                << "x (the fwd/bwd time shared by all methods dominates the "
                   "absolute sim_seconds on these CPU-scaled proxies; the "
                   "paper's 1.4x-3x end-to-end gap comes from this "
                   "overhead at full layer dimensions, cf. Fig. 2/3)\n";
  }
  return 0;
}
