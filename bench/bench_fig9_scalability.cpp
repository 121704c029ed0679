// Fig. 9 reproduction: HyLo's scalability — time-per-epoch speedup relative
// to its own single-worker time as P grows, on the ResNet-50, ResNet-32 and
// U-Net proxies. The paper reports superlinear scaling for ResNet-50 and
// U-Net (second-order refresh cost per sample *drops* as the per-worker
// factor work shrinks) and linear scaling for ResNet-32.
#include <iostream>

#include "bench_common.hpp"

using namespace hylo;
using namespace hylo::bench;

namespace {

// Time-per-epoch for HyLo at world P with a fixed *global* workload: the
// per-epoch sample count is fixed by the dataset, so growing P shrinks each
// worker's share (strong scaling, as in the paper's Fig. 9).
double epoch_seconds(const Workload& w, index_t world) {
  Network net = w.make_model();
  OptimConfig oc = method_config("HyLo");
  oc.update_freq = std::max<index_t>(1, 80 / world);
  auto opt = make_optimizer("HyLo", oc);
  const index_t batch = 8;
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = batch;
  tc.world = world;
  tc.interconnect = mist_v100();
  tc.compute = bench_compute();
  tc.max_iters_per_epoch = std::max<index_t>(2, 48 / world);
  apply_env_telemetry(tc, "fig9/" + w.paper_name + "/P" + std::to_string(world));
  Trainer trainer(net, *opt, w.data, tc);
  const TrainResult res = trainer.run();
  // Project to one pass over the dataset: at P workers each iteration
  // consumes P*batch samples, so the epoch shrinks with P (strong scaling).
  const double per_iter =
      res.total_seconds / static_cast<double>(res.iterations);
  return per_iter * static_cast<double>(w.data.train.size()) /
         static_cast<double>(world * batch);
}

}  // namespace

int main() {
  const std::vector<index_t> worlds = {1, 2, 4, 8, 16, 32};
  for (const std::string wname : {"resnet50", "resnet32", "unet"}) {
    const Workload w = make_workload(wname);
    std::cout << "\nFig. 9 — HyLo strong-scaling speedup vs its own P=1 "
                 "time, " << w.paper_name << "\n\n";
    CsvWriter table({"P", "epoch_seconds", "speedup_vs_P1", "ideal"});
    double base = 0.0;
    for (const index_t p : worlds) {
      const double t = epoch_seconds(w, p);
      if (p == 1) base = t;
      table.add(p, t, base / t, p);
    }
    table.print_table();
    table.write_file("fig9_" + wname + "_scaling.csv");
  }
  std::cout << "\nPaper's claim: near-linear (ResNet-32) to superlinear "
               "(ResNet-50, U-Net) scaling, because the per-worker "
               "factorization shrinks faster than linearly once the local "
               "batch share drops.\n";
  return 0;
}
