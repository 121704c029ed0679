// Ablation: curvature update frequency. All second-order methods in the
// paper refresh the Fisher approximation every `freq` iterations (KAISA's
// default protocol, scaled with P in Fig. 8). This sweep quantifies the
// accuracy/cost trade-off for HyLo on the ResNet-32 proxy.
#include <iostream>

#include "bench_common.hpp"

using namespace hylo;
using namespace hylo::bench;

int main() {
  const Workload w = make_workload("resnet32");
  const index_t epochs = large_scale() ? 12 : 6;

  std::cout << "Ablation — curvature refresh period on " << w.paper_name
            << " (P=4)\n\n";
  CsvWriter table({"update_freq", "refreshes", "best_acc", "sim_seconds"});
  for (const index_t freq : {1, 5, 10, 20}) {
    Network net = w.make_model();
    OptimConfig oc = method_config("HyLo");
    oc.update_freq = freq;
    HyloOptimizer opt(oc);
    TrainConfig tc;
    tc.epochs = epochs;
    tc.batch_size = 8;
    tc.world = 4;
    tc.interconnect = mist_v100();
    tc.compute = bench_compute();
    tc.max_iters_per_epoch = large_scale() ? -1 : 10;
    tc.lr_schedule = {{epochs * 2 / 3}, 0.1};
    apply_env_telemetry(tc, "ablation_freq/f" + std::to_string(freq));
    Trainer trainer(net, opt, w.data, tc);
    const TrainResult res = trainer.run();
    // One count per refresh iteration (`comp/inversion` books one call per
    // layer).
    table.add(freq,
              trainer.profiler().registry().counter_value(
                  "optim/hylo/refreshes"),
              res.best_metric(), res.total_seconds);
  }
  table.print_table();
  table.write_file("ablation_freq.csv");
  std::cout << "\nExpected: freq=1 pays maximal curvature cost for little "
               "extra accuracy; very sparse refreshes (20+) start to lag on "
               "the epochs right after LR changes — the same trade-off that "
               "motivates scaling freq with P in Fig. 8.\n";
  return 0;
}
