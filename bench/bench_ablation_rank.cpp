// Ablation: HyLo's rank budget r (as a fraction of the global batch).
// Sweeps rank_ratio and reports the rank it gave, accuracy, simulated time
// and per-refresh curvature cost — the accuracy/cost trade-off behind the
// paper's choice of r = 10% (Sec. V-A) and the Fig. 8 r-sweep. The local
// batch is 32, the smallest at P = 4 where the four ratios give four ranks.
#include <iostream>

#include "bench_common.hpp"
#include "hylo/optim/sngd.hpp"

using namespace hylo;
using namespace hylo::bench;

int main() {
  const Workload w = make_workload("resnet32");
  const index_t epochs = large_scale() ? 12 : 6;

  std::cout << "Ablation — HyLo rank ratio on " << w.paper_name
            << " (P=4)\n\n";
  const std::vector<real_t> ratios = {0.05, 0.1, 0.25, 0.5};
  CsvWriter table({"rank_ratio", "rank_r", "best_acc", "sim_seconds",
                   "curvature_measured_ms_per_refresh"});
  std::vector<index_t> ranks;
  for (const real_t ratio : ratios) {
    Network net = w.make_model();
    OptimConfig oc = method_config("HyLo");
    oc.rank_ratio = ratio;
    oc.update_freq = 5;
    HyloOptimizer opt(oc);
    TrainConfig tc;
    tc.epochs = epochs;
    tc.batch_size = 32;
    tc.world = 4;
    tc.interconnect = mist_v100();
    tc.compute = bench_compute();
    tc.max_iters_per_epoch = large_scale() ? -1 : 10;
    tc.lr_schedule = {{epochs * 2 / 3}, 0.1};
    apply_env_telemetry(tc, "ablation_rank/r" + std::to_string(ratio));
    Trainer trainer(net, opt, w.data, tc);
    const TrainResult res = trainer.run();
    const auto& prof = trainer.profiler();
    // Refresh iterations, not `comp/inversion` calls (one per layer).
    const double refreshes = static_cast<double>(std::max<std::int64_t>(
        1, prof.registry().counter_value("optim/hylo/refreshes")));
    const double curv_ms = (prof.seconds("comp/factorization") +
                            prof.seconds("comp/inversion")) /
                           refreshes * 1e3;
    ranks.push_back(hylo_rank(trainer));
    table.add(ratio, ranks.back(), res.best_metric(), res.total_seconds,
              curv_ms);
  }
  check_distinct_ranks(ratios, ranks, "ablation_rank");
  table.print_table();
  table.write_file("ablation_rank.csv");
  std::cout << "\nExpected: curvature cost grows with r; accuracy saturates "
               "near the kernel's numerical rank (Fig. 10), which is why "
               "the paper fixes r = 10% of the global batch.\n";
  return 0;
}
