// Distributed-training example: run HyLo on 8 simulated workers over the
// V100-cluster interconnect model, and inspect everything the simulator
// tracks — the KID/KIS switching schedule, the computation/communication
// profile, per-collective wire bytes, and the low rank actually used. With
// telemetry on, the run also writes hylo_distributed_run/run.jsonl and a
// Chrome-trace timeline (hylo_distributed_run/trace.json) where the 8 rank
// tracks interleave with the modeled collectives on the interconnect lane.
//
//   $ ./examples/distributed_training
#include <iomanip>
#include <iostream>

#include "hylo/hylo.hpp"

int main() {
  using namespace hylo;

  const index_t world = 8;
  const DataSplit data =
      make_texture_images(1536, 384, 10, 3, 16, 16, 1.2, 51);
  Network net = make_resnet({3, 16, 16}, 10, 2, 12, 42);

  OptimConfig oc;
  oc.lr = 0.1;
  oc.momentum = 0.9;
  oc.weight_decay = 5e-4;
  oc.damping = 0.3;
  oc.update_freq = 5;
  oc.rank_ratio = 0.1;
  oc.kl_clip = 0.01;
  HyloOptimizer opt(oc);

  TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 8;  // local batch m; global batch = P*m = 64
  tc.world = world;
  tc.interconnect = mist_v100();
  tc.lr_schedule = {{4}, 0.1};
  tc.telemetry.dir = "hylo_distributed_run";  // run.jsonl + trace.json
  Trainer trainer(net, opt, data, tc);

  std::cout << "Training " << net.name() << " on " << world
            << " simulated workers (" << tc.interconnect.name
            << " interconnect), global batch " << world * tc.batch_size
            << "\n\n";
  trainer.set_epoch_hook([](const EpochStats& s, Network&) {
    std::cout << "  epoch " << s.epoch << " [" << s.note << "]: test acc "
              << s.test_metric << ", sim wall " << s.wall_seconds << "s\n";
  });
  const TrainResult res = trainer.run();

  std::cout << "\nLow rank used at the last refresh: r = " << opt.last_rank()
            << " (" << 100.0 * oc.rank_ratio << "% of the global batch)\n";
  std::cout << "Optimizer state: " << opt.state_bytes() / 1024 << " KiB\n";

  std::cout << "\nModeled wall " << res.total_seconds
            << "s (the event-timeline horizon):\n"
            << "  compute on the critical path (FLOPs at "
            << tc.compute.name << "): " << res.compute_seconds << "s\n"
            << "  communication on the wire (alpha-beta model): "
            << res.comm_seconds << "s\n";

  std::cout << "\nProfiler sections (comp/* measured CPU seconds; model/* "
               "and comm/* modeled, summed over ranks):\n";
  for (const auto& [name, entry] : trainer.profiler().sections())
    std::cout << "  " << std::left << std::setw(28) << name << " "
              << std::setw(12) << entry.seconds << "s  x" << entry.calls
              << "\n";

  std::cout << "\nWire accounting (modeled payload bytes per collective):\n";
  for (const auto& [name, entry] : trainer.profiler().sections()) {
    if (name.rfind("comm/", 0) != 0) continue;
    std::cout << "  " << std::left << std::setw(28) << name << " "
              << trainer.comm().wire_bytes_charged(name) << " B over "
              << trainer.comm().messages(name) << " calls\n";
  }
  std::cout << "telemetry: " << trainer.run_log().run_log_path() << ", "
            << trainer.run_log().trace_path()
            << " (load in https://ui.perfetto.dev)\n";

  std::cout << "\nSwitching schedule:";
  for (const auto m : opt.mode_history())
    std::cout << " " << (m == HyloMode::kKid ? "KID" : "KIS");
  std::cout << "\n(critical epochs — warmup and post-LR-decay — use KID; "
               "stable epochs use the cheaper KIS)\n";
  return 0;
}
