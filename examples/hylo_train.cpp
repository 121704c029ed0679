// hylo_train — command-line trainer mirroring the paper artifact's
// train-*.sh interface. Mix and match model, dataset, optimizer, worker
// count and the analysis flags the artifact exposes:
//
//   ./examples/hylo_train --model resnet32 --optimizer HyLo --world 8
//       --epochs 10 --batch 16 --lr 0.1 --damping 0.3 --freq 10
//       --rank-ratio 0.1 --profiling --rank-analysis --grad-norm
//       --checkpoint model.hysnp
//   (one command line; wrapped here for readability)
//
// Flags (all optional; sensible defaults; numeric values are parsed whole,
// like the HYLO_* variables in README "Configuration"):
//   --model {mlp,c3f1,resnet32,resnet50,densenet,unet}
//   --optimizer {SGD,ADAM,KFAC,EKFAC,KBFGS-L,SNGD,HyLo}
//   --world N --epochs N --batch N --max-iters N --seed N
//   --lr X --damping X --freq N --rank-ratio X --kl-clip X
//   --wire-bytes X        (4=FP32, 2=FP16, 2.625=21-bit of Ueno et al.)
//   --interconnect {mist,p2,loopback}
//   --target X            (early-stop test metric)
//   --telemetry DIR       (write DIR/run.jsonl + DIR/trace.json; load the
//                          trace in chrome://tracing or ui.perfetto.dev)
//   --no-step-log         (with --telemetry: epoch records only)
//   --faults SPEC         (deterministic fault injection, SPEC =
//                          seed:rate[:mix] as for HYLO_FAULTS, e.g.
//                          --faults 7:0.05:timeout=1,rank_down=2; the flag
//                          overrides the environment spec)
//   --health              (enable training-health probes + alert engine;
//                          see DESIGN.md §12)
//   --health-cadence N    (probe every Nth refresh opportunity; implies
//                          --health; default 1)
//   --strict-health       (implies --health; exit 3 if any critical alert
//                          fired — CI gates on this)
//   --profiling           (dump the comp/comm profiler at the end)
//   --grad-norm           (print HyLo's Δ-norm history)
//   --rank-analysis       (print the low rank used per refresh)
//   --checkpoint PATH     (save the final weights, BatchNorm running stats
//                          included, as a one-section run snapshot:
//                          "network", read back with ckpt::SnapshotReader +
//                          Network::serialize_state over its ByteReader)
//   --checkpoint-dir DIR  (write crash-safe run snapshots under DIR; pairs
//                          with --checkpoint-every; overrides HYLO_CKPT_*)
//   --checkpoint-every N  (snapshot cadence in iterations; 0 disables)
//   --checkpoint-keep N   (retain the newest N snapshots; default 3)
//   --resume PATH         (restore a run snapshot and continue training
//                          bitwise-identically; appends to the interrupted
//                          run's telemetry when --telemetry points at it)
//   --recover SPEC        (checkpoint-rollback self-healing, SPEC =
//                          on|off|BUDGET[:FO_ITERS[:LR_BACKOFF]] as for
//                          HYLO_RECOVER, e.g. --recover 5:40:0.25; needs
//                          --checkpoint-dir/-every; the flag overrides the
//                          environment spec — see DESIGN.md §16)
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

#include "hylo/hylo.hpp"

namespace {
using namespace hylo;

struct Args {
  std::map<std::string, std::string> kv;
  std::map<std::string, bool> flags;

  std::string get(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  double getd(const std::string& key, double def) const {
    const auto it = kv.find(key);
    constexpr double kMax = std::numeric_limits<double>::max();
    return it == kv.end()
               ? def
               : env::parse_real(it->second, -kMax, kMax, "--" + key);
  }
  template <typename Int = index_t>
  Int geti(const std::string& key, std::type_identity_t<Int> def) const {
    const auto it = kv.find(key);
    using limits = std::numeric_limits<Int>;
    return it == kv.end() ? def
                          : env::parse_int<Int>(it->second, limits::min(),
                                                limits::max(), "--" + key);
  }
  bool has(const std::string& key) const { return flags.count(key) > 0; }
};

Args parse(int argc, char** argv) {
  Args a;
  const std::map<std::string, bool> known_flags = {
      {"profiling", true},  {"grad-norm", true},     {"rank-analysis", true},
      {"no-step-log", true}, {"health", true},       {"strict-health", true}};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    HYLO_CHECK(arg.rfind("--", 0) == 0, "unexpected argument " << arg);
    arg = arg.substr(2);
    if (known_flags.count(arg) > 0) {
      a.flags[arg] = true;
    } else {
      HYLO_CHECK(i + 1 < argc, "missing value for --" << arg);
      a.kv[arg] = argv[++i];
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hylo;
  const Args args = parse(argc, argv);

  const std::string model = args.get("model", "resnet32");
  const std::string optimizer = args.get("optimizer", "HyLo");
  const std::uint64_t seed = args.geti<std::uint64_t>("seed", 42);

  // Dataset + model pairing.
  DataSplit data;
  Network net;
  if (model == "mlp") {
    data = make_spirals(1536, 384, 3, 0.05, seed);
    net = make_mlp({2, 1, 1}, {64, 64}, 3, seed);
  } else if (model == "c3f1") {
    data = make_gaussian_images(1536, 384, 10, 1, 16, 16, 0.9, seed);
    net = make_c3f1({1, 16, 16}, 10, 8, seed);
  } else if (model == "resnet32") {
    data = make_texture_images(1536, 384, 10, 3, 16, 16, 1.3, seed);
    net = make_resnet({3, 16, 16}, 10, 2, 8, seed);
  } else if (model == "resnet50") {
    data = make_texture_images(1536, 384, 10, 3, 16, 16, 1.2, seed);
    net = make_resnet({3, 16, 16}, 10, 2, 12, seed);
  } else if (model == "densenet") {
    data = make_texture_images(1536, 384, 10, 3, 16, 16, 0.4, seed);
    net = make_densenet({3, 16, 16}, 10, 8, 4, seed);
  } else if (model == "unet") {
    data = make_blob_segmentation(512, 128, 16, 16, 0.25, seed);
    net = make_unet({1, 16, 16}, 8, 2, seed);
  } else {
    std::cerr << "unknown --model " << model << "\n";
    return 1;
  }

  OptimConfig oc;
  oc.lr = args.getd("lr", optimizer == "ADAM" ? 0.002 : 0.1);
  oc.momentum = 0.9;
  oc.weight_decay = args.getd("weight-decay", 5e-4);
  oc.damping = args.getd("damping", 0.3);
  oc.update_freq = args.geti("freq", 10);
  oc.rank_ratio = args.getd("rank-ratio", 0.1);
  oc.kl_clip = args.getd("kl-clip", 0.01);
  auto opt = make_optimizer(optimizer, oc);

  TrainConfig tc;
  tc.epochs = args.geti("epochs", 8);
  tc.batch_size = args.geti("batch", 16);
  tc.world = args.geti("world", 1);
  tc.max_iters_per_epoch = args.geti("max-iters", -1);
  tc.target_metric = args.getd("target", -1.0);
  tc.wire_scalar_bytes = args.getd("wire-bytes", 4.0);
  tc.lr_schedule = {{tc.epochs * 2 / 3}, 0.1};
  tc.verbose = true;
  tc.telemetry.dir = args.get("telemetry", "");
  tc.telemetry.per_step = !args.has("no-step-log");
  const std::string net_name = args.get("interconnect", "mist");
  tc.interconnect = net_name == "mist" ? mist_v100()
                    : net_name == "p2" ? aws_p2_k80()
                                       : loopback();
  if (const std::string spec = args.get("faults", ""); !spec.empty())
    tc.faults = FaultConfig::parse(spec);
  tc.checkpoint.dir = args.get("checkpoint-dir", "");
  tc.checkpoint.every = args.geti("checkpoint-every", 0);
  tc.checkpoint.keep = args.geti("checkpoint-keep", 3);
  if (const std::string spec = args.get("recover", ""); !spec.empty())
    tc.recovery = RecoveryConfig::parse(spec);
  const bool strict_health = args.has("strict-health");
  if (args.has("health") || strict_health ||
      args.kv.count("health-cadence") > 0) {
    obs::HealthConfig hc;
    hc.enabled = true;
    hc.cadence = args.geti("health-cadence", 1);
    tc.health = hc;
  }
  const std::string resume_path = args.get("resume", "");
  if (!resume_path.empty()) tc.telemetry.append = true;

  std::cout << "hylo_train: " << model << " (" << net.num_params()
            << " params) + " << opt->name() << ", P=" << tc.world
            << ", batch=" << tc.batch_size << "/worker, wire="
            << tc.wire_scalar_bytes << "B/scalar\n";
  Trainer trainer(net, *opt, data, tc);
  if (!resume_path.empty())
    std::cout << "resuming from " << resume_path << "\n";
  const TrainResult res =
      resume_path.empty() ? trainer.run() : trainer.resume(resume_path);

  std::cout << "\nbest metric " << res.best_metric() << ", modeled wall "
            << res.total_seconds << "s (critical-path compute "
            << res.compute_seconds << "s, wire " << res.comm_seconds
            << "s; " << to_string(trainer.comm().mode()) << ")\n";
  if (res.time_to_target)
    std::cout << "reached target in " << *res.time_to_target << "s / "
              << *res.epochs_to_target << " epochs\n";
  if (trainer.run_log().enabled()) {
    std::cout << "telemetry: " << trainer.run_log().run_log_path() << " ("
              << trainer.run_log().records_written() << " records), "
              << trainer.run_log().trace_path()
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n"
              << "wire totals: " << trainer.comm().total_wire_bytes()
              << " bytes over " << trainer.comm().total_messages()
              << " collectives\n";
  }

  if (trainer.comm().faults_active()) {
    auto& reg = trainer.comm().profiler().registry();
    std::cout << "faults: " << reg.counter_value("comm/faults/injected")
              << " injected over " << trainer.comm().fault_plan()->drawn()
              << " collectives ("
              << reg.counter_value("comm/faults/unrecoverable")
              << " unrecoverable)\n";
    if (reg.counter_value("dist/elastic/world_shrinks") > 0)
      std::cout << "elastic: "
                << reg.counter_value("dist/elastic/world_shrinks")
                << " rank(s) lost permanently, "
                << reg.counter_value("dist/elastic/layer_migrations")
                << " layer migrations, final world " << trainer.world()
                << "\n";
  }
  if (trainer.checkpoint_config().enabled())
    std::cout << "snapshots: every " << trainer.checkpoint_config().every
              << " iterations under " << trainer.checkpoint_config().dir
              << " (keep " << trainer.checkpoint_config().keep << ")\n";
  if (trainer.recovery().enabled())
    std::cout << "recovery: " << res.rollbacks << " rollback(s) of a budget "
              << trainer.recovery().config().max_rollbacks << ", last good "
              << (trainer.last_good_snapshot().empty()
                      ? "(none)"
                      : trainer.last_good_snapshot())
              << "\n";
  if (args.has("profiling")) {
    std::cout << "\nprofile:\n";
    for (const auto& [name, e] : trainer.profiler().sections())
      std::cout << "  " << name << ": " << e.seconds << "s x" << e.calls
                << "\n";
  }
  if (auto* hy = dynamic_cast<HyloOptimizer*>(opt.get()); hy != nullptr) {
    if (args.has("grad-norm")) {
      std::cout << "\ndelta-norm history:";
      for (const auto n : hy->delta_norm_history()) std::cout << " " << n;
      std::cout << "\nmodes:";
      for (const auto m : hy->mode_history())
        std::cout << " " << (m == HyloMode::kKid ? "KID" : "KIS");
      std::cout << "\n";
    }
    if (args.has("rank-analysis"))
      std::cout << "low rank at last refresh: " << hy->last_rank() << "\n";
  }
  if (const std::string path = args.get("checkpoint", ""); !path.empty()) {
    ckpt::SnapshotWriter snap;
    net.serialize_state(snap.section("network"));
    snap.write(path);
    std::cout << "weights saved to " << path << "\n";
  }
  if (trainer.health().enabled()) {
    std::cout << trainer.alerts().summary() << "\n"
              << "health: " << trainer.health().probes() << " probe(s), "
              << trainer.health().total_nonfinite()
              << " non-finite value(s) observed\n";
    if (strict_health && res.critical_alerts > 0) {
      std::cout << "strict-health: " << res.critical_alerts
                << " critical alert(s) — failing the run\n";
      return 3;
    }
  }
  return 0;
}
