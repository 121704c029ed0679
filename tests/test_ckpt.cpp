// hylo::ckpt — crash-safe run snapshots. Container-level corruption
// rejection, weights-only snapshot round trips, bitwise interrupt/resume
// across models × optimizers × fault specs, and the elastic world-shrink
// path on permanent rank loss.
//
// Env-proofing: every Trainer here pins its fault schedule (an explicit
// FaultConfig, possibly disabled) and its checkpoint cadence (a non-empty
// dir with every=0 pins snapshots off), so an ambient HYLO_FAULTS /
// HYLO_CKPT_* environment — as the CI fault matrix sets — cannot change any
// outcome.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "hylo/hylo.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Container-level tests

std::string tmp_dir(const std::string& name) {
  // PID-qualified: ctest runs this binary twice concurrently (plain +
  // ckpt_env_suite), and a shared path would race on remove_all vs. the
  // sibling's live snapshots.
  const std::string dir = "/tmp/hylo_test_ckpt_" +
                          std::to_string(::getpid()) + "_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string write_sample_snapshot(const std::string& dir) {
  ckpt::SnapshotWriter snap;
  ckpt::Archive a = snap.section("alpha");
  std::uint64_t n = 42;
  std::string s = "hello";
  real_t x = 1.5;
  a(n, "n");
  a(s, "s");
  a(x, "x");
  Matrix m(2, 3);
  for (index_t i = 0; i < m.size(); ++i) m.data()[i] = 0.25 * (i + 1);
  bool flag = true;
  ckpt::Archive b = snap.section("beta");
  b(m, "m");
  b(flag, "flag");
  const std::string path = dir + "/snapshot-00000001.hysnp";
  snap.write(path);
  return path;
}

TEST(SnapshotContainer, RoundTrip) {
  const std::string dir = tmp_dir("roundtrip");
  const std::string path = write_sample_snapshot(dir);

  ckpt::SnapshotReader snap(path);
  EXPECT_EQ(snap.version(), ckpt::kSnapshotVersion);
  ASSERT_EQ(snap.names(), (std::vector<std::string>{"alpha", "beta"}));

  ckpt::ByteReader a = snap.open("alpha");
  std::uint64_t n = 0;
  std::string s;
  real_t x = 0.0;
  ckpt::Archive ar = a;
  ar(n, "n");
  ar(s, "s");
  ar(x, "x");
  EXPECT_EQ(n, 42u);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(x, 1.5);
  a.expect_done();

  ckpt::ByteReader b = snap.open("beta");
  Matrix m;
  bool flag = false;
  ckpt::Archive br = b;
  br(m, "m");
  br(flag, "flag");
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  for (index_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.25 * (i + 1));
  EXPECT_TRUE(flag);
  b.expect_done();

  EXPECT_FALSE(snap.has("gamma"));
  EXPECT_THROW(snap.open("gamma"), Error);
  fs::remove_all(dir);
}

TEST(SnapshotContainer, RejectsTmpPath) {
  // A `.tmp` sibling is an uncommitted write; readers must refuse it even
  // if its bytes happen to be complete.
  const std::string dir = tmp_dir("tmppath");
  const std::string path = write_sample_snapshot(dir);
  const std::string tmp = path + ".tmp";
  fs::copy_file(path, tmp);
  EXPECT_THROW(ckpt::SnapshotReader{tmp}, Error);
  fs::remove_all(dir);
}

TEST(SnapshotContainer, RejectsBadMagicAndWrongVersion) {
  const std::string dir = tmp_dir("magic");
  const std::string path = write_sample_snapshot(dir);
  const std::vector<char> good = slurp(path);

  std::vector<char> bad_magic = good;
  bad_magic[0] ^= 0x5a;
  spit(path, bad_magic);
  EXPECT_THROW(ckpt::SnapshotReader{path}, Error);

  std::vector<char> bad_version = good;
  bad_version[8] ^= 0x01;  // u32 version follows the u64 magic
  spit(path, bad_version);
  try {
    ckpt::SnapshotReader snap(path);
    FAIL() << "wrong version accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(SnapshotContainer, RejectsTruncationAtEveryByte) {
  // Cut the container at every possible length, covering every section
  // prefix (name length, name, payload length, CRC, payload) — each
  // truncation must throw, never yield a partial snapshot.
  const std::string dir = tmp_dir("truncate");
  const std::string path = write_sample_snapshot(dir);
  const std::vector<char> good = slurp(path);
  ASSERT_GT(good.size(), 0u);
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    spit(path, std::vector<char>(good.begin(),
                                 good.begin() + static_cast<long>(cut)));
    EXPECT_THROW(ckpt::SnapshotReader{path}, Error) << "cut=" << cut;
  }
  fs::remove_all(dir);
}

TEST(SnapshotContainer, FlippedPayloadByteFailsNamingTheSection) {
  const std::string dir = tmp_dir("crc");
  const std::string path = write_sample_snapshot(dir);
  const std::vector<char> good = slurp(path);
  // Flip the last payload byte — it belongs to the "beta" section.
  std::vector<char> bad = good;
  bad.back() ^= 0x40;
  spit(path, bad);
  try {
    ckpt::SnapshotReader snap(path);
    FAIL() << "corrupt payload accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("beta"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(SnapshotContainer, RejectsTrailingGarbage) {
  const std::string dir = tmp_dir("trailing");
  const std::string path = write_sample_snapshot(dir);
  std::vector<char> bytes = slurp(path);
  bytes.push_back('x');
  spit(path, bytes);
  EXPECT_THROW(ckpt::SnapshotReader{path}, Error);
  fs::remove_all(dir);
}

TEST(SnapshotContainer, AtomicWriteLeavesNoTmp) {
  const std::string dir = tmp_dir("atomic");
  const std::string path = write_sample_snapshot(dir);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(SnapshotContainer, ListAndRetain) {
  const std::string dir = tmp_dir("retain");
  std::vector<std::string> written;
  for (const int it : {3, 1, 7, 5}) {
    ckpt::SnapshotWriter snap;
    index_t iter = it;
    ckpt::Archive ar = snap.section("meta");
    ar(iter, "iter");
    char name[40];
    std::snprintf(name, sizeof(name), "snapshot-%08d.hysnp", it);
    written.push_back(dir + "/" + name);
    snap.write(written.back());
  }
  // An unrelated file must be ignored by both list and retain.
  spit(dir + "/notes.txt", {'h', 'i'});

  const std::vector<std::string> all = ckpt::list_snapshots(dir);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(all.front().find("00000001") != std::string::npos);
  EXPECT_TRUE(all.back().find("00000007") != std::string::npos);

  ckpt::retain_last(dir, 2);
  const std::vector<std::string> kept = ckpt::list_snapshots(dir);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(kept[0].find("00000005") != std::string::npos);
  EXPECT_TRUE(kept[1].find("00000007") != std::string::npos);
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));

  ckpt::retain_last(dir, 0);  // 0 keeps everything
  EXPECT_EQ(ckpt::list_snapshots(dir).size(), 2u);
  fs::remove_all(dir);
}

TEST(SnapshotContainer, EnvConfigResolution) {
  testutil::ScopedEnv dir("HYLO_CKPT_DIR", nullptr);
  testutil::ScopedEnv every("HYLO_CKPT_EVERY", nullptr);
  testutil::ScopedEnv keep("HYLO_CKPT_KEEP", nullptr);
  EXPECT_EQ(resolve_config(TrainConfig{}).source.at("checkpoint").str(),
            "default");

  dir.set("/tmp/hylo_env_snaps");
  every.set("25");
  const ResolvedConfig r = resolve_config(TrainConfig{});
  ASSERT_EQ(r.source.at("checkpoint").str(), "env");
  const ckpt::CkptConfig& cfg = r.checkpoint;
  EXPECT_EQ(cfg.dir, "/tmp/hylo_env_snaps");
  EXPECT_EQ(cfg.every, 25);
  EXPECT_EQ(cfg.keep, 3);  // default retention
  keep.set("7");
  EXPECT_EQ(resolve_config(TrainConfig{}).checkpoint.keep, 7);
}

// ---------------------------------------------------------------------------
// Bitwise interrupt/resume

struct Rig {
  DataSplit data;
  Network net;
  std::unique_ptr<Optimizer> opt;
};

Rig make_rig(const std::string& model, const std::string& optimizer) {
  Rig s;
  if (model == "mlp") {
    s.data = make_spirals(256, 64, 3, 0.05, 7);
    s.net = make_mlp({2, 1, 1}, {16, 16}, 3, 7);
  } else {  // conv net
    s.data = make_gaussian_images(128, 32, 4, 1, 8, 8, 0.8, 7);
    s.net = make_c3f1({1, 8, 8}, 4, 4, 7);
  }
  OptimConfig oc;
  oc.lr = optimizer == "ADAM" ? 0.002 : 0.05;
  oc.momentum = 0.9;
  oc.update_freq = 3;
  oc.rank_ratio = 0.25;
  s.opt = make_optimizer(optimizer, oc);
  return s;
}

TrainConfig base_config(index_t world) {
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.world = world;
  tc.max_iters_per_epoch = 4;
  tc.interconnect = mist_v100();
  tc.faults = FaultConfig{};          // pinned fault-free (env-proof)
  tc.checkpoint.dir = "/tmp/unused";  // non-empty dir + every=0 pins
  tc.checkpoint.every = 0;            // snapshots *off* (env-proof)
  return tc;
}

// ---------------------------------------------------------------------------
// Weights-only snapshots: what `hylo_train --checkpoint` writes, one
// "network" section (weights, plain params and BatchNorm running stats). The
// container cases above cover a damaged or uncommitted file.

void save_weights(Network& net, const std::string& path) {
  ckpt::SnapshotWriter snap;
  net.serialize_state(snap.section("network"));
  snap.write(path);
}

void load_weights(Network& net, const std::string& path) {
  const ckpt::SnapshotReader snap(path);
  ckpt::ByteReader r = snap.open("network");
  net.serialize_state(r);
  r.expect_done();
}

Tensor4 random_batch(Rng& rng, index_t n, Shape s) {
  Tensor4 x(n, s.c, s.h, s.w);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  return x;
}

TEST(Checkpoint, RoundTripRestoresOutputs) {
  const std::string dir = tmp_dir("weights_roundtrip");
  const std::string path = dir + "/w.hysnp";
  Network a = make_resnet({3, 8, 8}, 4, 1, 8, 5);
  {  // train a little so BN running stats and weights are non-initial
    const DataSplit data = make_texture_images(128, 32, 4, 3, 8, 8, 0.3, 1);
    Sgd opt(OptimConfig{});
    TrainConfig tc = base_config(1);
    tc.epochs = 1;
    tc.batch_size = 16;
    tc.max_iters_per_epoch = -1;
    Trainer(a, opt, data, tc).run();
  }
  save_weights(a, path);

  Network b = make_resnet({3, 8, 8}, 4, 1, 8, 99);  // different init
  load_weights(b, path);

  Rng rng(7);
  const Tensor4 x = random_batch(rng, 3, {3, 8, 8});
  const PassContext eval{.training = false, .capture = false};
  const Tensor4& ya = a.forward(x, eval);
  const Tensor4& yb = b.forward(x, eval);
  for (index_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
  fs::remove_all(dir);
}

TEST(Checkpoint, CarriesBatchNormRunningStats) {
  // Eval-mode output depends on running stats: loading must restore them
  // even though they are not parameters.
  const std::string dir = tmp_dir("weights_bn");
  const std::string path = dir + "/w.hysnp";
  Network a;
  const int x = a.add_input({2, 4, 4});
  a.add(std::make_unique<BatchNorm2d>(0.5), x);
  Rng rng(4);
  const Tensor4 in = random_batch(rng, 8, {2, 4, 4});
  const PassContext train{.training = true, .capture = false};
  for (int it = 0; it < 10; ++it) a.forward(in, train);
  save_weights(a, path);

  Network b;
  b.add_input({2, 4, 4});
  b.add(std::make_unique<BatchNorm2d>(0.5), 0);
  load_weights(b, path);
  const PassContext eval{.training = false, .capture = false};
  const Tensor4& ya = a.forward(in, eval);
  const Tensor4& yb = b.forward(in, eval);
  for (index_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
  fs::remove_all(dir);
}

TEST(Checkpoint, RejectsShapeMismatch) {
  const std::string dir = tmp_dir("weights_shape");
  Network a = make_mlp({2, 1, 1}, {8}, 2, 1);
  save_weights(a, dir + "/w.hysnp");
  Network b = make_mlp({2, 1, 1}, {16}, 2, 1);
  EXPECT_THROW(load_weights(b, dir + "/w.hysnp"), Error);
  fs::remove_all(dir);
}

TEST(Checkpoint, MissingFileThrows) {
  // The one container case the corruption matrix above leaves out: the
  // SnapshotReader must refuse a path with no file behind it.
  const std::string dir = tmp_dir("weights_missing");
  Network net = make_mlp({2, 1, 1}, {8}, 2, 1);
  EXPECT_THROW(load_weights(net, dir + "/w.hysnp"), Error);
  fs::remove_all(dir);
}

FaultConfig transient_faults() {
  FaultConfig fc;  // default mix: transient kinds only, rank_lost off
  fc.seed = 13;
  fc.rate = 0.15;
  return fc;
}

std::vector<real_t> flat_weights(Network& net) {
  std::vector<real_t> out;
  for (auto* pb : net.param_blocks())
    out.insert(out.end(), pb->w.data(), pb->w.data() + pb->w.size());
  for (auto pp : net.plain_params())
    out.insert(out.end(), pp.value->begin(), pp.value->end());
  return out;
}

struct RunOut {
  std::vector<real_t> weights;
  TrainResult result;
  index_t world = 0;
};

RunOut run_reference(const std::string& model, const std::string& optname,
                     const std::optional<FaultConfig>& faults, index_t world) {
  Rig s = make_rig(model, optname);
  TrainConfig tc = base_config(world);
  if (faults) tc.faults = *faults;
  Trainer t(s.net, *s.opt, s.data, tc);
  RunOut out;
  out.result = t.run();
  out.weights = flat_weights(s.net);
  out.world = t.world();
  return out;
}

std::vector<std::string> run_with_snapshots(
    const std::string& model, const std::string& optname,
    const std::optional<FaultConfig>& faults, index_t world,
    const std::string& dir, index_t every, RunOut* out) {
  Rig s = make_rig(model, optname);
  TrainConfig tc = base_config(world);
  if (faults) tc.faults = *faults;
  tc.checkpoint.dir = dir;
  tc.checkpoint.every = every;
  tc.checkpoint.keep = 0;  // keep every boundary for the resume sweep
  Trainer t(s.net, *s.opt, s.data, tc);
  out->result = t.run();
  out->weights = flat_weights(s.net);
  out->world = t.world();
  return ckpt::list_snapshots(dir);
}

RunOut resume_from(const std::string& model, const std::string& optname,
                   const std::optional<FaultConfig>& faults, index_t world,
                   const std::string& snapshot) {
  Rig s = make_rig(model, optname);
  TrainConfig tc = base_config(world);
  if (faults) tc.faults = *faults;
  Trainer t(s.net, *s.opt, s.data, tc);
  RunOut out;
  out.result = t.resume(snapshot);
  out.weights = flat_weights(s.net);
  out.world = t.world();
  return out;
}

void expect_bitwise(const RunOut& ref, const RunOut& got,
                    const std::string& label) {
  ASSERT_EQ(ref.weights.size(), got.weights.size()) << label;
  for (std::size_t i = 0; i < ref.weights.size(); ++i)
    ASSERT_EQ(ref.weights[i], got.weights[i]) << label << " weight " << i;
  // Modeled quantities, the wall among them, are part of the bitwise
  // contract.
  EXPECT_EQ(ref.result.comm_seconds, got.result.comm_seconds) << label;
  EXPECT_EQ(ref.result.total_seconds, got.result.total_seconds) << label;
  EXPECT_EQ(ref.world, got.world) << label;
  // The resumed result covers the tail of the reference's epochs.
  ASSERT_LE(got.result.epochs.size(), ref.result.epochs.size()) << label;
  const std::size_t off = ref.result.epochs.size() - got.result.epochs.size();
  for (std::size_t i = 0; i < got.result.epochs.size(); ++i) {
    const EpochStats& a = ref.result.epochs[off + i];
    const EpochStats& b = got.result.epochs[i];
    EXPECT_EQ(a.epoch, b.epoch) << label;
    EXPECT_EQ(a.train_loss, b.train_loss) << label << " epoch " << a.epoch;
    EXPECT_EQ(a.train_metric, b.train_metric) << label << " epoch " << a.epoch;
    EXPECT_EQ(a.test_loss, b.test_loss) << label << " epoch " << a.epoch;
    EXPECT_EQ(a.test_metric, b.test_metric) << label << " epoch " << a.epoch;
    EXPECT_EQ(a.wall_seconds, b.wall_seconds) << label << " epoch " << a.epoch;
  }
  EXPECT_EQ(ref.result.iterations, got.result.iterations) << label;
}

TEST(Resume, BitwiseAtEveryBoundaryMlp) {
  // Snapshot after every iteration and resume from each — a simulated crash
  // at every boundary, including the epoch boundary — must land bitwise on
  // the uninterrupted run. Also locks that snapshotting itself does not
  // perturb training.
  const std::string dir = tmp_dir("every_mlp");
  const RunOut ref = run_reference("mlp", "HyLo", std::nullopt, 4);
  RunOut with_snaps;
  const auto snaps = run_with_snapshots("mlp", "HyLo", std::nullopt, 4, dir, 1,
                                        &with_snaps);
  expect_bitwise(ref, with_snaps, "snapshotting run");
  ASSERT_EQ(snaps.size(), 8u);  // 2 epochs x 4 iters, every=1, keep=0
  for (const auto& snap : snaps)
    expect_bitwise(ref, resume_from("mlp", "HyLo", std::nullopt, 4, snap),
                   "resume from " + snap);
  fs::remove_all(dir);
}

TEST(Resume, BitwiseMlpUnderTransientFaults) {
  const std::string dir = tmp_dir("faults_mlp");
  const auto fc = transient_faults();
  const RunOut ref = run_reference("mlp", "HyLo", fc, 4);
  RunOut with_snaps;
  const auto snaps =
      run_with_snapshots("mlp", "HyLo", fc, 4, dir, 3, &with_snaps);
  expect_bitwise(ref, with_snaps, "snapshotting run");
  ASSERT_GE(snaps.size(), 2u);
  expect_bitwise(ref, resume_from("mlp", "HyLo", fc, 4, snaps[0]),
                 "early resume");
  expect_bitwise(ref, resume_from("mlp", "HyLo", fc, 4, snaps[1]),
                 "late resume");
  fs::remove_all(dir);
}

TEST(Resume, BitwiseConvNet) {
  const std::string dir = tmp_dir("conv");
  const RunOut ref = run_reference("conv", "KFAC", std::nullopt, 2);
  RunOut with_snaps;
  const auto snaps = run_with_snapshots("conv", "KFAC", std::nullopt, 2, dir,
                                        3, &with_snaps);
  expect_bitwise(ref, with_snaps, "snapshotting run");
  ASSERT_GE(snaps.size(), 2u);
  for (const auto& snap : snaps)
    expect_bitwise(ref, resume_from("conv", "KFAC", std::nullopt, 2, snap),
                   "resume from " + snap);
  fs::remove_all(dir);
}

TEST(Resume, BitwiseConvNetUnderTransientFaults) {
  const std::string dir = tmp_dir("conv_faults");
  const auto fc = transient_faults();
  const RunOut ref = run_reference("conv", "KFAC", fc, 2);
  RunOut with_snaps;
  const auto snaps =
      run_with_snapshots("conv", "KFAC", fc, 2, dir, 3, &with_snaps);
  expect_bitwise(ref, with_snaps, "snapshotting run");
  ASSERT_GE(snaps.size(), 1u);
  expect_bitwise(ref, resume_from("conv", "KFAC", fc, 2, snaps.front()),
                 "resume");
  fs::remove_all(dir);
}

TEST(Resume, EveryOptimizerRoundTrips) {
  // The serialize_state chain covers momentum, Adam moments, KFAC /
  // EKFAC / KBFGS factor state, SNGD kernels, and HyLo's full switching
  // state (KFAC and HyLo are exercised by the tests above).
  for (const std::string optname :
       {"SGD", "ADAM", "EKFAC", "KBFGS-L", "SNGD"}) {
    const std::string dir = tmp_dir("opt_" + optname);
    const RunOut ref = run_reference("mlp", optname, std::nullopt, 2);
    RunOut with_snaps;
    const auto snaps = run_with_snapshots("mlp", optname, std::nullopt, 2,
                                          dir, 3, &with_snaps);
    expect_bitwise(ref, with_snaps, optname + " snapshotting run");
    ASSERT_GE(snaps.size(), 2u) << optname;
    expect_bitwise(ref, resume_from("mlp", optname, std::nullopt, 2, snaps[1]),
                   optname + " resume");
    fs::remove_all(dir);
  }
}

TEST(Resume, RejectsMismatchedConfiguration) {
  const std::string dir = tmp_dir("mismatch");
  RunOut with_snaps;
  const auto snaps = run_with_snapshots("mlp", "SGD", std::nullopt, 2, dir, 3,
                                        &with_snaps);
  ASSERT_GE(snaps.size(), 1u);
  const std::string snap = snaps.front();

  {  // different optimizer
    Rig s = make_rig("mlp", "ADAM");
    Trainer t(s.net, *s.opt, s.data, base_config(2));
    EXPECT_THROW(t.resume(snap), Error);
  }
  {  // different world
    Rig s = make_rig("mlp", "SGD");
    Trainer t(s.net, *s.opt, s.data, base_config(4));
    EXPECT_THROW(t.resume(snap), Error);
  }
  {  // different batch size
    Rig s = make_rig("mlp", "SGD");
    TrainConfig tc = base_config(2);
    tc.batch_size = 16;
    Trainer t(s.net, *s.opt, s.data, tc);
    EXPECT_THROW(t.resume(snap), Error);
  }
  {  // fault plan active on resume but absent at snapshot time
    Rig s = make_rig("mlp", "SGD");
    TrainConfig tc = base_config(2);
    tc.faults = transient_faults();
    Trainer t(s.net, *s.opt, s.data, tc);
    EXPECT_THROW(t.resume(snap), Error);
  }
  fs::remove_all(dir);
}

TEST(Resume, RunLogAppendsWithResumeRecord) {
  const std::string dir = tmp_dir("runlog");
  const std::string tele = dir + "/telemetry";

  RunOut interrupted;
  const auto snaps = [&] {
    Rig s = make_rig("mlp", "SGD");
    TrainConfig tc = base_config(2);
    tc.telemetry.dir = tele;
    tc.checkpoint.dir = dir + "/snaps";
    tc.checkpoint.every = 3;
    tc.checkpoint.keep = 0;
    Trainer t(s.net, *s.opt, s.data, tc);
    interrupted.result = t.run();
    return ckpt::list_snapshots(tc.checkpoint.dir);
  }();
  ASSERT_GE(snaps.size(), 1u);

  {
    Rig s = make_rig("mlp", "SGD");
    TrainConfig tc = base_config(2);
    tc.telemetry.dir = tele;
    tc.telemetry.append = true;  // continue the interrupted run's log
    Trainer t(s.net, *s.opt, s.data, tc);
    t.resume(snaps.front());
  }

  std::ifstream in(tele + "/run.jsonl");
  ASSERT_TRUE(in.good());
  int run_starts = 0, resumes = 0;
  std::int64_t resume_seq = -1;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const obs::Json rec = obs::Json::parse(line);
    const std::string type = rec.at("type").str();
    if (type == "run_start") ++run_starts;
    if (type == "resume") {
      ++resumes;
      resume_seq = static_cast<std::int64_t>(rec.at("seq").number());
      EXPECT_EQ(rec.at("path").str(), snaps.front());
      EXPECT_GE(rec.at("global_iter").number(), 1.0);
    }
  }
  EXPECT_EQ(run_starts, 1);  // append mode suppresses the second run_start
  EXPECT_EQ(resumes, 1);
  EXPECT_GE(resume_seq, 1);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Elastic world-shrink on permanent rank loss

FaultConfig rank_lost_only(std::uint64_t seed, double rate) {
  FaultConfig fc;
  fc.seed = seed;
  fc.rate = rate;
  fc.timeout_weight = 0.0;
  fc.straggler_weight = 0.0;
  fc.corrupt_weight = 0.0;
  fc.rank_down_weight = 0.0;
  fc.rank_lost_weight = 1.0;
  return fc;
}

TEST(ElasticWorld, CommSimCommitsPendingDeaths) {
  CommSim comm(4, loopback());
  comm.configure_faults(rank_lost_only(5, 1.0));  // every collective kills
  EXPECT_FALSE(comm.has_pending_shrinks());
  comm.charge_allreduce(1 << 20, "comm/grad_allreduce",
                        FailMode::kRetryUntilSuccess);
  ASSERT_TRUE(comm.has_pending_shrinks());
  EXPECT_EQ(comm.world(), 4);  // no shrink before the boundary commit
  const auto dead = comm.commit_shrinks();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(comm.world(), 3);
  EXPECT_EQ(comm.lost_ranks(), dead);
  EXPECT_FALSE(comm.has_pending_shrinks());
  EXPECT_EQ(
      comm.profiler().registry().counter_value("dist/elastic/world_shrinks"),
      1);
}

TEST(ElasticWorld, NeverShrinksBelowOneRank) {
  CommSim comm(2, loopback());
  comm.configure_faults(rank_lost_only(5, 1.0));
  for (int i = 0; i < 10; ++i) {
    comm.charge_allreduce(4096, "comm/grad_allreduce",
                          FailMode::kRetryUntilSuccess);
    comm.commit_shrinks();
  }
  EXPECT_EQ(comm.world(), 1);  // the last survivor is never killed
  EXPECT_EQ(comm.lost_ranks().size(), 1u);
}

TEST(ElasticWorld, StormShrinksWorldAndTrainingCompletes) {
  // A rank_lost storm: at least 25% of an 8-rank world dies permanently,
  // the world shrinks at iteration boundaries, gradient averaging reweights
  // to the survivors, and training still completes every epoch. The shrink
  // history is visible in the run log and the final fault summary.
  const std::string dir = tmp_dir("storm");
  Rig s = make_rig("mlp", "SGD");
  TrainConfig tc = base_config(8);
  tc.epochs = 2;
  tc.max_iters_per_epoch = 6;
  tc.faults = rank_lost_only(21, 0.45);
  tc.telemetry.dir = dir + "/telemetry";
  Trainer t(s.net, *s.opt, s.data, tc);
  const TrainResult res = t.run();

  ASSERT_EQ(res.epochs.size(), 2u);
  for (const auto& e : res.epochs) {
    EXPECT_TRUE(std::isfinite(e.train_loss));
    EXPECT_TRUE(std::isfinite(e.test_metric));
  }
  const index_t lost = 8 - t.world();
  EXPECT_GE(lost, 2) << "storm must kill >= 25% of the 8 ranks";
  const auto& reg = t.comm().profiler().registry();
  EXPECT_EQ(reg.counter_value("dist/elastic/world_shrinks"), lost);
  EXPECT_EQ(static_cast<index_t>(t.comm().lost_ranks().size()), lost);
  EXPECT_GT(reg.counter_value("dist/elastic/layer_migrations"), 0);

  // Run-log visibility: world_shrink records carry the dead ranks and the
  // surviving world; the final result record totals the shrinks.
  std::ifstream in(tc.telemetry.dir + "/run.jsonl");
  ASSERT_TRUE(in.good());
  index_t shrink_records = 0;
  bool saw_result = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const obs::Json rec = obs::Json::parse(line);
    const std::string type = rec.at("type").str();
    if (type == "world_shrink") {
      ++shrink_records;
      EXPECT_GE(rec.at("lost_ranks").size(), 1u);
      EXPECT_LT(rec.at("world").number(), 8.0);
    }
    if (type == "result") {
      saw_result = true;
      EXPECT_EQ(static_cast<index_t>(rec.at("world_shrinks").number()), lost);
      EXPECT_EQ(static_cast<index_t>(rec.at("final_world").number()),
                t.world());
    }
  }
  EXPECT_GE(shrink_records, 1);
  EXPECT_TRUE(saw_result);
  fs::remove_all(dir);
}

TEST(ElasticWorld, ResumeRestoresShrunkenWorld) {
  // Snapshot mid-storm and resume: the fault plan's draw cursor, the
  // shrunken world, and the loss history must restore so the continuation
  // is bitwise-identical to the uninterrupted elastic run.
  const std::string dir = tmp_dir("elastic_resume");
  const auto fc = rank_lost_only(21, 0.35);
  const RunOut ref = run_reference("mlp", "SGD", fc, 8);
  EXPECT_LT(ref.world, 8);  // the storm must actually shrink the world
  RunOut with_snaps;
  const auto snaps =
      run_with_snapshots("mlp", "SGD", fc, 8, dir, 2, &with_snaps);
  expect_bitwise(ref, with_snaps, "snapshotting elastic run");
  ASSERT_GE(snaps.size(), 2u);
  for (const auto& snap : snaps)
    expect_bitwise(ref, resume_from("mlp", "SGD", fc, 8, snap),
                   "elastic resume from " + snap);
  fs::remove_all(dir);
}

TEST(ElasticWorld, DisabledRankLostReplaysByteIdentically) {
  // A transient-only mix (rank_lost_weight == 0) must draw the exact same
  // schedule as before the rank_lost kind existed: runs with the default
  // mix never shrink and stay deterministic.
  const auto fc = transient_faults();
  const RunOut a = run_reference("mlp", "SGD", fc, 4);
  const RunOut b = run_reference("mlp", "SGD", fc, 4);
  expect_bitwise(a, b, "transient replay");
  EXPECT_EQ(a.world, 4);
}

// ---------------------------------------------------------------------------
// Adversarial input: every count, length, shape and pivot a snapshot
// supplies is checked before it is used. Each payload below is crafted
// field by field; the checks must throw hylo::Error naming the section and
// the field, never allocate the claimed size or index out of range.

ckpt::ByteReader reader_of(const ckpt::ByteWriter& w) {
  return ckpt::ByteReader(w.bytes().data(), w.size(), "crafted");
}

// Loads `v` from `w`'s bytes; returns the error it raised ("" if none).
template <typename T>
std::string load_error(const ckpt::ByteWriter& w, T& v) {
  ckpt::ByteReader r = reader_of(w);
  ckpt::Archive ar = r;
  try {
    ar(v, "target");
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SnapshotArchive, MatrixShapeCannotWrap) {
  // 8 * 2^61 * 8 wraps to 0 in u64: the shape check must not multiply. An
  // empty matrix with a huge dimension is refused as well.
  const std::uint64_t huge = std::uint64_t{1} << 61;
  for (const auto& [rows, cols] :
       {std::pair{huge, std::uint64_t{8}}, std::pair{huge, std::uint64_t{0}},
        std::pair{std::uint64_t{0}, huge}}) {
    ckpt::ByteWriter w;
    ckpt::Archive ar = w;
    std::uint64_t r = rows, c = cols, pad = 0;
    ar(r, "rows");
    ar(c, "cols");
    ar(pad, "pad");
    Matrix m;
    const std::string err = load_error(w, m);
    EXPECT_NE(err.find("'crafted'"), std::string::npos) << rows << "x" << cols;
    EXPECT_NE(err.find("'target'"), std::string::npos) << err;
  }
}

TEST(SnapshotArchive, VectorLengthsCannotWrap) {
  // 8 * (2^61 + 1) wraps to 8: with 8 bytes left the old check passed and
  // the allocation threw std::length_error.
  ckpt::ByteWriter w;
  ckpt::Archive ar = w;
  std::uint64_t n = (std::uint64_t{1} << 61) + 1, pad = 0;
  ar(n, "n");
  ar(pad, "pad");
  std::vector<real_t> reals;
  std::vector<index_t> indices;
  std::string str;
  EXPECT_NE(load_error(w, reals), "");
  EXPECT_NE(load_error(w, indices), "");
  EXPECT_NE(load_error(w, str), "");
}

TEST(SnapshotArchive, OptimizerLayerCountIsBounded) {
  // A KFAC section claiming 2^40 curvature layers: the old reader resized
  // its layer table to that count (std::bad_alloc).
  Network net = make_mlp({2, 1, 1}, {4}, 3, 1);
  KFac fresh(OptimConfig{});
  ckpt::ByteWriter w;
  fresh.Optimizer::serialize_state(net, w);  // the momentum prefix
  ckpt::Archive ar = w;
  std::uint64_t layers = std::uint64_t{1} << 40, pad = 0;
  ar(layers, "layers");
  ar(pad, "pad");
  KFac loaded(OptimConfig{});
  ckpt::ByteReader r = reader_of(w);
  try {
    loaded.serialize_state(net, r);
    FAIL() << "2^40 layers accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'layers'"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotArchive, TimelineWorldIsBounded) {
  ckpt::ByteWriter w;
  ckpt::Archive ar = w;
  std::uint64_t world = std::uint64_t{1} << 40, pad = 0;
  ar(world, "world");
  ar(pad, "pad");
  EventTimeline tl(2);
  ckpt::ByteReader r = reader_of(w);
  EXPECT_THROW(tl.serialize(r), Error);
  EXPECT_EQ(tl.world(), 2);  // refused before anything changed size
}

TEST(SnapshotArchive, HyloHistoryCountsAreBounded) {
  // Mode, switch and Δ histories: each count in turn claims 2^40 entries
  // after the ones before it hold zero.
  Network net = make_mlp({2, 1, 1}, {4}, 3, 1);
  for (int bad = 0; bad < 3; ++bad) {
    HyloOptimizer fresh(OptimConfig{});
    ckpt::ByteWriter w;
    fresh.CurvatureOptimizer::serialize_state(net, w);
    ckpt::Archive ar = w;
    std::uint8_t policy = 0, mode = 0;
    ar(policy, "policy");
    ar(mode, "mode");
    for (int k = 0; k <= bad; ++k) {
      std::uint64_t count = k == bad ? std::uint64_t{1} << 40 : 0;
      ar(count, "count");
    }
    std::uint64_t pad = 0;
    ar(pad, "pad");
    HyloOptimizer loaded(OptimConfig{});
    ckpt::ByteReader r = reader_of(w);
    EXPECT_THROW(loaded.serialize_state(net, r), Error) << "count " << bad;
  }
}

// Exposes a method's layer state so a test can hand-build one.
template <typename Method>
struct Probe : Method {
  using Method::Method;
  using typename Method::State;
};

// An optimizer section in which a fresh `Method` on `net` serves `st` at
// layer 0 with nothing in flight. The momentum prefix and the method's own
// trailing fields (HyLo's switching state) come from the fresh optimizer.
template <typename Method>
ckpt::ByteWriter served_section(Network& net,
                                CurvatureOptimizer::LayerState& st) {
  Method fresh(OptimConfig{});
  ckpt::ByteWriter momentum, curvature, full, w;
  fresh.Optimizer::serialize_state(net, momentum);
  fresh.CurvatureOptimizer::serialize_state(net, curvature);
  fresh.serialize_state(net, full);
  w.raw(momentum.bytes().data(), momentum.size());
  ckpt::Archive ar = w;
  std::uint64_t layers = 1, in_flight = 0;
  index_t staleness = 0;
  bool ready = true;
  ar(layers, "layers");
  ar(staleness, "staleness");
  ar(ready, "ready");
  st.serialize(w);
  ar(in_flight, "in_flight");
  w.raw(full.bytes().data() + curvature.size(), full.size() - curvature.size());
  return w;
}

// A KID layer of a 2->3 linear head (w is 3x3) at rank 2 whose LU carries
// `piv`.
Probe<HyloOptimizer>::State kid_state(std::vector<index_t> piv) {
  Probe<HyloOptimizer>::State st;
  st.a_s = Matrix{{1, 0, 1}, {0, 1, 1}};
  st.g_s = Matrix{{1, 0, 0}, {0, 1, 0}};
  st.kid_middle.lu = Matrix{{2, 0}, {0, 2}};
  st.kid_middle.piv = std::move(piv);
  return st;
}

TEST(SnapshotArchive, HyloPivotsAreRangeChecked) {
  // lu_solve swaps row r with row piv[r]; an unchecked pivot of 5 in a
  // rank-2 LU made HyloOptimizer::preconditioned write out of bounds.
  Network net = make_mlp({2, 1, 1}, {}, 3, 1);
  const Matrix grad(3, 3, 1.0);
  for (const std::vector<index_t>& piv :
       {std::vector<index_t>{0, 5}, std::vector<index_t>{1, 0},
        std::vector<index_t>{0, -1}, std::vector<index_t>{0}}) {
    HyloOptimizer loaded(OptimConfig{});
    auto st = kid_state(piv);
    const ckpt::ByteWriter w = served_section<HyloOptimizer>(net, st);
    ckpt::ByteReader r = reader_of(w);
    try {
      loaded.serialize_state(net, r);
      FAIL() << "pivots accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'kid_middle.piv'"),
                std::string::npos)
          << e.what();
    }
  }
  // What lu_factor produces loads and preconditions.
  HyloOptimizer loaded(OptimConfig{});
  auto st = kid_state({1, 1});
  const ckpt::ByteWriter w = served_section<HyloOptimizer>(net, st);
  ckpt::ByteReader r = reader_of(w);
  loaded.serialize_state(net, r);
  r.expect_done();
  EXPECT_EQ(loaded.preconditioned(grad, 0).rows(), 3);
}

// Loads `st` as the served state of a fresh `Method` on a 2->3 linear head
// and runs one step: it must throw hylo::Error, not index out of bounds.
template <typename Method>
void expect_step_rejects(CurvatureOptimizer::LayerState& st) {
  Network net = make_mlp({2, 1, 1}, {}, 3, 1);
  const ckpt::ByteWriter w = served_section<Method>(net, st);
  ckpt::ByteReader r = reader_of(w);
  Method loaded(OptimConfig{});
  loaded.serialize_state(net, r);
  r.expect_done();
  net.param_blocks().front()->gw = Matrix(3, 3, 1.0);
  EXPECT_THROW(loaded.step(net, 0), Error) << loaded.name();
}

TEST(SnapshotArchive, ServedShapesAreCheckedBeforeUse) {
  // Shapes that agree with the payload but not with each other or the
  // layer: the kernels that index by them must refuse them.
  Probe<EKFac>::State ekfac;  // scaling disagrees with the eigenbases
  ekfac.a_factor = ekfac.v_a = Matrix(3, 3, 1.0);
  ekfac.g_factor = ekfac.v_g = Matrix(3, 3, 1.0);
  ekfac.scaling = Matrix(1, 1, 1.0);
  expect_step_rejects<EKFac>(ekfac);

  Probe<KBfgs>::State kbfgs;  // (s, y) pairs shorter than the gradient
  kbfgs.a_factor = kbfgs.a_inv = kbfgs.g_factor = Matrix(3, 3, 1.0);
  kbfgs.g_mean_prev = Matrix(3, 1, 1.0);
  kbfgs.sy_pairs.emplace_back(std::vector<real_t>{1.0},
                              std::vector<real_t>{1.0});
  expect_step_rejects<KBfgs>(kbfgs);

  Probe<Sngd>::State sngd;  // a non-square Cholesky factor
  sngd.a_glob = sngd.g_glob = Matrix(2, 3, 1.0);
  sngd.kernel_chol = Matrix(2, 1, 1.0);
  expect_step_rejects<Sngd>(sngd);

  Probe<HyloOptimizer>::State kis;  // the same for HyLo's KIS factor
  kis.mode = HyloMode::kKis;
  kis.a_s = kis.g_s = Matrix(2, 3, 1.0);
  kis.kis_chol = Matrix(2, 1, 1.0);
  expect_step_rejects<HyloOptimizer>(kis);
}

// A snapshot's sections in file order, as raw payloads, so a test can
// damage one and write the file back with every CRC recomputed.
struct RawSnapshot {
  std::vector<std::string> names;
  std::vector<std::vector<unsigned char>> payloads;
};

RawSnapshot read_raw(const std::string& path) {
  const ckpt::SnapshotReader snap(path);
  RawSnapshot raw;
  for (const std::string& name : snap.names()) {
    ckpt::ByteReader r = snap.open(name);
    std::vector<unsigned char> payload(r.remaining());
    r.take(payload.data(), payload.size(), "payload");
    raw.names.push_back(name);
    raw.payloads.push_back(std::move(payload));
  }
  return raw;
}

void write_raw(const RawSnapshot& raw, const std::string& path) {
  ckpt::SnapshotWriter snap;
  for (std::size_t i = 0; i < raw.names.size(); ++i)
    snap.section(raw.names[i]).raw(raw.payloads[i].data(),
                                   raw.payloads[i].size());
  snap.write(path);
}

std::size_t section_index(const RawSnapshot& raw, const std::string& name) {
  for (std::size_t i = 0; i < raw.names.size(); ++i)
    if (raw.names[i] == name) return i;
  ADD_FAILURE() << "no section " << name;
  return 0;
}

// A tiny MLP run with every environment-overridable setting pinned, so
// ckpt_env_suite's ambient HYLO_FAULTS / HYLO_CKPT_* change nothing.
TrainConfig pinned_config(CommMode mode, const FaultConfig& faults) {
  TrainConfig tc = base_config(2);
  tc.comm_mode = mode;
  tc.faults = faults;
  tc.health = obs::HealthConfig{};
  tc.recovery = RecoveryConfig{};
  return tc;
}

TEST(Resume, RejectsCraftedOversizedTimeline) {
  // A CRC-valid snapshot whose timeline claims 2^40 ranks: the old reader
  // allocated that many clocks and Trainer::resume threw std::bad_alloc.
  const std::string dir = tmp_dir("crafted");
  {
    Rig s = make_rig("mlp", "KFAC");
    TrainConfig tc = pinned_config(CommMode::kAsync, FaultConfig{});
    tc.checkpoint.dir = dir;
    tc.checkpoint.every = 3;
    tc.checkpoint.keep = 0;
    Trainer(s.net, *s.opt, s.data, tc).run();
  }
  const auto snaps = ckpt::list_snapshots(dir);
  ASSERT_FALSE(snaps.empty());
  RawSnapshot raw = read_raw(snaps.front());
  auto& timeline = raw.payloads[section_index(raw, "timeline")];
  const std::uint64_t world = std::uint64_t{1} << 40;
  std::memcpy(timeline.data(), &world, sizeof(world));
  const std::string crafted = dir + "/crafted.hysnp";
  write_raw(raw, crafted);

  Rig s = make_rig("mlp", "KFAC");
  Trainer t(s.net, *s.opt, s.data,
            pinned_config(CommMode::kAsync, FaultConfig{}));
  try {
    t.resume(crafted);
    FAIL() << "crafted timeline accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'timeline'"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

// Seeded snapshot mutation fuzz. Real snapshots of a tiny MLP run, for
// every optimizer in lockstep and on the async timeline under transient
// faults (a snapshot every iteration, so timeline and faults sections and
// in-flight chains are present), are damaged one section at a time and
// written back with that section's CRC recomputed, so the section parser
// sees the damage. Each mutation is a bit flip, an adversarial u64 at an
// 8-aligned offset, or a truncation. Trainer::resume must return or throw
// hylo::Error; a crash, a sanitizer report or any other exception fails.
TEST(SnapshotFuzz, MutatedSnapshotsResumeOrThrowHyloError) {
  const std::uint64_t adversarial[] = {0,
                                       1,
                                       std::uint64_t{1} << 31,
                                       std::uint64_t{1} << 40,
                                       (std::uint64_t{1} << 61) + 1,
                                       std::uint64_t{1} << 63,
                                       ~std::uint64_t{0}};
  const std::string dir = tmp_dir("fuzz");
  Rng rng(2024);
  int errors = 0, resumed = 0;
  bool saw_in_flight = false;
  for (const std::string optname :
       {"SGD", "ADAM", "KFAC", "EKFAC", "KBFGS-L", "SNGD", "HyLo"}) {
    for (const bool async : {false, true}) {
      const TrainConfig tc = pinned_config(
          async ? CommMode::kAsync : CommMode::kLockstep,
          async ? transient_faults() : FaultConfig{});
      const std::string snap_dir = dir + "/" + optname + (async ? "_a" : "_l");
      {
        Rig s = make_rig("mlp", optname);
        TrainConfig snap_cfg = tc;
        snap_cfg.checkpoint.dir = snap_dir;
        snap_cfg.checkpoint.every = 1;
        snap_cfg.checkpoint.keep = 0;
        Trainer(s.net, *s.opt, s.data, snap_cfg).run();
      }
      const auto snaps = ckpt::list_snapshots(snap_dir);
      ASSERT_FALSE(snaps.empty()) << optname;
      for (const auto& path : snaps) {
        Rig s = make_rig("mlp", optname);
        const ckpt::SnapshotReader snap(path);
        ckpt::ByteReader r = snap.open("optimizer");
        s.opt->serialize_state(s.net, r);
        if (auto* curv = dynamic_cast<CurvatureOptimizer*>(s.opt.get()))
          saw_in_flight = saw_in_flight || curv->async_pending() > 0;
      }
      for (int k = 0; k < 40; ++k) {
        const auto& path =
            snaps[static_cast<std::size_t>(rng.uniform_int(
                static_cast<index_t>(snaps.size())))];
        RawSnapshot raw = read_raw(path);
        const std::size_t sec = static_cast<std::size_t>(
            rng.uniform_int(static_cast<index_t>(raw.names.size())));
        auto& payload = raw.payloads[sec];
        std::string what = raw.names[sec];
        const index_t kind = rng.uniform_int(3);
        if (payload.empty() || kind == 2) {
          payload.resize(static_cast<std::size_t>(
              rng.uniform_int(static_cast<index_t>(payload.size()) + 1)));
          what += " truncated to " + std::to_string(payload.size());
        } else if (kind == 0) {
          const auto bit = static_cast<std::size_t>(
              rng.uniform_int(static_cast<index_t>(payload.size() * 8)));
          payload[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
          what += " bit " + std::to_string(bit);
        } else if (payload.size() >= 8) {
          const auto at = 8 * static_cast<std::size_t>(rng.uniform_int(
                                  static_cast<index_t>(payload.size() / 8)));
          const std::uint64_t v = adversarial[rng.uniform_int(7)];
          std::memcpy(payload.data() + at, &v, sizeof(v));
          what += " u64 " + std::to_string(v) + " at " + std::to_string(at);
        }
        const std::string mutated = snap_dir + "/mutated.hysnp";
        write_raw(raw, mutated);
        Rig s = make_rig("mlp", optname);
        Trainer t(s.net, *s.opt, s.data, tc);
        try {
          t.resume(mutated);
          ++resumed;
        } catch (const Error&) {
          ++errors;
        } catch (const std::exception& e) {
          ADD_FAILURE() << optname << " " << path << " " << what
                        << ": non-hylo exception " << e.what();
        }
      }
    }
  }
  EXPECT_TRUE(saw_in_flight);
  // Both outcomes occur: the mutations reach the checks and get past them.
  EXPECT_GT(errors, 0);
  EXPECT_GT(resumed, 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hylo
