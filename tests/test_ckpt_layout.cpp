// hylo::ckpt — the on-disk layout of every persisted state, pinned.
//
// Each state below is built by hand with exact values (dyadic fractions and
// small integers, so no libm call and no kernel tier changes a bit) and
// serialized through its one field list; the CRC-32 of the bytes must match
// the value the pinned layout produces. Round-trip tests cannot see a field
// moved in a list that both saves and loads, so a reorder that keeps
// kSnapshotVersion fails here instead of silently breaking old snapshots.
//
// Env-proofing: the trainer here pins its comm mode, faults, checkpoint
// cadence, health and recovery configs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "hylo/hylo.hpp"

namespace hylo {
namespace {

std::uint32_t crc_of(const std::function<void(ckpt::ByteWriter&)>& fields) {
  ckpt::ByteWriter w;
  fields(w);
  return ckpt::crc32(w.bytes().data(), w.size());
}

// rows x cols of base, base + 1/8, base + 2/8, ... (row-major).
Matrix ramp(index_t rows, index_t cols, real_t base) {
  Matrix m(rows, cols);
  for (index_t i = 0; i < m.size(); ++i) m.data()[i] = base + 0.125 * i;
  return m;
}

std::vector<real_t> ramp_vec(std::size_t n, real_t base) {
  std::vector<real_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + 0.125 * i;
  return v;
}

// A method whose refreshes produce hand-built states of its own type: each
// build() fills one layer's candidate through `fill(state, refresh)` and
// publishes it by one allreduce.
template <typename Method>
struct Scripted : Method {
  using State = typename Method::State;
  using Fill = std::function<void(State&, int)>;

  explicit Scripted(Fill fill)
      : Method(OptimConfig{}), fill_(std::move(fill)) {}

  std::vector<CurvatureOptimizer::Candidate> build(const CaptureSet& /*cap*/,
                                                   CommSim* /*comm*/) override {
    auto st = std::make_unique<State>();
    fill_(*st, refresh_++);
    std::vector<CurvatureOptimizer::Candidate> out(1);
    out[0].collectives.push_back(
        CurvatureOptimizer::Collective::allreduce(st->scalars(), {}));
    out[0].state = std::move(st);
    return out;
  }

  Fill fill_;
  int refresh_ = 0;
};

// A capture of one layer on one rank; Scripted::build ignores its contents.
CaptureSet one_layer_capture() {
  CaptureSet cap;
  cap.a = {{Matrix()}};
  cap.g = {{Matrix()}};
  return cap;
}

// Refresh 0 commits (no communicator); refresh 1 goes out on an async
// timeline and stays in flight. Returns the optimizer section's CRC and the
// served state's own.
template <typename Method>
std::pair<std::uint32_t, std::uint32_t> pinned_curvature(
    typename Scripted<Method>::Fill fill) {
  Network net = make_mlp({2, 1, 1}, {}, 3, 1);
  Scripted<Method> opt(std::move(fill));
  const CaptureSet cap = one_layer_capture();
  opt.update_curvature(net.param_blocks(), cap, nullptr);
  CommSim comm(2, mist_v100());
  comm.set_mode(CommMode::kAsync);
  opt.update_curvature(net.param_blocks(), cap, &comm);
  EXPECT_EQ(opt.async_pending(), 1);
  typename Scripted<Method>::State served;
  opt.fill_(served, 0);
  return {crc_of([&](ckpt::ByteWriter& w) { opt.serialize_state(net, w); }),
          crc_of([&](ckpt::ByteWriter& w) { served.serialize(w); })};
}

TEST(SnapshotLayout, LayerStatesAndCurvatureOptimizers) {
  const auto kfac = pinned_curvature<KFac>([](auto& st, int k) {
    st.a_factor = ramp(3, 3, 1.0 + k);
    st.g_factor = ramp(3, 3, 2.0 + k);
    st.a_inv = ramp(3, 3, 3.0 + k);
    st.g_inv = ramp(3, 3, 4.0 + k);
  });
  const auto ekfac = pinned_curvature<EKFac>([](auto& st, int k) {
    st.a_factor = ramp(3, 3, 1.0 + k);
    st.g_factor = ramp(3, 3, 2.0 + k);
    st.v_a = ramp(3, 3, 3.0 + k);
    st.v_g = ramp(3, 3, 4.0 + k);
    st.scaling = ramp(3, 3, 5.0 + k);
  });
  const auto kbfgs = pinned_curvature<KBfgs>([](auto& st, int k) {
    st.a_factor = ramp(3, 3, 1.0 + k);
    st.a_inv = ramp(3, 3, 2.0 + k);
    st.g_factor = ramp(3, 3, 3.0 + k);
    st.g_mean_prev = ramp(3, 1, 4.0 + k);
    st.sy_pairs.emplace_back(ramp_vec(9, 5.0 + k), ramp_vec(9, 6.0 + k));
    st.sy_pairs.emplace_back(ramp_vec(9, 7.0 + k), ramp_vec(9, 8.0 + k));
    st.h0_scale = 0.5 + k;
  });
  const auto sngd = pinned_curvature<Sngd>([](auto& st, int k) {
    st.a_glob = ramp(2, 3, 1.0 + k);
    st.g_glob = ramp(2, 3, 2.0 + k);
    st.kernel_chol = ramp(2, 2, 3.0 + k);
  });
  const auto hylo = pinned_curvature<HyloOptimizer>([](auto& st, int k) {
    st.mode = k == 0 ? HyloMode::kKid : HyloMode::kKis;
    st.a_s = ramp(2, 3, 1.0 + k);
    st.g_s = ramp(2, 3, 2.0 + k);
    if (k == 0) {
      st.kid_middle.lu = ramp(2, 2, 3.0);
      st.kid_middle.piv = {1, 1};
    } else {
      st.kis_chol = ramp(2, 2, 4.0);
    }
  });
  EXPECT_EQ(kfac.second, 2301397052u) << "KFac::State";
  EXPECT_EQ(kfac.first, 3983264311u) << "KFAC optimizer";
  EXPECT_EQ(ekfac.second, 3149242145u) << "EKFac::State";
  EXPECT_EQ(ekfac.first, 3744428455u) << "EKFAC optimizer";
  EXPECT_EQ(kbfgs.second, 3752955261u) << "KBfgs::State";
  EXPECT_EQ(kbfgs.first, 3602129527u) << "KBFGS-L optimizer";
  EXPECT_EQ(sngd.second, 3771996082u) << "Sngd::State";
  EXPECT_EQ(sngd.first, 3831033884u) << "SNGD optimizer";
  EXPECT_EQ(hylo.second, 968736674u) << "HyloOptimizer::State";
  EXPECT_EQ(hylo.first, 3031746961u) << "HyLo curvature";
}

TEST(SnapshotLayout, HyloSwitchingState) {
  // Two epochs of the KIS-always policy around one accumulated gradient
  // whose norm is exactly 5, on top of a served and an in-flight layer.
  Network net = make_mlp({2, 1, 1}, {}, 3, 1);
  Scripted<HyloOptimizer> opt([](auto& st, int k) {
    st.mode = HyloMode::kKis;
    st.a_s = ramp(1, 3, 1.0 + k);
    st.g_s = ramp(1, 3, 2.0 + k);
    st.kis_chol = ramp(1, 1, 3.0 + k);
  });
  opt.set_policy(HyloOptimizer::Policy::kAlwaysKis);
  opt.begin_epoch(0, false);
  ParamBlock* pb = net.param_blocks().front();
  pb->gw = Matrix(3, 3);
  pb->gw(0, 0) = 3.0;
  pb->gw(1, 0) = 4.0;
  opt.accumulate_gradient(net.param_blocks());
  opt.begin_epoch(1, true);
  opt.update_curvature(net.param_blocks(), one_layer_capture(), nullptr);
  EXPECT_EQ(opt.delta_norm_history(), std::vector<real_t>{5.0});
  EXPECT_EQ(
      crc_of([&](ckpt::ByteWriter& w) { opt.serialize_state(net, w); }),
      3375836124u);
}

// A 2-channel BatchNorm (plain params + running stats) feeding a 2->3
// linear head, every value set by hand.
Network pinned_network() {
  Network net;
  const int x = net.add_input({2, 1, 1});
  auto bn = std::make_unique<BatchNorm2d>();
  BatchNorm2d* stats = bn.get();
  const int y = net.add(std::move(bn), x);
  Rng rng(1);
  net.add(std::make_unique<Linear>(3, rng), y);
  net.param_blocks().front()->w = ramp(3, 3, 1.0);
  real_t v = 2.0;
  for (auto pp : net.plain_params())
    for (real_t& p : *pp.value) p = (v += 0.25);
  for (auto* state : stats->mutable_state())
    for (real_t& s : *state) s = (v += 0.5);
  return net;
}

// Exact gradients for every parameter of pinned_network().
void set_gradients(Network& net) {
  net.param_blocks().front()->gw = ramp(3, 3, -1.0);
  real_t g = 0.5;
  for (auto pp : net.plain_params())
    for (real_t& p : *pp.grad) p = (g += 0.25);
}

TEST(SnapshotLayout, NetworkAndFirstOrderOptimizers) {
  Network net = pinned_network();
  EXPECT_EQ(crc_of([&](ckpt::ByteWriter& w) { net.serialize_state(w); }),
            2630519032u)
      << "network";

  OptimConfig oc;
  oc.lr = 0.5;
  oc.momentum = 0.5;
  Sgd sgd(oc);
  set_gradients(net);
  sgd.step(net, 0);
  EXPECT_EQ(crc_of([&](ckpt::ByteWriter& w) { sgd.serialize_state(net, w); }),
            2351721390u)
      << "SGD";

  // Adam's moments are products of the exact gradients; its weight update
  // (pow, sqrt) changes no byte of its section.
  Network adam_net = pinned_network();
  Adam adam(oc);
  set_gradients(adam_net);
  adam.step(adam_net, 0);
  EXPECT_EQ(
      crc_of([&](ckpt::ByteWriter& w) { adam.serialize_state(adam_net, w); }),
      2425775241u)
      << "ADAM";
}

TEST(SnapshotLayout, TimelineAndRngState) {
  EventTimeline tl(3);
  tl.advance(1, 0.75);
  tl.issue("comm/gather", 0.5, 1.5, false);
  EXPECT_EQ(crc_of([&](ckpt::ByteWriter& w) { tl.serialize(w); }),
            3366504501u)
      << "timeline";

  Rng rng(1);
  Rng::State st;
  st.s[0] = 1;
  st.s[1] = 2;
  st.s[2] = 3;
  st.s[3] = 4;
  st.have_cached_normal = true;
  st.cached_normal = 0.625;
  rng.set_state(st);
  EXPECT_EQ(crc_of([&](ckpt::ByteWriter& w) {
              ckpt::Archive ar = w;
              ar(rng, "rng");
            }),
            915779559u)
      << "rng";
}

TEST(SnapshotLayout, TrainerSections) {
  // Recovery pins a snapshot at iteration 0, before any training step: its
  // meta, progress, faults and timeline sections depend on the config
  // alone. (network and optimizer hold initial weights and empty state;
  // clock holds measured seconds.)
  namespace fs = std::filesystem;
  const std::string dir = "/tmp/hylo_test_ckpt_layout_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  const DataSplit data = make_spirals(64, 16, 3, 0.05, 7);
  Network net = make_mlp({2, 1, 1}, {8}, 3, 7);
  auto opt = make_optimizer("HyLo", OptimConfig{});
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  tc.world = 4;
  tc.max_iters_per_epoch = 1;
  tc.data_seed = 11;
  tc.comm_mode = CommMode::kAsync;
  FaultConfig fc;
  fc.seed = 13;
  fc.rate = 0.25;
  tc.faults = fc;
  tc.checkpoint.dir = dir;
  tc.checkpoint.every = 1000;
  tc.health = obs::HealthConfig{};
  RecoveryConfig rc;
  rc.enabled = true;
  tc.recovery = rc;
  Trainer(net, *opt, data, tc).run();

  const ckpt::SnapshotReader snap(dir + "/snapshot-00000000.hysnp");
  ASSERT_EQ(snap.names(),
            (std::vector<std::string>{"meta", "network", "optimizer",
                                      "progress", "clock", "timeline",
                                      "faults"}));
  const std::pair<const char*, std::uint32_t> pinned[] = {
      {"meta", 370930999u},
      {"progress", 3553142089u},
      {"faults", 1397186694u},
      {"timeline", 3665625025u}};
  for (const auto& [name, crc] : pinned) {
    ckpt::ByteReader r = snap.open(name);
    std::vector<unsigned char> payload(r.remaining());
    r.take(payload.data(), payload.size(), "payload");
    EXPECT_EQ(ckpt::crc32(payload.data(), payload.size()), crc) << name;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hylo
