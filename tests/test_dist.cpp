// Cost model, simulated collectives and the modeled wire precision.
#include <gtest/gtest.h>

#include "hylo/hylo.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

TEST(CostModel, ZeroAtWorldOne) {
  const auto m = mist_v100();
  EXPECT_EQ(allreduce_seconds(m, 1, 1 << 20), 0.0);
  EXPECT_EQ(allgather_seconds(m, 1, 1 << 20), 0.0);
  EXPECT_EQ(broadcast_seconds(m, 1, 1 << 20), 0.0);
}

TEST(CostModel, AllreduceRingScaling) {
  const auto m = mist_v100();
  // Ring allreduce: 2(P-1)/P * bytes / BW + 2(P-1) * alpha. For large byte
  // counts the bandwidth term dominates and is nearly P-independent.
  const index_t big = 512 << 20;
  const double t8 = allreduce_seconds(m, 8, big);
  const double t64 = allreduce_seconds(m, 64, big);
  EXPECT_GT(t64, t8);
  EXPECT_LT(t64 / t8, 1.25);  // within the 2(P-1)/P asymptote
}

TEST(CostModel, AllgatherGrowsLinearlyInWorld) {
  const auto m = mist_v100();
  const double t4 = allgather_seconds(m, 4, 1 << 20);
  const double t16 = allgather_seconds(m, 16, 1 << 20);
  EXPECT_NEAR(t16 / t4, 5.0, 0.01);  // (16-1)/(4-1)
}

TEST(CostModel, BroadcastLogarithmic) {
  const auto m = mist_v100();
  const double t8 = broadcast_seconds(m, 8, 1 << 20);
  const double t64 = broadcast_seconds(m, 64, 1 << 20);
  EXPECT_NEAR(t64 / t8, 2.0, 0.01);  // log2(64)/log2(8)
}

TEST(CostModel, LatencyDominatesSmallMessages) {
  const auto m = aws_p2_k80();
  const double tiny = allreduce_seconds(m, 8, 8);
  EXPECT_GT(tiny, 2.0 * 7.0 * m.latency_s * 0.99);
}

TEST(CostModel, PresetsAreOrdered) {
  // NVLink/IB preset must be faster than the K80 PCIe preset.
  EXPECT_GT(mist_v100().bandwidth_bps, aws_p2_k80().bandwidth_bps);
  EXPECT_LT(mist_v100().latency_s, aws_p2_k80().latency_s);
}

TEST(CostModel, MonotoneInWorldAndBytes) {
  const auto m = mist_v100();
  for (index_t world = 2; world <= 64; world *= 2) {
    for (index_t bytes = 64; bytes <= (1 << 22); bytes *= 64) {
      // Strictly increasing in world at fixed bytes...
      EXPECT_GT(allreduce_seconds(m, world * 2, bytes),
                allreduce_seconds(m, world, bytes));
      EXPECT_GT(allgather_seconds(m, world * 2, bytes),
                allgather_seconds(m, world, bytes));
      EXPECT_GT(broadcast_seconds(m, world * 2, bytes),
                broadcast_seconds(m, world, bytes));
      // ...and in bytes at fixed world.
      EXPECT_GT(allreduce_seconds(m, world, bytes * 2),
                allreduce_seconds(m, world, bytes));
      EXPECT_GT(allgather_seconds(m, world, bytes * 2),
                allgather_seconds(m, world, bytes));
      EXPECT_GT(broadcast_seconds(m, world, bytes * 2),
                broadcast_seconds(m, world, bytes));
    }
  }
}

TEST(CostModel, LoopbackIsEffectivelyFree) {
  // Near-zero latency, huge bandwidth: even a 1 GiB collective at high P
  // models out to well under a microsecond.
  const auto m = loopback();
  EXPECT_LT(allreduce_seconds(m, 64, 1 << 30), 1e-6);
  EXPECT_LT(allgather_seconds(m, 64, 1 << 30), 1e-6);
  EXPECT_LT(broadcast_seconds(m, 64, 1 << 30), 1e-6);
}

TEST(CostModel, ReduceEqualsBroadcastByIntention) {
  // The binomial reduce tree moves the same bytes over the same log2(P)
  // levels in the opposite direction, and the α-β model is
  // direction-agnostic — documented equality, locked in here.
  for (const auto& m : {mist_v100(), aws_p2_k80()})
    for (index_t world : {2, 5, 16, 64})
      for (index_t bytes : {0, 1 << 10, 1 << 24})
        EXPECT_EQ(reduce_seconds(m, world, bytes),
                  broadcast_seconds(m, world, bytes));
}

TEST(CostModel, RetrySecondsShape) {
  const auto m = mist_v100();
  const double base = allgather_seconds(m, 8, 1 << 16);
  EXPECT_EQ(retry_seconds(m, base, 0), 0.0);
  // Each lost attempt burns at least the full collective plus backoff, and
  // the doubling backoff makes the total superlinear.
  double prev = 0.0;
  for (int k = 1; k <= 6; ++k) {
    const double t = retry_seconds(m, base, k);
    EXPECT_GT(t, prev + base);
    prev = t;
  }
  EXPECT_GT(retry_seconds(m, base, 4), 2.0 * retry_seconds(m, base, 2));
  EXPECT_THROW(retry_seconds(m, -1.0, 1), Error);
  EXPECT_THROW(retry_seconds(m, base, -1), Error);
}

TEST(CommSim, AllgatherMixedRowsStackAndHandComputedWireBytes) {
  // Three ranks with different local-batch row counts (1, 2 and 3 rows of
  // 2 FP32 values). The wire ledger must count the ring total: every rank
  // receives every *other* rank's block, so bytes = (world-1) * sum_r
  // bytes_r — not one rank's payload.
  CommSim comm(3, mist_v100());
  comm.charge_allgather(std::vector<index_t>{8, 16, 24}, "comm/gather");
  // Hand-computed: (3-1) * (8+16+24) = 96 bytes, one message.
  const auto& reg = comm.profiler().registry();
  EXPECT_EQ(reg.counter_value("comm/gather.bytes"), 96);
  EXPECT_EQ(reg.counter_value("comm/gather.msgs"), 1);
  // The latency term follows the slowest (largest) rank's block.
  EXPECT_NEAR(comm.comm_seconds(), allgather_seconds(mist_v100(), 3, 24),
              1e-15);
}

TEST(CommSim, ScalarAllgatherLedgerMatchesUniformVector) {
  // The scalar overload (uniform bytes_per_rank) must charge exactly what
  // the per-rank vector overload charges for equal entries:
  // (world-1) * world * b.
  CommSim uniform(4, mist_v100());
  uniform.charge_allgather(100, "comm/gather");
  CommSim vec(4, mist_v100());
  vec.charge_allgather(std::vector<index_t>{100, 100, 100, 100},
                       "comm/gather");
  EXPECT_EQ(uniform.profiler().registry().counter_value("comm/gather.bytes"),
            4 * 3 * 100 / 4 * 4);  // (world-1)*world*b = 1200
  EXPECT_EQ(uniform.profiler().registry().counter_value("comm/gather.bytes"),
            vec.profiler().registry().counter_value("comm/gather.bytes"));
  EXPECT_EQ(uniform.comm_seconds(), vec.comm_seconds());
}

TEST(CommSim, CommSecondsCountsOnlyCommSections) {
  CommSim comm(4, mist_v100());
  comm.profiler().add("comp/inversion", 100.0);
  comm.charge_broadcast(1 << 20, "comm/broadcast");
  EXPECT_LT(comm.comm_seconds(), 1.0);
  EXPECT_GT(comm.comm_seconds(), 0.0);
}

TEST(CommSim, WorldValidation) {
  CommSim comm(2, loopback());
  EXPECT_THROW(comm.charge_allgather(std::vector<index_t>{4}, "comm/x"),
               Error);
}

TEST(CommSim, WireBytesRoundsToNearest) {
  CommSim comm(2, loopback());
  // FP32 default: exact.
  EXPECT_EQ(comm.wire_bytes(10), 40);
  // The 21-bit custom float of Ueno et al.: 2.625 B/scalar. Truncation
  // undercounted (3 scalars = 7.875 B -> 7); round-to-nearest gives 8.
  comm.set_wire_scalar_bytes(2.625);
  EXPECT_EQ(comm.wire_bytes(3), 8);
  EXPECT_EQ(comm.wire_bytes(2), 5);   // 5.25 -> 5
  EXPECT_EQ(comm.wire_bytes(1000), 2625);
}

TEST(LayerAssignment, OwnedCountsPartitionLayers) {
  // Ragged cases: Σ_r owned_count(r) must equal the layer count exactly.
  for (index_t layers : {0, 1, 3, 7, 10, 13, 64})
    for (index_t world : {1, 2, 3, 4, 5, 8, 16}) {
      LayerAssignment asg(layers, world);
      index_t total = 0;
      for (index_t r = 0; r < world; ++r) total += asg.owned_count(r);
      EXPECT_EQ(total, layers) << "layers=" << layers << " world=" << world;
    }
}

TEST(LayerAssignment, RoundRobin) {
  LayerAssignment asg(10, 4);
  EXPECT_EQ(asg.owner(0), 0);
  EXPECT_EQ(asg.owner(5), 1);
  EXPECT_EQ(asg.owner(7), 3);
  EXPECT_EQ(asg.owned_count(0), 3);  // layers 0,4,8
  EXPECT_EQ(asg.owned_count(1), 3);  // layers 1,5,9
  EXPECT_EQ(asg.owned_count(2), 2);
  EXPECT_EQ(asg.owned_count(3), 2);
  EXPECT_THROW(asg.owner(10), Error);
}

TEST(WirePrecision, HalvesModeledCommTime) {
  // FP16 wire halves bandwidth-dominated comm relative to FP32. Run the
  // same HyLo schedule at both precisions and compare modeled comm time.
  const DataSplit data = make_spirals(512, 64, 2, 0.1, 9);
  auto comm_seconds = [&](double wire_bytes) {
    Network net = make_mlp({2, 1, 1}, {128, 128}, 2, 5);
    OptimConfig oc;
    oc.update_freq = 1;
    auto opt = make_optimizer("SNGD", oc);  // big broadcasts
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 32;
    tc.world = 4;
    tc.max_iters_per_epoch = 2;
    tc.interconnect = mist_v100();
    tc.wire_scalar_bytes = wire_bytes;
    Trainer trainer(net, *opt, data, tc);
    return trainer.run().comm_seconds;
  };
  const double fp32 = comm_seconds(4.0);
  const double fp16 = comm_seconds(2.0);
  EXPECT_LT(fp16, fp32);
  EXPECT_GT(fp16, 0.35 * fp32);  // not *below* half: latency floor remains
}

TEST(WirePrecision, Validation) {
  CommSim comm(2, loopback());
  EXPECT_THROW(comm.set_wire_scalar_bytes(0.0), Error);
  comm.set_wire_scalar_bytes(2.625);  // the 21-bit format
  EXPECT_EQ(comm.wire_bytes(1000), 2625);
}

}  // namespace
}  // namespace hylo
