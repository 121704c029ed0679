#include "hylo/dist/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/common/check.hpp"

namespace hylo {

InterconnectModel mist_v100() {
  // NVLink ~150 GB/s intra-node blended with IB EDR ~12.5 GB/s inter-node;
  // collectives at P >= 8 are bottlenecked by the IB hop.
  return {.name = "mist-v100", .latency_s = 4e-6, .bandwidth_bps = 12.5e9};
}

InterconnectModel aws_p2_k80() {
  // PCIe gen3 x16 shared through a switch: ~8 GB/s effective, higher launch
  // latency on K80-era hosts.
  return {.name = "aws-p2-k80", .latency_s = 12e-6, .bandwidth_bps = 8e9};
}

InterconnectModel loopback() {
  return {.name = "loopback", .latency_s = 0.0, .bandwidth_bps = 1e18};
}

namespace {
double ceil_log2(index_t world) {
  double l = 0.0;
  index_t v = 1;
  while (v < world) {
    v *= 2;
    l += 1.0;
  }
  return l;
}
double link_time(const InterconnectModel& m, double bytes) {
  return m.latency_s + bytes / m.bandwidth_bps;
}
}  // namespace

double allreduce_seconds(const InterconnectModel& m, index_t world,
                         index_t bytes) {
  HYLO_CHECK(world >= 1 && bytes >= 0, "bad allreduce args");
  if (world == 1) return 0.0;
  const double chunk = static_cast<double>(bytes) / static_cast<double>(world);
  return 2.0 * static_cast<double>(world - 1) * link_time(m, chunk);
}

double allgather_seconds(const InterconnectModel& m, index_t world,
                         index_t bytes_per_rank) {
  HYLO_CHECK(world >= 1 && bytes_per_rank >= 0, "bad allgather args");
  if (world == 1) return 0.0;
  return static_cast<double>(world - 1) *
         link_time(m, static_cast<double>(bytes_per_rank));
}

double broadcast_seconds(const InterconnectModel& m, index_t world,
                         index_t bytes) {
  HYLO_CHECK(world >= 1 && bytes >= 0, "bad broadcast args");
  if (world == 1) return 0.0;
  return ceil_log2(world) * link_time(m, static_cast<double>(bytes));
}

double reduce_seconds(const InterconnectModel& m, index_t world,
                      index_t bytes) {
  return broadcast_seconds(m, world, bytes);
}

double retry_seconds(const InterconnectModel& m, double base_seconds,
                     int retries) {
  HYLO_CHECK(base_seconds >= 0.0 && retries >= 0, "bad retry args");
  double total = 0.0;
  double backoff = 100.0 * m.latency_s;
  for (int k = 0; k < retries; ++k) {
    total += base_seconds + backoff;
    backoff *= 2.0;
  }
  return total;
}

double checksum_seconds(const InterconnectModel& m, index_t bytes) {
  HYLO_CHECK(bytes >= 0, "bad checksum args");
  // A CRC sweep is memory-bound, not wire-bound: model it as a single pass
  // at 4x the link bandwidth plus one launch latency.
  return m.latency_s +
         static_cast<double>(bytes) / (4.0 * m.bandwidth_bps);
}

ComputeModel v100_fp32() {
  // ~14 TFLOP/s sustained on large FP32 GEMMs (15.7 peak).
  return {.name = "v100-fp32", .flops_per_s = 14e12};
}

double compute_seconds(const ComputeModel& m, double flops) {
  HYLO_CHECK(flops >= 0.0 && m.flops_per_s > 0.0, "bad compute args");
  return flops / m.flops_per_s;
}

namespace flops {
namespace {
double d(index_t v) { return static_cast<double>(v); }
}  // namespace

double gemm(index_t m, index_t n, index_t k) {
  return 2.0 * d(m) * d(n) * d(k);
}

double gram(index_t n, index_t k) { return d(n) * d(n + 1) * d(k); }

double cholesky(index_t n) { return d(n) * d(n) * d(n) / 3.0; }

double cholesky_inverse(index_t n) { return 4.0 * d(n) * d(n) * d(n) / 3.0; }

double lu(index_t n) { return 2.0 * d(n) * d(n) * d(n) / 3.0; }

double eigh(index_t n) { return 9.0 * d(n) * d(n) * d(n); }

double id(index_t m, index_t n, index_t r) {
  return 4.0 * d(m) * d(n) * d(r) +
         d(r) * d(r) * d(std::max<index_t>(m - r, 0));
}

double kernel(index_t m, index_t da, index_t dg) {
  return gram(m, da) + gram(m, dg) + d(m) * d(m);
}

double sample_space_precondition(index_t r, index_t da, index_t dg) {
  return gemm(r, da, dg) + 2.0 * d(r) * d(da) + 2.0 * d(r) * d(r) +
         gemm(dg, da, r) + 2.0 * d(dg) * d(da);
}

double forward_backward(index_t batch, index_t positions, index_t d_in,
                        index_t d_out) {
  HYLO_CHECK(batch >= 0 && positions >= 0 && d_in >= 0 && d_out >= 0,
             "bad fwd/bwd FLOP args");
  return 6.0 * d(batch) * d(positions) * d(d_out) * d(d_in + 1);
}

double update(index_t params) { return 4.0 * d(params); }
}  // namespace flops

}  // namespace hylo
