#pragma once
/// \file cost_model.hpp
/// Analytical interconnect cost model (α-β / Hockney). The paper's clusters
/// (Mist: V100 + NVLink islands over InfiniBand EDR; AWS P2: K80 over PCIe)
/// are not available, so every collective in the simulator is *charged* a
/// wire time from this model while its data movement executes in shared
/// memory. Comparisons between optimizers depend on message volumes and
/// collective types, which the model preserves (DESIGN.md §2).

#include <string>

#include "hylo/common/types.hpp"

namespace hylo {

/// Point-to-point link parameters.
struct InterconnectModel {
  std::string name;
  double latency_s = 5e-6;        ///< α: per-message startup
  double bandwidth_bps = 10e9;    ///< β⁻¹: bytes per second per link
};

/// V100 cluster preset: NVLink inside a 4-GPU node, IB EDR across nodes.
/// Effective numbers are blended for a flat P-rank view.
InterconnectModel mist_v100();

/// AWS P2 preset: K80 GPUs over PCIe switch.
InterconnectModel aws_p2_k80();

/// Loopback for single-device runs (collectives cost nothing at P=1).
InterconnectModel loopback();

/// Ring allreduce: 2(P-1) steps of (bytes/P) each.
double allreduce_seconds(const InterconnectModel& m, index_t world,
                         index_t bytes);

/// Allgather (ring): each rank contributes `bytes_per_rank`, receives
/// (P-1)·bytes_per_rank in P-1 steps.
double allgather_seconds(const InterconnectModel& m, index_t world,
                         index_t bytes_per_rank);

/// Binomial-tree broadcast of `bytes` from one root.
double broadcast_seconds(const InterconnectModel& m, index_t world,
                         index_t bytes);

/// Tree reduce of `bytes` to one root. Modeled identically to
/// broadcast_seconds *by intention*: the binomial reduce tree moves the same
/// bytes over the same log₂(P) levels in the opposite direction, and the α-β
/// model is direction-agnostic.
double reduce_seconds(const InterconnectModel& m, index_t world, index_t bytes);

/// Modeled cost of `retries` failed attempts of a collective whose clean
/// duration is `base_seconds`, under retry-with-exponential-backoff: each
/// lost attempt burns the full collective time (failure is detected by a
/// timeout set at the attempt's modeled duration) plus a backoff delay that
/// starts at 100·α and doubles per attempt. Zero for retries == 0; strictly
/// increasing and superlinear in `retries` otherwise.
double retry_seconds(const InterconnectModel& m, double base_seconds,
                     int retries);

/// Modeled cost of one application-level CRC pass over `bytes` of payload
/// (the silent-corruption check in DESIGN.md §16): one launch latency plus a
/// memory-bound scan at 4× the wire bandwidth. Charged on every
/// silent_corrupt event, detected or escaped — the check runs either way.
double checksum_seconds(const InterconnectModel& m, index_t bytes);

/// Per-rank compute throughput. Every rank clock of the event timeline
/// (DESIGN.md §15) advances by *modeled* compute — a FLOP count through this
/// model, never measured wall time, which would break bitwise replay — so
/// the same FLOP count always advances a clock by the same amount.
struct ComputeModel {
  std::string name;
  double flops_per_s = 14e12;  ///< sustained dense-GEMM throughput
};

/// V100 sustained FP32 GEMM throughput (pairs with mist_v100()).
ComputeModel v100_fp32();

/// Seconds to execute `flops` floating-point operations on one rank.
double compute_seconds(const ComputeModel& m, double flops);

/// FLOP counts of the kernels the compute model charges: the one place each
/// rule is written (DESIGN.md §15). Cubic terms keep their leading term.
namespace flops {
double gemm(index_t m, index_t n, index_t k);  ///< (m x k)·(k x n): 2mnk
/// Gram of n vectors of length k, symmetric half: n(n+1)k.
double gram(index_t n, index_t k);
double cholesky(index_t n);          ///< n³/3
double cholesky_inverse(index_t n);  ///< SPD inverse from its factor: 4n³/3
double lu(index_t n);                ///< 2n³/3
double eigh(index_t n);              ///< with eigenvectors: about 9n³
/// Rank-r row ID of an m x n matrix: pivoted QR of its transpose to r steps
/// (4mnr) plus the r x (m-r) coefficient solve (r²(m-r)).
double id(index_t m, index_t n, index_t r);
/// Kernel (AAᵀ)∘(GGᵀ) of m samples of widths da and dg.
double kernel(index_t m, index_t da, index_t dg);
/// SNGD/HyLo preconditioning of a dg x da gradient through r samples:
/// Jacobian product, r x r solve, transposed product, residual scale.
double sample_space_precondition(index_t r, index_t da, index_t dg);
/// Forward + backward of one weight layer over `batch` samples of
/// `positions` output positions: 2 FLOPs per multiply-add forward, 4 for
/// the two backward GEMMs, over the bias-augmented d_out x (d_in+1) weight.
double forward_backward(index_t batch, index_t positions, index_t d_in,
                        index_t d_out);
double update(index_t params);  ///< momentum SGD: 4 per parameter
}  // namespace flops

}  // namespace hylo
