#pragma once
// The traced run: Trainer::run()'s lockstep training loop replayed through
// the library's public calls, with a span around every call into a module.
// The replay must reproduce the untraced run bit for bit (the fidelity gate
// in main.cpp), so the per-layer numbers describe the measured program.

#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// One timed call. Epoch spans have no parent; iteration spans have their
/// epoch as parent; call spans have their iteration (or epoch) as parent.
struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds since the replay began
  double end = 0.0;
  int parent = -1;     ///< index into the span list, -1 for none
  index_t iter = -1;   ///< global iteration, -1 outside iterations

  double ms() const { return (end - start) * 1e3; }
};

struct Replay {
  std::vector<Span> spans;
  std::vector<hylo::EpochStats> epochs;
  std::vector<unsigned char> weights;  ///< final network state
  std::vector<char> captured;          ///< per global iteration
  double modeled_comm_seconds = 0.0;
  index_t iterations = 0;
  index_t refreshes = 0;
  index_t nonfinite_iterations = 0;
  index_t kid_refreshes = 0;           ///< HyLo refreshes run in KID mode
  double rank_sum = 0.0;               ///< HyLo low rank summed over refreshes
  std::int64_t stale_refreshes = 0;
  std::int64_t guard_rejects = 0;
  std::int64_t damping_escalations = 0;
  double factorize_seconds = 0.0;      ///< program-reported comp/factorization
  double invert_seconds = 0.0;         ///< program-reported comp/inversion
  std::int64_t wire_bytes = 0, messages = 0;
  std::int64_t allreduce_bytes = 0, gather_bytes = 0, broadcast_bytes = 0;
  index_t optimizer_state_bytes = 0;
  index_t test_samples = 0;
  int threads = 1;
  double fanout_ratio = 0.0;           ///< split parallel_for calls / all calls
};

/// Run the workload once with every public call timed.
Replay run_traced(const WorkloadSpec& spec, const Seeds& seeds);

/// Write the spans as a Chrome trace (open in ui.perfetto.dev).
void write_chrome_trace(const Replay& replay, const std::string& path);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics BENCHMARK.json lists, from the traced run and the
/// untraced run's throughput (for bench.trace_overhead).
std::vector<Metric> layer_metrics(const Replay& replay, const WorkloadSpec& spec,
                                  double untraced_samples_per_s);

}  // namespace perfbench
