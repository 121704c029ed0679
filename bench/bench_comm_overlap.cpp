// Compute/comm overlap: what issuing curvature traffic nonblocking buys on
// the event timeline (DESIGN.md §15). Both columns are the timeline horizon
// of the same KAISA-style iteration stream — modeled fwd/bwd compute, a
// gradient allreduce every step, and a curvature refresh (factor allgather
// + inverse broadcast) every F steps — against the same α-β interconnect.
// Lockstep waits out every collective, serializing refresh traffic into the
// step; async issues it at the refresh boundary, so it drains behind the
// next iterations' compute and only the horizon pays for what failed to
// overlap. The gap
// widens with P: factor gathers grow as (P-1)·Σ bytes while the per-step
// compute window is fixed, exactly the regime (P >= 64) where KAISA's
// refreshes start dominating the step.
#include <iostream>

#include "bench_common.hpp"

using namespace hylo;
using namespace hylo::bench;

namespace {

struct Shape {
  index_t params;          // network parameters (grad allreduce payload)
  index_t macs;            // forward multiply-adds per sample
  index_t factor_scalars;  // curvature payload per refresh, split over ranks
  index_t inverse_scalars; // broadcast payload per refresh
  index_t batch;           // per-worker local batch
};

// ResNet-32 at paper scale: ~0.46M params and ~69M multiply-adds per 32x32
// sample, a few hundred KB of Kronecker factors per refresh.
Shape paper_shape() {
  Shape s;
  s.params = 460'000;
  s.macs = 69'000'000;
  s.factor_scalars = 180'000;
  s.inverse_scalars = 180'000;
  s.batch = 32;
  return s;
}

// Modeled seconds per step of the stream on the event timeline. Blocking:
// every collective is waited out (lockstep). Otherwise the refresh traffic
// is issued nonblocking at the refresh boundary.
double step_ms(index_t world, index_t iters, index_t refresh_freq,
               bool blocking) {
  const Shape sh = paper_shape();
  // The fwd/bwd rule: 2 FLOPs per multiply-add forward, 4 backward.
  const double step_flops =
      6.0 * static_cast<double>(sh.macs) * static_cast<double>(sh.batch);
  CommSim comm(world, mist_v100(), v100_fp32());
  comm.set_mode(blocking ? CommMode::kLockstep : CommMode::kAsync);
  const std::vector<index_t> per_rank(
      static_cast<std::size_t>(world),
      comm.wire_bytes((sh.factor_scalars + world - 1) / world));
  const index_t inverse_bytes = comm.wire_bytes(sh.inverse_scalars);
  for (index_t i = 0; i < iters; ++i) {
    for (index_t r = 0; r < world; ++r)
      comm.compute(r, step_flops, "forward_backward");
    // The gradient allreduce stays blocking (the update needs it).
    comm.charge_allreduce(comm.wire_bytes(sh.params), "comm/grad_allreduce");
    if (i % refresh_freq != 0) continue;
    if (blocking) {
      comm.charge_allgather(per_rank, "comm/gather");
      comm.charge_broadcast(inverse_bytes, "comm/broadcast");
    } else {
      const CommEvent g = comm.icharge_allgather(
          per_rank, "comm/gather", comm.timeline()->max_clock());
      comm.icharge_broadcast(inverse_bytes, "comm/broadcast", g.ready_s);
    }
  }
  return comm.timeline()->horizon() / static_cast<double>(iters) * 1e3;
}

}  // namespace

int main() {
  const index_t iters = large_scale() ? 400 : 60;
  const index_t refresh_freq = 5;
  std::cout << "Compute/comm overlap — lockstep vs event-timeline modeled "
               "step time (KAISA-style refresh every " << refresh_freq
            << " iters, " << iters << " iters)\n\n";
  CsvWriter table({"world", "sync_step_ms", "async_step_ms", "speedup"});
  for (index_t world : {8, 16, 32, 64, 128, 256}) {
    const double sync_ms = step_ms(world, iters, refresh_freq, true);
    const double async_ms = step_ms(world, iters, refresh_freq, false);
    table.add(world, sync_ms, async_ms, sync_ms / async_ms);
  }
  table.print_table();
  table.write_file("comm_overlap.csv");
  std::cout << "\nExpected: async never slower, winning a few percent: the "
               "FIFO wire lets it hide at most one refresh's traffic behind "
               "the next step's compute, while the gradient allreduce, which "
               "grows with P, stays on every step.\n";
  return 0;
}
