#pragma once
/// \file thread_pool.hpp
/// hylo::par — deterministic data parallelism for the dense kernels.
///
/// A process-wide pool of persistent worker threads executes
/// `parallel_for(begin, end, grain, fn)` by *static partition*: the range is
/// split into at most `threads()` contiguous chunks whose boundaries are
/// multiples of `grain`, chunk t always runs on participant t, and there is
/// no work stealing. Determinism contract (DESIGN.md §8): every call site
/// partitions only over *independent* output rows/samples/layers, so results
/// are bitwise identical at any thread count — including `HYLO_NUM_THREADS=1`,
/// which executes the body inline on the calling thread, reproducing the
/// serial seed path exactly.
///
/// The pool size defaults to `HYLO_NUM_THREADS` (an integer in [1, 1024];
/// anything else is rejected), else hardware concurrency, and can be
/// changed at runtime with `set_num_threads` (benches/tests).
/// Nested `parallel_for` from inside a pool worker runs inline — one level
/// of parallelism, no oversubscription, same bitwise results.
///
/// Call sites declare their write footprint (`audit::Footprint`, see
/// audit/write_set.hpp) or tag themselves `audit::unchecked(reason)`; in
/// audit mode (HYLO_AUDIT=1) declared regions execute under the checked
/// serial auditor, which detects inter-chunk write overlap and sampled
/// out-of-declaration writes. When audit mode is off the declaration costs
/// one cached-flag branch and is never materialized.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hylo/audit/write_set.hpp"
#include "hylo/common/types.hpp"

namespace hylo::obs {
class MetricsRegistry;
}

namespace hylo::par {

class ThreadPool {
 public:
  /// The process-wide pool. First use reads HYLO_NUM_THREADS.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current participant count (calling thread + workers), >= 1.
  int threads() const { return threads_; }

  /// Resize the pool. n <= 0 restores the environment default. Must not be
  /// called concurrently with parallel work (benches/tests only).
  void set_threads(int n);

  using RangeFn = std::function<void(index_t, index_t)>;

  /// Run fn(chunk_begin, chunk_end) over a static partition of [begin, end).
  /// Chunk boundaries are multiples of `grain` (except the last); with one
  /// chunk, one thread, or from inside a worker, fn(begin, end) runs inline.
  /// Blocks until every chunk finished; the first exception thrown by any
  /// chunk is rethrown on the caller. `label` keys the per-kernel telemetry.
  /// `fp` declares the chunks' write footprint; in audit mode a checked
  /// footprint routes the call through audit::run_checked (serial, bitwise
  /// identical, throws hylo::Error on a contract violation).
  void for_range(index_t begin, index_t end, index_t grain, const RangeFn& fn,
                 const char* label, const audit::Footprint& fp = {});

  /// Per-label parallel_for accounting (exported as `par/for/<label>`).
  struct LabelStats {
    std::int64_t calls = 0;  ///< total parallel_for invocations
    std::int64_t split = 0;  ///< invocations that actually fanned out
    std::int64_t chunks = 0; ///< chunks executed across fanned-out calls
  };
  std::map<std::string, LabelStats> stats() const;
  void reset_stats();

 private:
  ThreadPool();
  void start_workers(int workers);
  void stop_workers();
  void worker_loop(int worker_index, std::uint64_t start_epoch);
  void note(const char* label, bool fanned, std::int64_t chunks);

  struct Impl;
  Impl* impl_;
  int threads_ = 1;
};

/// Pool size currently in effect.
inline int num_threads() { return ThreadPool::instance().threads(); }

/// Resize the process pool (0 restores the HYLO_NUM_THREADS default).
void set_num_threads(int n);

/// Chunked loop over [begin, end); see ThreadPool::for_range.
inline void parallel_for(index_t begin, index_t end, index_t grain,
                         const ThreadPool::RangeFn& fn,
                         const char* label = "anon",
                         const audit::Footprint& fp = {}) {
  ThreadPool::instance().for_range(begin, end, grain, fn, label, fp);
}

/// Deterministic chunked reduction. The range is cut into fixed chunks of
/// exactly `grain` elements (independent of the thread count), `map(b, e)`
/// produces one partial per chunk, and `combine` folds the partials in
/// ascending chunk order on the caller — so the result is identical at any
/// thread count. Note the chunk-wise fold may differ in the last bits from
/// an unchunked serial fold; call sites opt in explicitly.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(index_t begin, index_t end, index_t grain, T init,
                  const MapFn& map, const CombineFn& combine,
                  const char* label = "reduce") {
  if (end <= begin) return init;
  if (grain < 1) grain = 1;
  const index_t nchunks = (end - begin + grain - 1) / grain;
  std::vector<T> partials(static_cast<std::size_t>(nchunks), init);
  parallel_for(
      0, nchunks, 1,
      [&](index_t c0, index_t c1) {
        for (index_t c = c0; c < c1; ++c) {
          const index_t b = begin + c * grain;
          partials[static_cast<std::size_t>(c)] =
              map(b, std::min(end, b + grain));
        }
      },
      label, audit::elem_block(partials.data()));
  T acc = init;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

/// Publish pool telemetry into a registry: gauge `par/threads` plus, per
/// parallel_for label, counters `par/for/<label>.calls` / `.split` /
/// `.chunks`.
void export_metrics(obs::MetricsRegistry& reg);

}  // namespace hylo::par
