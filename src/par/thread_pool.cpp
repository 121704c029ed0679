#include "hylo/par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "hylo/audit/audit.hpp"
#include "hylo/common/check.hpp"
#include "hylo/common/env.hpp"
#include "hylo/common/thread_annotations.hpp"
#include "hylo/obs/metrics.hpp"

namespace hylo::par {

namespace {

// True while this thread is executing a parallel_for chunk; nested calls
// then run inline (one level of fan-out, no oversubscription).
thread_local bool tl_in_parallel = false;

int env_default_threads() {
  const auto n = env::read("HYLO_NUM_THREADS", [](const std::string& v) {
    return env::parse_int(v, 1, 1024, "thread count");
  });
  if (n.has_value()) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Static partition: at most `participants` chunks, each a grain multiple
// (except the final partial one). Returns the chunk length.
index_t partition_chunk(index_t range, index_t grain, index_t participants) {
  const index_t nchunks =
      std::min<index_t>(participants, (range + grain - 1) / grain);
  const index_t chunk = (range + nchunks - 1) / nchunks;
  return ((chunk + grain - 1) / grain) * grain;
}

}  // namespace

struct ThreadPool::Impl {
  // Job slot: one in-flight parallel_for, broadcast to all workers by epoch.
  Mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t epoch HYLO_GUARDED_BY(mu) = 0;
  bool stop HYLO_GUARDED_BY(mu) = false;
  const RangeFn* fn HYLO_GUARDED_BY(mu) = nullptr;
  index_t begin HYLO_GUARDED_BY(mu) = 0;
  index_t end HYLO_GUARDED_BY(mu) = 0;
  index_t chunk HYLO_GUARDED_BY(mu) = 0;
  index_t nchunks HYLO_GUARDED_BY(mu) = 0;
  int pending HYLO_GUARDED_BY(mu) = 0;  ///< worker chunks not yet finished
  std::exception_ptr error HYLO_GUARDED_BY(mu);

  // Control-thread only: start_workers/stop_workers are documented as not
  // concurrent with parallel work, and workers never touch this vector.
  std::vector<std::thread> workers;

  // Telemetry, keyed by call-site label; touched once per parallel_for.
  mutable Mutex stats_mu;
  std::map<std::string, LabelStats> stats HYLO_GUARDED_BY(stats_mu);
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl) { set_threads(0); }

ThreadPool::~ThreadPool() {
  stop_workers();
  delete impl_;
}

void ThreadPool::set_threads(int n) {
  if (n <= 0) n = env_default_threads();
  if (n == threads_ && static_cast<int>(impl_->workers.size()) == n - 1)
    return;
  stop_workers();
  threads_ = n;
  start_workers(n - 1);
}

void ThreadPool::start_workers(int workers) {
  // Workers must start at the *current* epoch: after a set_threads() restart
  // the job-slot fields still describe the last job, and a worker born with
  // an older epoch would run that stale (already-freed) closure.
  std::uint64_t epoch = 0;
  {
    MutexLock lk(impl_->mu);
    impl_->stop = false;
    epoch = impl_->epoch;
  }
  impl_->workers.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    impl_->workers.emplace_back([this, w, epoch] { worker_loop(w, epoch); });
}

void ThreadPool::stop_workers() {
  {
    MutexLock lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->workers) t.join();
  impl_->workers.clear();
}

void ThreadPool::worker_loop(int worker_index, std::uint64_t seen) {
  for (;;) {
    UniqueLock lk(impl_->mu);
    // Manual predicate loop (not the lambda overload) so the guarded-field
    // reads stay visible to the thread-safety analysis.
    while (!impl_->stop && impl_->epoch == seen) impl_->cv_work.wait(lk.native());
    if (impl_->stop) return;
    seen = impl_->epoch;
    // Static assignment: worker w owns chunk w+1 (the caller runs chunk 0).
    const index_t c = static_cast<index_t>(worker_index) + 1;
    if (c >= impl_->nchunks) continue;
    const RangeFn* fn = impl_->fn;
    const index_t b = impl_->begin + c * impl_->chunk;
    const index_t e = std::min(impl_->end, b + impl_->chunk);
    lk.unlock();

    tl_in_parallel = true;
    std::exception_ptr err;
    try {
      (*fn)(b, e);
    } catch (...) {
      err = std::current_exception();
    }
    tl_in_parallel = false;

    lk.lock();
    if (err && !impl_->error) impl_->error = err;
    if (--impl_->pending == 0) impl_->cv_done.notify_one();
  }
}

void ThreadPool::note(const char* label, bool fanned, std::int64_t chunks) {
  MutexLock lk(impl_->stats_mu);
  LabelStats& s = impl_->stats[label];
  s.calls += 1;
  if (fanned) {
    s.split += 1;
    s.chunks += chunks;
  }
}

void ThreadPool::for_range(index_t begin, index_t end, index_t grain,
                           const RangeFn& fn, const char* label,
                           const audit::Footprint& fp) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const index_t range = end - begin;
  if (tl_in_parallel) {  // nested: always inline, never re-audited
    note(label, false, 1);
    fn(begin, end);
    return;
  }

  if (audit::enabled() && fp.checked()) {
    // Checked execution: partition as if at least 4 participants so overlap
    // detection is exercised even on single-thread hosts (any partition is
    // bitwise identical under the determinism contract), then hand the
    // chunks to the serial auditor. Chunks still count as "in parallel" so
    // nested calls keep their inline semantics.
    const index_t chunk =
        partition_chunk(range, grain, std::max<index_t>(threads_, 4));
    const index_t nchunks = (range + chunk - 1) / chunk;
    note(label, nchunks > 1, nchunks);
    audit::run_checked(
        label, begin, end, chunk, nchunks,
        [&fn](index_t b, index_t e) {
          tl_in_parallel = true;
          try {
            fn(b, e);
          } catch (...) {
            tl_in_parallel = false;
            throw;
          }
          tl_in_parallel = false;
        },
        fp);
    return;
  }

  if (threads_ <= 1 || range <= grain) {
    note(label, false, 1);
    fn(begin, end);
    return;
  }

  // Static partition: at most threads() chunks, each a grain multiple.
  const index_t chunk = partition_chunk(range, grain, threads_);
  const index_t nchunks = (range + chunk - 1) / chunk;
  if (nchunks <= 1) {
    note(label, false, 1);
    fn(begin, end);
    return;
  }
  note(label, true, nchunks);

  {
    MutexLock lk(impl_->mu);
    impl_->fn = &fn;
    impl_->begin = begin;
    impl_->end = end;
    impl_->chunk = chunk;
    impl_->nchunks = nchunks;
    impl_->pending = static_cast<int>(nchunks - 1);
    impl_->error = nullptr;
    impl_->epoch += 1;
  }
  impl_->cv_work.notify_all();

  // The caller is participant 0 and runs the first chunk itself.
  tl_in_parallel = true;
  std::exception_ptr err;
  try {
    fn(begin, std::min(end, begin + chunk));
  } catch (...) {
    err = std::current_exception();
  }
  tl_in_parallel = false;

  UniqueLock lk(impl_->mu);
  while (impl_->pending != 0) impl_->cv_done.wait(lk.native());
  impl_->fn = nullptr;
  if (!impl_->error && err) impl_->error = err;
  if (impl_->error) {
    std::exception_ptr rethrow = impl_->error;
    impl_->error = nullptr;
    lk.unlock();
    std::rethrow_exception(rethrow);
  }
}

std::map<std::string, ThreadPool::LabelStats> ThreadPool::stats() const {
  MutexLock lk(impl_->stats_mu);
  return impl_->stats;
}

void ThreadPool::reset_stats() {
  MutexLock lk(impl_->stats_mu);
  impl_->stats.clear();
}

void set_num_threads(int n) { ThreadPool::instance().set_threads(n); }

void export_metrics(obs::MetricsRegistry& reg) {
  ThreadPool& pool = ThreadPool::instance();
  reg.gauge("par/threads").set(static_cast<double>(pool.threads()));
  for (const auto& [label, s] : pool.stats()) {
    const std::string base = "par/for/" + label;
    auto set = [&reg](const std::string& name, std::int64_t want) {
      // Counters are monotonic: top up to the pool's cumulative value so
      // repeated exports into one registry stay consistent.
      auto& c = reg.counter(name);
      const std::int64_t have = c.value();
      if (want > have) c.inc(want - have);
    };
    set(base + ".calls", s.calls);
    set(base + ".split", s.split);
    set(base + ".chunks", s.chunks);
  }
}

}  // namespace hylo::par
