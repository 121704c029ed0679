#include "hylo/audit/audit.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/common/env.hpp"
#include "hylo/obs/metrics.hpp"
#include "hylo/par/thread_pool.hpp"

namespace hylo::audit {

namespace {

// -1 = unresolved; 0/1 = cached decision. Resolution is idempotent, so a
// first-use race between threads is benign.
std::atomic<int> g_enabled{-1};

std::atomic<std::int64_t> g_violations{0};
std::atomic<std::int64_t> g_checked{0};
std::atomic<std::int64_t> g_replays{0};

int resolve_enabled() {
  if (const auto on = env::read("HYLO_AUDIT", env::parse_switch))
    return *on ? 1 : 0;
#ifdef HYLO_AUDIT_DEFAULT
  return 1;
#else
  return 0;
#endif
}

// Report a violation: bump the counter, then throw with the same
// file:line-carrying diagnostic shape as HYLO_CHECK.
[[noreturn]] void fail(const std::string& msg) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  hylo::detail::throw_check_failure("HYLO_AUDIT", __FILE__, __LINE__, msg);
}

std::string range_str(const Span& s) {
  std::ostringstream oss;
  oss << "[" << static_cast<const void*>(s.begin) << ", +" << s.size << ")";
  return oss.str();
}

// Sort and coalesce one chunk's declared spans so (a) same-chunk
// re-declarations never mask a cross-chunk overlap in the sweep and (b)
// membership tests can binary-search.
void normalize(std::vector<Span>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (out > 0 && spans[i].begin <= spans[out - 1].end()) {
      const unsigned char* e = std::max(spans[out - 1].end(), spans[i].end());
      spans[out - 1].size = static_cast<std::size_t>(e - spans[out - 1].begin);
    } else {
      spans[out++] = spans[i];
    }
  }
  spans.resize(out);
}

bool contains(const std::vector<Span>& sorted, const unsigned char* p) {
  auto it = std::upper_bound(
      sorted.begin(), sorted.end(), p,
      [](const unsigned char* v, const Span& s) { return v < s.begin; });
  return it != sorted.begin() && p < std::prev(it)->end();
}

// One shadow sample: a byte outside the running chunk's declaration whose
// value must survive the chunk.
struct Sample {
  const unsigned char* ptr;
  unsigned char value;
};

// Cap on sampled positions per registered buffer per chunk; buffers at most
// this large are verified byte-exactly, larger ones at a deterministic
// stride phased by the chunk id (no rand(): audit must not perturb any rng
// stream, and reruns must sample identically).
constexpr std::size_t kMaxSamplesPerBuffer = 4096;

}  // namespace

bool enabled() {
  int s = g_enabled.load(std::memory_order_relaxed);
  if (s < 0) {
    s = resolve_enabled();
    g_enabled.store(s, std::memory_order_relaxed);
  }
  return s == 1;
}

bool set_enabled(bool on) {
  const bool was = enabled();
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  return was;
}

std::int64_t violations() {
  return g_violations.load(std::memory_order_relaxed);
}
std::int64_t checked_regions() {
  return g_checked.load(std::memory_order_relaxed);
}
std::int64_t replays() { return g_replays.load(std::memory_order_relaxed); }

void reset_stats() {
  g_violations.store(0, std::memory_order_relaxed);
  g_checked.store(0, std::memory_order_relaxed);
  g_replays.store(0, std::memory_order_relaxed);
}

void export_metrics(obs::MetricsRegistry& reg) {
  const auto top_up = [&reg](const char* name, std::int64_t want) {
    auto& c = reg.counter(name);
    const std::int64_t have = c.value();
    if (want > have) c.inc(want - have);
  };
  top_up("audit/violations", violations());
  top_up("audit/checked_regions", checked_regions());
  top_up("audit/replays", replays());
}

void run_checked(const char* label, index_t begin, index_t end, index_t chunk,
                 index_t nchunks, const RegionFn& fn, const Footprint& fp) {
  g_checked.fetch_add(1, std::memory_order_relaxed);

  // Materialize and normalize every chunk's declaration up front.
  std::vector<WriteSet> sets(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Span>> declared(static_cast<std::size_t>(nchunks));
  for (index_t c = 0; c < nchunks; ++c) {
    const index_t b = begin + c * chunk;
    const index_t e = std::min(end, b + chunk);
    fp.materialize(b, e, sets[static_cast<std::size_t>(c)]);
    declared[static_cast<std::size_t>(c)] =
        sets[static_cast<std::size_t>(c)].spans();
    normalize(declared[static_cast<std::size_t>(c)]);
  }

  // Inter-chunk overlap sweep over all declared spans.
  struct Tagged {
    Span span;
    index_t chunk;
  };
  std::vector<Tagged> all;
  for (index_t c = 0; c < nchunks; ++c)
    for (const Span& s : declared[static_cast<std::size_t>(c)])
      all.push_back(Tagged{s, c});
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return a.span.begin < b.span.begin;
  });
  const unsigned char* max_end = nullptr;
  Tagged owner{};
  for (const Tagged& t : all) {
    if (max_end != nullptr && t.span.begin < max_end && t.chunk != owner.chunk)
      fail(std::string("write-set overlap in '") + label + "': chunk " +
           std::to_string(owner.chunk) + " declared " +
           range_str(owner.span) + " overlapping chunk " +
           std::to_string(t.chunk) + " declared " + range_str(t.span));
    if (max_end == nullptr || t.span.end() > max_end) {
      max_end = t.span.end();
      owner = t;
    }
  }

  // Serial chunk-by-chunk execution with sampled shadow verification:
  // between the snapshot and the compare only this chunk runs, so any
  // changed out-of-declaration byte is its doing.
  std::vector<Sample> shadow;
  std::vector<Span> buffers;
  for (index_t c = 0; c < nchunks; ++c) {
    const index_t b = begin + c * chunk;
    const index_t e = std::min(end, b + chunk);
    const std::vector<Span>& mine = declared[static_cast<std::size_t>(c)];

    buffers = sets[static_cast<std::size_t>(c)].buffers();
    std::sort(buffers.begin(), buffers.end(),
              [](const Span& x, const Span& y) { return x.begin < y.begin; });
    buffers.erase(std::unique(buffers.begin(), buffers.end(),
                              [](const Span& x, const Span& y) {
                                return x.begin == y.begin;
                              }),
                  buffers.end());
    shadow.clear();
    for (const Span& buf : buffers) {
      const std::size_t stride =
          std::max<std::size_t>(1, buf.size / kMaxSamplesPerBuffer);
      for (std::size_t off = static_cast<std::size_t>(c) % stride;
           off < buf.size; off += stride) {
        const unsigned char* p = buf.begin + off;
        if (!contains(mine, p)) shadow.push_back(Sample{p, *p});
      }
    }

    fn(b, e);

    for (const Sample& s : shadow) {
      if (*s.ptr != s.value)
        fail(std::string("out-of-declaration write in '") + label +
             "': chunk " + std::to_string(c) + " [" + std::to_string(b) +
             ", " + std::to_string(e) + ") modified undeclared byte at " +
             range_str(Span{s.ptr, 1}));
    }
  }
}

Matrix replay_check(const char* label, const std::function<Matrix()>& make) {
  g_replays.fetch_add(1, std::memory_order_relaxed);
  const int original = par::num_threads();
  struct Restore {
    int n;
    ~Restore() { par::set_num_threads(n); }
  } restore{original};

  par::set_num_threads(1);
  const Matrix ref = make();
  for (const int t : {2, original == 1 || original == 2 ? 7 : original}) {
    par::set_num_threads(t);
    const Matrix got = make();
    if (got.rows() != ref.rows() || got.cols() != ref.cols())
      fail(std::string("replay divergence in '") + label + "' at " +
           std::to_string(t) + " threads: shape " + std::to_string(got.rows()) +
           "x" + std::to_string(got.cols()) + " vs 1-thread " +
           std::to_string(ref.rows()) + "x" + std::to_string(ref.cols()));
    if (ref.size() != 0 &&
        std::memcmp(got.data(), ref.data(),
                    sizeof(real_t) * static_cast<std::size_t>(ref.size())) != 0) {
      index_t first = 0;
      while (first < ref.size() &&
             std::memcmp(&got.data()[first], &ref.data()[first],
                         sizeof(real_t)) == 0)
        ++first;
      fail(std::string("replay divergence in '") + label + "' at " +
           std::to_string(t) + " threads: first differing element " +
           std::to_string(first) + " of " + std::to_string(ref.size()));
    }
  }
  return ref;
}

}  // namespace hylo::audit
