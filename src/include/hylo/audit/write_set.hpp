#pragma once
/// \file write_set.hpp
/// Declared write footprints for hylo::par call sites.
///
/// The pool's determinism contract (DESIGN.md §8) requires every
/// `parallel_for` chunk to write a *disjoint* region of the output. That
/// contract used to be unchecked; `hylo::audit` makes it declarative. A call
/// site attaches a `Footprint` — a function mapping a chunk range [b, e) to
/// the byte spans that chunk is allowed to write — and audit mode
/// (HYLO_AUDIT=1, see audit.hpp) verifies both that the declared spans of
/// different chunks never overlap and that sampled bytes outside a chunk's
/// declaration are untouched by it.
///
/// Building a Footprint costs one std::function; the WriteSet itself (span
/// vectors, shadow samples) is only ever materialized in audit mode, so a
/// disabled build pays nothing beyond one cached-flag branch per call.

#include <cstddef>
#include <functional>
#include <vector>

#include "hylo/common/types.hpp"
#include "hylo/tensor/matrix.hpp"
#include "hylo/tensor/tensor4.hpp"

namespace hylo::audit {

/// Contiguous byte range declared writable by one chunk.
struct Span {
  const unsigned char* begin = nullptr;
  std::size_t size = 0;
  const unsigned char* end() const { return begin + size; }
};

/// The declared write footprint of a single chunk: a list of byte spans,
/// plus the enclosing buffers registered for shadow sampling (bytes of a
/// registered buffer *outside* the declared spans must not change while the
/// chunk runs).
class WriteSet {
 public:
  /// Declare raw bytes writable. Does not register a shadow buffer.
  void add_bytes(const void* p, std::size_t n) {
    if (n == 0) return;
    spans_.push_back(Span{static_cast<const unsigned char*>(p), n});
  }

  /// Declare elements [b, e) of a flat array writable.
  template <typename T>
  void add_range(const T* base, index_t b, index_t e) {
    if (e > b) add_bytes(base + b, sizeof(T) * static_cast<std::size_t>(e - b));
  }

  /// Declare rows [r0, r1) of a row-major matrix writable.
  void add_rows(const Matrix& m, index_t r0, index_t r1) {
    track(m);
    if (r1 > r0)
      add_bytes(m.row_ptr(r0),
                sizeof(real_t) * static_cast<std::size_t>((r1 - r0) * m.cols()));
  }

  /// Declare columns [c0, c1) of every row writable (strided column block).
  void add_cols(const Matrix& m, index_t c0, index_t c1) {
    track(m);
    for (index_t r = 0; r < m.rows(); ++r)
      add_bytes(m.row_ptr(r) + c0,
                sizeof(real_t) * static_cast<std::size_t>(c1 - c0));
  }

  /// Declare the diagonal-and-right tail of rows [r0, r1) writable:
  /// elements (r, j) with j >= r. The upper-triangular Gram fill.
  void add_row_tail(const Matrix& m, index_t r0, index_t r1) {
    track(m);
    for (index_t r = r0; r < r1; ++r)
      add_bytes(m.row_ptr(r) + r,
                sizeof(real_t) * static_cast<std::size_t>(m.cols() - r));
  }

  /// Declare the below-diagonal tail of columns [c0, c1) writable: elements
  /// (r, c) with r > c. Together with add_row_tail this is the exact element
  /// set a symmetric-mirror kernel (gram_nt) owning rows [c0, c1) writes.
  void add_col_tail(const Matrix& m, index_t c0, index_t c1) {
    track(m);
    for (index_t c = c0; c < c1; ++c)
      for (index_t r = c + 1; r < m.rows(); ++r)
        add_bytes(m.row_ptr(r) + c, sizeof(real_t));
  }

  /// Declare the diagonal-and-left part of rows [r0, r1) from column c0
  /// writable: elements (r, j) with c0 <= j <= r. The in-place lower-
  /// triangle update of the trailing block at (c0, c0) (syrk_trailing).
  void add_row_head(const Matrix& m, index_t r0, index_t r1, index_t c0) {
    track(m);
    for (index_t r = r0; r < r1; ++r)
      add_bytes(m.row_ptr(r) + c0,
                sizeof(real_t) * static_cast<std::size_t>(r - c0 + 1));
  }

  /// Declare samples [n0, n1) of an NCHW tensor writable.
  void add_samples(const Tensor4& t, index_t n0, index_t n1) {
    track(t.data(), sizeof(real_t) * static_cast<std::size_t>(t.size()));
    if (n1 > n0)
      add_bytes(t.sample_ptr(n0),
                sizeof(real_t) *
                    static_cast<std::size_t>((n1 - n0) * t.sample_size()));
  }

  /// Register a buffer for shadow sampling without declaring any of it
  /// writable (the matrix/tensor helpers call this themselves).
  void track(const void* base, std::size_t bytes) {
    if (bytes == 0) return;
    buffers_.push_back(Span{static_cast<const unsigned char*>(base), bytes});
  }
  void track(const Matrix& m) {
    track(m.data(), sizeof(real_t) * static_cast<std::size_t>(m.size()));
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Span>& buffers() const { return buffers_; }

 private:
  std::vector<Span> spans_;
  std::vector<Span> buffers_;
};

/// Fills `ws` with the declared footprint of chunk [b, e).
using WriteSetFn = std::function<void(index_t b, index_t e, WriteSet& ws)>;

/// A call site's write declaration: either `checked` (carries a WriteSetFn),
/// explicitly `unchecked` (audited call sites that opt out, with a reason),
/// or empty (legacy/test call sites; the repo linter forbids these in src/).
class Footprint {
 public:
  Footprint() = default;
  /*implicit*/ Footprint(WriteSetFn fn) : fn_(std::move(fn)) {}

  bool checked() const { return static_cast<bool>(fn_); }
  const char* unchecked_reason() const { return unchecked_reason_; }

  void materialize(index_t b, index_t e, WriteSet& ws) const { fn_(b, e, ws); }

  static Footprint make_unchecked(const char* reason) {
    Footprint fp;
    fp.unchecked_reason_ = reason;
    return fp;
  }

 private:
  WriteSetFn fn_;
  const char* unchecked_reason_ = nullptr;
};

/// Explicit opt-out tag: the call site asserts its writes are safe but not
/// expressible as spans (or deliberately racy, e.g. in a negative test).
/// The repo linter accepts this in place of a WriteSet declaration.
inline Footprint unchecked(const char* reason) {
  return Footprint::make_unchecked(reason);
}

/// Chunk [i0, i1) writes rows [i0, i1) of `m` — the row-block-of-C shape
/// used by every GEMM-family kernel.
inline Footprint row_block(const Matrix& m) {
  return Footprint([&m](index_t b, index_t e, WriteSet& ws) {
    ws.add_rows(m, b, e);
  });
}

/// Chunk [n0, n1) writes samples [n0, n1) of `t` (batch-parallel NN passes).
inline Footprint sample_block(const Tensor4& t) {
  return Footprint([&t](index_t b, index_t e, WriteSet& ws) {
    ws.add_samples(t, b, e);
  });
}

/// Chunk [b, e) writes elements [b, e) of a flat array (per-chunk partials,
/// per-layer state objects).
template <typename T>
Footprint elem_block(const T* base) {
  return Footprint([base](index_t b, index_t e, WriteSet& ws) {
    ws.add_range(base, b, e);
  });
}

}  // namespace hylo::audit
