#pragma once
/// \file tensor4.hpp
/// 4-D NCHW tensor for the NN framework, plus im2col/col2im. Convolutions are
/// implemented as im2col + GEMM; the same im2col rows feed the SNGD-for-CNNs
/// extension (Sec. IV of the paper), which spatial-sums them into the
/// per-sample input matrix A.

#include <algorithm>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/tensor/matrix.hpp"

namespace hylo {

class Tensor4 {
 public:
  Tensor4() = default;

  Tensor4(index_t n, index_t c, index_t h, index_t w)
      : n_(n), c_(c), h_(h), w_(w),
        data_(static_cast<std::size_t>(n * c * h * w), 0.0) {
    HYLO_CHECK(n >= 0 && c >= 0 && h >= 0 && w >= 0, "negative dims");
  }

  index_t n() const { return n_; }
  index_t c() const { return c_; }
  index_t h() const { return h_; }
  index_t w() const { return w_; }
  index_t size() const { return n_ * c_ * h_ * w_; }
  bool empty() const { return size() == 0; }

  /// Elements per sample.
  index_t sample_size() const { return c_ * h_ * w_; }

  real_t& at(index_t n, index_t c, index_t h, index_t w) {
    HYLO_DCHECK(n >= 0 && n < n_ && c >= 0 && c < c_ && h >= 0 && h < h_ &&
                    w >= 0 && w < w_,
                "tensor index out of range");
    return data_[static_cast<std::size_t>(((n * c_ + c) * h_ + h) * w_ + w)];
  }
  real_t at(index_t n, index_t c, index_t h, index_t w) const {
    HYLO_DCHECK(n >= 0 && n < n_ && c >= 0 && c < c_ && h >= 0 && h < h_ &&
                    w >= 0 && w < w_,
                "tensor index out of range");
    return data_[static_cast<std::size_t>(((n * c_ + c) * h_ + h) * w_ + w)];
  }

  real_t& operator[](index_t i) { return data_[static_cast<std::size_t>(i)]; }
  real_t operator[](index_t i) const { return data_[static_cast<std::size_t>(i)]; }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  real_t* sample_ptr(index_t n) { return data() + n * sample_size(); }
  const real_t* sample_ptr(index_t n) const { return data() + n * sample_size(); }

  void zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  void resize(index_t n, index_t c, index_t h, index_t w) {
    n_ = n;
    c_ = c;
    h_ = h;
    w_ = w;
    data_.assign(static_cast<std::size_t>(n * c * h * w), 0.0);
  }

  /// resize() without the zero fill, for an output whose every element the
  /// caller overwrites: the contents are unspecified (the old ones while
  /// the element count is unchanged, zeros past the old end).
  void resize_for_overwrite(index_t n, index_t c, index_t h, index_t w) {
    n_ = n;
    c_ = c;
    h_ = h;
    w_ = w;
    data_.resize(static_cast<std::size_t>(n * c * h * w));
  }

  bool same_shape(const Tensor4& o) const {
    return n_ == o.n_ && c_ == o.c_ && h_ == o.h_ && w_ == o.w_;
  }

  /// Flatten to a (n, c*h*w) matrix (copy).
  Matrix as_matrix() const;

  /// Inverse of as_matrix.
  static Tensor4 from_matrix(const Matrix& m, index_t c, index_t h, index_t w);

 private:
  index_t n_ = 0, c_ = 0, h_ = 0, w_ = 0;
  std::vector<real_t> data_;
};

/// Spatial geometry of a convolution / pooling window.
struct ConvGeometry {
  index_t in_c = 0, in_h = 0, in_w = 0;
  index_t kernel_h = 0, kernel_w = 0;
  index_t stride = 1;
  index_t pad = 0;

  index_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  index_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  /// im2col row length = C * kh * kw.
  index_t patch_size() const { return in_c * kernel_h * kernel_w; }

  bool operator==(const ConvGeometry&) const = default;
};

/// im2col for one sample: returns (out_h*out_w) x (C*kh*kw); row p holds the
/// receptive field of output position p, zero-padded at the borders.
void im2col(const real_t* sample, const ConvGeometry& g, Matrix& cols);

/// Accumulate the transpose operation: scatter the rows of `cols` back into
/// the (C,H,W) sample gradient (+=). Inverse data-movement of im2col.
void col2im_add(const Matrix& cols, const ConvGeometry& g, real_t* sample);

}  // namespace hylo
