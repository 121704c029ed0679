// Parameter-free layers: activations, pooling, upsampling, concat, add.
#include <algorithm>
#include <limits>

#include "hylo/nn/layers.hpp"
#include "hylo/tensor/elementwise.hpp"

namespace hylo {

// ---------------------------------------------------------------- ReLU ----

Shape ReLU::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "ReLU takes one input");
  return in[0];
}

void ReLU::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                   const PassContext&) {
  const Tensor4& x = *in[0];
  out.resize_for_overwrite(x.n(), x.c(), x.h(), x.w());
  kern::relu_forward(out.data(), x.data(), x.size());
}

void ReLU::backward(const std::vector<const Tensor4*>& in, const Tensor4&,
                    const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                    const PassContext&) {
  if (grad_in[0] == nullptr) return;
  const Tensor4& x = *in[0];
  kern::vadd_where_positive(grad_in[0]->data(), gout.data(), x.data(),
                            x.size());
}

// ----------------------------------------------------------- MaxPool2d ----

MaxPool2d::MaxPool2d(index_t kernel, index_t stride)
    : kernel_(kernel), stride_(stride) {
  HYLO_CHECK(kernel > 0 && stride > 0, "bad MaxPool2d geometry");
}

Shape MaxPool2d::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "MaxPool2d takes one input");
  HYLO_CHECK(in[0].h >= kernel_ && in[0].w >= kernel_,
             "MaxPool2d window larger than input");
  const index_t oh = (in[0].h - kernel_) / stride_ + 1;
  const index_t ow = (in[0].w - kernel_) / stride_ + 1;
  HYLO_CHECK(oh > 0 && ow > 0, "MaxPool2d output collapses");
  return Shape{in[0].c, oh, ow};
}

void MaxPool2d::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                        const PassContext&) {
  const Tensor4& x = *in[0];
  const index_t oh = (x.h() - kernel_) / stride_ + 1;
  const index_t ow = (x.w() - kernel_) / stride_ + 1;
  out.resize(x.n(), x.c(), oh, ow);
  argmax_.assign(static_cast<std::size_t>(out.size()), 0);
  index_t oidx = 0;
  for (index_t i = 0; i < x.n(); ++i)
    for (index_t c = 0; c < x.c(); ++c)
      for (index_t oy = 0; oy < oh; ++oy)
        for (index_t ox = 0; ox < ow; ++ox) {
          real_t best = -std::numeric_limits<real_t>::infinity();
          index_t best_idx = 0;
          for (index_t ky = 0; ky < kernel_; ++ky)
            for (index_t kx = 0; kx < kernel_; ++kx) {
              const index_t iy = oy * stride_ + ky;
              const index_t ix = ox * stride_ + kx;
              const index_t flat = ((i * x.c() + c) * x.h() + iy) * x.w() + ix;
              if (x[flat] > best) {
                best = x[flat];
                best_idx = flat;
              }
            }
          out[oidx] = best;
          argmax_[static_cast<std::size_t>(oidx)] = best_idx;
          ++oidx;
        }
}

void MaxPool2d::backward(const std::vector<const Tensor4*>&, const Tensor4&,
                         const Tensor4& gout,
                         const std::vector<Tensor4*>& grad_in,
                         const PassContext&) {
  if (grad_in[0] == nullptr) return;
  Tensor4& gin = *grad_in[0];
  for (index_t o = 0; o < gout.size(); ++o)
    gin[argmax_[static_cast<std::size_t>(o)]] += gout[o];
}

// ----------------------------------------------------------- AvgPool2d ----

AvgPool2d::AvgPool2d(index_t kernel) : kernel_(kernel) {
  HYLO_CHECK(kernel > 0, "bad AvgPool2d kernel");
}

Shape AvgPool2d::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "AvgPool2d takes one input");
  HYLO_CHECK(in[0].h % kernel_ == 0 && in[0].w % kernel_ == 0,
             "AvgPool2d needs divisible spatial dims");
  return Shape{in[0].c, in[0].h / kernel_, in[0].w / kernel_};
}

void AvgPool2d::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                        const PassContext&) {
  const Tensor4& x = *in[0];
  const index_t oh = x.h() / kernel_, ow = x.w() / kernel_;
  out.resize(x.n(), x.c(), oh, ow);
  const real_t inv = 1.0 / static_cast<real_t>(kernel_ * kernel_);
  for (index_t i = 0; i < x.n(); ++i)
    for (index_t c = 0; c < x.c(); ++c)
      for (index_t oy = 0; oy < oh; ++oy)
        for (index_t ox = 0; ox < ow; ++ox) {
          real_t acc = 0.0;
          for (index_t ky = 0; ky < kernel_; ++ky)
            for (index_t kx = 0; kx < kernel_; ++kx)
              acc += x.at(i, c, oy * kernel_ + ky, ox * kernel_ + kx);
          out.at(i, c, oy, ox) = acc * inv;
        }
}

void AvgPool2d::backward(const std::vector<const Tensor4*>& in, const Tensor4&,
                         const Tensor4& gout,
                         const std::vector<Tensor4*>& grad_in,
                         const PassContext&) {
  if (grad_in[0] == nullptr) return;
  const Tensor4& x = *in[0];
  Tensor4& gin = *grad_in[0];
  const index_t oh = x.h() / kernel_, ow = x.w() / kernel_;
  const real_t inv = 1.0 / static_cast<real_t>(kernel_ * kernel_);
  for (index_t i = 0; i < x.n(); ++i)
    for (index_t c = 0; c < x.c(); ++c)
      for (index_t oy = 0; oy < oh; ++oy)
        for (index_t ox = 0; ox < ow; ++ox) {
          const real_t g = gout.at(i, c, oy, ox) * inv;
          for (index_t ky = 0; ky < kernel_; ++ky)
            for (index_t kx = 0; kx < kernel_; ++kx)
              gin.at(i, c, oy * kernel_ + ky, ox * kernel_ + kx) += g;
        }
}

// ------------------------------------------------------- GlobalAvgPool ----

Shape GlobalAvgPool::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "GlobalAvgPool takes one input");
  return Shape{in[0].c, 1, 1};
}

void GlobalAvgPool::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                            const PassContext&) {
  const Tensor4& x = *in[0];
  const index_t hw = x.h() * x.w();
  out.resize(x.n(), x.c(), 1, 1);
  const real_t inv = 1.0 / static_cast<real_t>(hw);
  for (index_t i = 0; i < x.n(); ++i)
    for (index_t c = 0; c < x.c(); ++c) {
      const real_t* p = x.sample_ptr(i) + c * hw;
      real_t acc = 0.0;
      for (index_t j = 0; j < hw; ++j) acc += p[j];
      out.at(i, c, 0, 0) = acc * inv;
    }
}

void GlobalAvgPool::backward(const std::vector<const Tensor4*>& in,
                             const Tensor4&, const Tensor4& gout,
                             const std::vector<Tensor4*>& grad_in,
                             const PassContext&) {
  if (grad_in[0] == nullptr) return;
  const Tensor4& x = *in[0];
  Tensor4& gin = *grad_in[0];
  const index_t hw = x.h() * x.w();
  const real_t inv = 1.0 / static_cast<real_t>(hw);
  for (index_t i = 0; i < x.n(); ++i)
    for (index_t c = 0; c < x.c(); ++c) {
      const real_t g = gout.at(i, c, 0, 0) * inv;
      real_t* p = gin.sample_ptr(i) + c * hw;
      for (index_t j = 0; j < hw; ++j) p[j] += g;
    }
}

// ---------------------------------------------------------- Upsample2x ----

Shape Upsample2x::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "Upsample2x takes one input");
  return Shape{in[0].c, in[0].h * 2, in[0].w * 2};
}

void Upsample2x::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                         const PassContext&) {
  const Tensor4& x = *in[0];
  out.resize(x.n(), x.c(), x.h() * 2, x.w() * 2);
  for (index_t i = 0; i < x.n(); ++i)
    for (index_t c = 0; c < x.c(); ++c)
      for (index_t y = 0; y < x.h(); ++y)
        for (index_t xx = 0; xx < x.w(); ++xx) {
          const real_t v = x.at(i, c, y, xx);
          out.at(i, c, 2 * y, 2 * xx) = v;
          out.at(i, c, 2 * y, 2 * xx + 1) = v;
          out.at(i, c, 2 * y + 1, 2 * xx) = v;
          out.at(i, c, 2 * y + 1, 2 * xx + 1) = v;
        }
}

void Upsample2x::backward(const std::vector<const Tensor4*>& in, const Tensor4&,
                          const Tensor4& gout,
                          const std::vector<Tensor4*>& grad_in,
                          const PassContext&) {
  if (grad_in[0] == nullptr) return;
  const Tensor4& x = *in[0];
  Tensor4& gin = *grad_in[0];
  for (index_t i = 0; i < x.n(); ++i)
    for (index_t c = 0; c < x.c(); ++c)
      for (index_t y = 0; y < x.h(); ++y)
        for (index_t xx = 0; xx < x.w(); ++xx)
          gin.at(i, c, y, xx) += gout.at(i, c, 2 * y, 2 * xx) +
                                 gout.at(i, c, 2 * y, 2 * xx + 1) +
                                 gout.at(i, c, 2 * y + 1, 2 * xx) +
                                 gout.at(i, c, 2 * y + 1, 2 * xx + 1);
}

// -------------------------------------------------------------- Concat ----

Shape Concat::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() >= 2, "Concat needs at least two inputs");
  split_.clear();
  index_t c = 0;
  for (const auto& s : in) {
    HYLO_CHECK(s.h == in[0].h && s.w == in[0].w,
               "Concat spatial dims mismatch");
    split_.push_back(s.c);
    c += s.c;
  }
  return Shape{c, in[0].h, in[0].w};
}

void Concat::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                     const PassContext&) {
  const index_t n = in[0]->n(), h = in[0]->h(), w = in[0]->w();
  index_t total_c = 0;
  for (const auto c : split_) total_c += c;
  out.resize(n, total_c, h, w);
  const index_t hw = h * w;
  for (index_t i = 0; i < n; ++i) {
    real_t* dst = out.sample_ptr(i);
    index_t off = 0;
    for (std::size_t k = 0; k < in.size(); ++k) {
      const index_t ck = split_[k];
      const real_t* src = in[k]->sample_ptr(i);
      std::copy(src, src + ck * hw, dst + off * hw);
      off += ck;
    }
  }
}

void Concat::backward(const std::vector<const Tensor4*>& in, const Tensor4&,
                      const Tensor4& gout,
                      const std::vector<Tensor4*>& grad_in,
                      const PassContext&) {
  const index_t n = gout.n(), hw = gout.h() * gout.w();
  for (index_t i = 0; i < n; ++i) {
    const real_t* src = gout.sample_ptr(i);
    index_t off = 0;
    for (std::size_t k = 0; k < in.size(); ++k) {
      const index_t ck = split_[k];
      if (grad_in[k] != nullptr) {
        real_t* dst = grad_in[k]->sample_ptr(i);
        for (index_t j = 0; j < ck * hw; ++j) dst[j] += src[off * hw + j];
      }
      off += ck;
    }
  }
}

// ----------------------------------------------------------------- Add ----

Shape Add::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 2, "Add takes two inputs");
  HYLO_CHECK(in[0] == in[1], "Add shape mismatch");
  return in[0];
}

void Add::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                  const PassContext& ctx) {
  const Tensor4& a = *in[0];
  const Tensor4& b = *in[1];
  out.resize_for_overwrite(a.n(), a.c(), a.h(), a.w());
  kern::add_forward(out.data(), a.data(), b.data(), a.size(), ctx.fused_relu);
}

void Add::backward(const std::vector<const Tensor4*>&, const Tensor4& out,
                   const Tensor4& gout, const std::vector<Tensor4*>& grad_in,
                   const PassContext& ctx) {
  const auto data = [](Tensor4* t) { return t ? t->data() : nullptr; };
  kern::add_backward(data(grad_in[0]), data(grad_in[1]), gout.data(),
                     ctx.fused_relu ? out.data() : nullptr, gout.size());
}

}  // namespace hylo
