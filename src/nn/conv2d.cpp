#include <cmath>

#include "hylo/nn/layers.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

Conv2d::Conv2d(index_t out_channels, index_t kernel, index_t stride,
               index_t pad, Rng& rng, std::string name)
    : out_channels_(out_channels), kernel_(kernel), stride_(stride), pad_(pad),
      rng_(&rng) {
  HYLO_CHECK(out_channels > 0 && kernel > 0 && stride > 0 && pad >= 0,
             "bad Conv2d geometry");
  params_.name = std::move(name);
  params_.kind = ParamKind::kConv;
  params_.d_out = out_channels;
}

Shape Conv2d::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "Conv2d takes one input");
  // Every window must lie inside the padded input: out_h()/out_w() truncate
  // toward zero, so a kernel larger than in + 2·pad would still get one
  // output position, with taps past the edge.
  HYLO_CHECK(in[0].h + 2 * pad_ >= kernel_ && in[0].w + 2 * pad_ >= kernel_,
             "Conv2d window hangs off the padded input: in "
                 << in[0].h << "x" << in[0].w << " pad=" << pad_
                 << " k=" << kernel_);
  geom_ = ConvGeometry{.in_c = in[0].c, .in_h = in[0].h, .in_w = in[0].w,
                       .kernel_h = kernel_, .kernel_w = kernel_,
                       .stride = stride_, .pad = pad_};
  const index_t patch = geom_.patch_size();
  params_.d_in = patch;
  params_.positions = geom_.out_h() * geom_.out_w();
  params_.w.resize(out_channels_, patch + 1);
  params_.gw.resize(out_channels_, patch + 1);
  const real_t std = std::sqrt(2.0 / static_cast<real_t>(patch));
  for (index_t o = 0; o < out_channels_; ++o)
    for (index_t j = 0; j < patch; ++j) params_.w(o, j) = std * rng_->normal();
  return Shape{out_channels_, geom_.out_h(), geom_.out_w()};
}

void Conv2d::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                     const PassContext& ctx) {
  const Tensor4& x = *in[0];
  const index_t n = x.n(), oh = geom_.out_h(), ow = geom_.out_w();
  const index_t s = oh * ow, patch = geom_.patch_size();
  out.resize_for_overwrite(n, out_channels_, oh, ow);
  if (ctx.capture) {
    params_.a_samples.resize(n, patch + 1);
  }

  if (kern::active() != kern::Tier::kScalar) {
    // SIMD path (DESIGN.md §13): the conv passes read patches from the NCHW
    // sample, so no per-sample patch matrix outlives a pass — backward
    // reads in[0] again instead of a cols_ cache.
    cols_.clear();
    cols_.shrink_to_fit();
    const kern::PackedW pw = kern::pack_conv_forward_w(params_.w, geom_);
    par::parallel_for(
        0, n, 1,
        [&](index_t n0, index_t n1) {
          for (index_t i = n0; i < n1; ++i) {
            real_t* capture =
                ctx.capture ? params_.a_samples.row_ptr(i) : nullptr;
            kern::conv_forward(pw, x.sample_ptr(i), geom_, out.sample_ptr(i),
                               capture);
            if (capture != nullptr) capture[patch] = static_cast<real_t>(s);
          }
        },
        "nn/conv2d_fwd",
        audit::Footprint([&](index_t n0, index_t n1, audit::WriteSet& ws) {
          ws.add_samples(out, n0, n1);
          if (ctx.capture) ws.add_rows(params_.a_samples, n0, n1);
        }));
    return;
  }

  cols_.resize(static_cast<std::size_t>(n));
  // Batch-parallel: every sample writes disjoint state (its cols_ slot, its
  // output plane, its a_samples row), so any partition is bitwise identical
  // to the serial loop. The s x c_out scratch is per chunk.
  par::parallel_for(
      0, n, 1,
      [&](index_t n0, index_t n1) {
        Matrix y;  // s x c_out scratch
        for (index_t i = n0; i < n1; ++i) {
          Matrix& cols = cols_[static_cast<std::size_t>(i)];
          im2col(x.sample_ptr(i), geom_, cols);
          // y = cols · W_mainᵀ + bias. W columns [0, patch) are the kernel,
          // column `patch` is the bias.
          y.resize(s, out_channels_);
          for (index_t p = 0; p < s; ++p) {
            const real_t* cp = cols.row_ptr(p);
            real_t* yp = y.row_ptr(p);
            for (index_t o = 0; o < out_channels_; ++o) {
              const real_t* wo = params_.w.row_ptr(o);
              real_t acc = wo[patch];  // bias
              for (index_t j = 0; j < patch; ++j) acc += wo[j] * cp[j];
              yp[o] = acc;
            }
          }
          // Scatter s x c_out into the NCHW output plane.
          real_t* dst = out.sample_ptr(i);
          for (index_t o = 0; o < out_channels_; ++o)
            for (index_t p = 0; p < s; ++p) dst[o * s + p] = y(p, o);
          if (ctx.capture) {
            // Sec. IV spatial-sum: x̂_i = Σ_p cols(p,:); augmentation column
            // = S so the bias block of ĝ_i â_iᵀ matches Σ_p g_p [x_p; 1]ᵀ
            // exactly in the bias coordinate.
            real_t* arow = params_.a_samples.row_ptr(i);
            for (index_t j = 0; j < patch; ++j) {
              real_t acc = 0.0;
              for (index_t p = 0; p < s; ++p) acc += cols(p, j);
              arow[j] = acc;
            }
            arow[patch] = static_cast<real_t>(s);
          }
        }
      },
      "nn/conv2d_fwd",
      audit::Footprint([&](index_t n0, index_t n1, audit::WriteSet& ws) {
        ws.add_samples(out, n0, n1);
        ws.add_range(cols_.data(), n0, n1);
        if (ctx.capture) ws.add_rows(params_.a_samples, n0, n1);
      }));
}

void Conv2d::backward(const std::vector<const Tensor4*>& in,
                      const Tensor4& /*out*/, const Tensor4& gout,
                      const std::vector<Tensor4*>& grad_in,
                      const PassContext& ctx) {
  const index_t n = gout.n(), oh = geom_.out_h(), ow = geom_.out_w();
  const index_t s = oh * ow, patch = geom_.patch_size();
  Tensor4* gin = grad_in[0];  // null: nothing reads this input's gradient
  if (ctx.capture) params_.g_samples.resize(n, out_channels_);

  if (kern::active() != kern::Tier::kScalar) {
    const Tensor4& x = *in[0];
    // Weight gradient: gw rows [o0, o1) accumulate
    // gout[i][o0:o1, :] · [cols(x_i) | 1] over the samples, patches read
    // from x_i on the fly. Grain 8 keeps chunk boundaries on whole register
    // tiles: the direct pass's NR-wide gwᵀ columns, the materialized GEMM's
    // MR=8 row panels. Per gw element the accumulation is sample-ascending then
    // position-ascending regardless of the channel partition — bitwise
    // identical at any thread count within the tier.
    par::parallel_for(
        0, out_channels_, 8,
        [&](index_t o0, index_t o1) {
          kern::conv_wgrad(gout, x, geom_, params_.gw, o0, o1);
          if (ctx.capture) {
            for (index_t o = o0; o < o1; ++o)
              for (index_t i = 0; i < n; ++i) {
                const real_t* src = gout.sample_ptr(i) + o * s;
                real_t bias_acc = 0.0;
                for (index_t p = 0; p < s; ++p) bias_acc += src[p];
                params_.g_samples(i, o) = bias_acc * static_cast<real_t>(n);
              }
          }
        },
        "nn/conv2d_wgrad",
        audit::Footprint([&](index_t o0, index_t o1, audit::WriteSet& ws) {
          ws.add_rows(params_.gw, o0, o1);
          if (ctx.capture) ws.add_cols(params_.g_samples, o0, o1);
        }));

    // Input gradient against a weight operand packed once per call, added
    // into each sample's gin plane.
    if (gin == nullptr) return;
    const kern::PackedW pwd = kern::pack_conv_dgrad_w(params_.w, geom_);
    par::parallel_for(
        0, n, 1,
        [&](index_t n0, index_t n1) {
          for (index_t i = n0; i < n1; ++i)
            kern::conv_dgrad(gout.sample_ptr(i), pwd, geom_,
                             gin->sample_ptr(i));
        },
        "nn/conv2d_dgrad", audit::sample_block(*gin));
    return;
  }

  HYLO_CHECK(static_cast<index_t>(cols_.size()) == n,
             "Conv2d backward in the scalar kernel tier needs the im2col "
             "cache of a scalar-tier forward over the same batch (it holds "
                 << cols_.size() << " samples, backward got " << n
                 << "); the kernel tier changed between forward and "
                    "backward");

  // Weight/bias gradient, channel-parallel: each gw row belongs to exactly
  // one output channel, so partitioning over channels gives disjoint writes
  // while each element still accumulates samples in i-ascending, position-
  // ascending order — the exact serial order, hence bitwise identical. The
  // per-channel output-grad plane gout[i][o] is contiguous, so no s x c_out
  // transpose is materialized.
  par::parallel_for(
      0, out_channels_, 1,
      [&](index_t o0, index_t o1) {
        for (index_t o = o0; o < o1; ++o) {
          real_t* go = params_.gw.row_ptr(o);
          for (index_t i = 0; i < n; ++i) {
            const real_t* src = gout.sample_ptr(i) + o * s;
            const Matrix& cols = cols_[static_cast<std::size_t>(i)];
            real_t bias_acc = 0.0;
            for (index_t p = 0; p < s; ++p) {
              const real_t g = src[p];
              if (g == 0.0) continue;
              bias_acc += g;
              const real_t* cp = cols.row_ptr(p);
              for (index_t j = 0; j < patch; ++j) go[j] += g * cp[j];
            }
            go[patch] += bias_acc;
            if (ctx.capture)
              params_.g_samples(i, o) = bias_acc * static_cast<real_t>(n);
          }
        }
      },
      "nn/conv2d_wgrad",
      audit::Footprint([&](index_t o0, index_t o1, audit::WriteSet& ws) {
        ws.add_rows(params_.gw, o0, o1);
        if (ctx.capture) ws.add_cols(params_.g_samples, o0, o1);
      }));

  // Input gradient, batch-parallel: dcols = gy · W_main per sample, scattered
  // back with col2im into that sample's disjoint gin plane.
  if (gin == nullptr) return;
  par::parallel_for(
      0, n, 1,
      [&](index_t n0, index_t n1) {
        Matrix dcols;
        for (index_t i = n0; i < n1; ++i) {
          const real_t* src = gout.sample_ptr(i);
          dcols.resize(s, patch);
          for (index_t p = 0; p < s; ++p) {
            real_t* dp = dcols.row_ptr(p);
            for (index_t o = 0; o < out_channels_; ++o) {
              const real_t g = src[o * s + p];
              if (g == 0.0) continue;
              const real_t* wo = params_.w.row_ptr(o);
              for (index_t j = 0; j < patch; ++j) dp[j] += g * wo[j];
            }
          }
          col2im_add(dcols, geom_, gin->sample_ptr(i));
        }
      },
      "nn/conv2d_dgrad", audit::sample_block(*gin));
}

}  // namespace hylo
