// NCHW convolution and pooling, implemented as self-contained autograd ops
// with hand-written im2col / col2im so the backward pass needs no view
// gymnastics.
//
// conv2d fans out over images via tx::par above a flop threshold. The image
// decomposition writes disjoint output (and gx) ranges; the weight gradient
// uses per-image partial buffers folded in image order, which reproduces the
// sequential accumulation bit-for-bit (each image contributes exactly one
// float per gw cell), so results match at every TYXE_NUM_THREADS.
//
// The gemms run on the tx::simd micro-kernels (gemm_acc / gemm_bt_acc), which
// evaluate the same canonical arithmetic at every dispatch level, so conv
// results are also bitwise identical across TYXE_SIMD settings. Output
// buffers come from tx::alloc; per-worker im2col scratch stays plain (never
// tensor-adopted).
#include <algorithm>
#include <limits>
#include <utility>

#include "obs/event_sink.h"
#include "obs/prof.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "tensor/alloc.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {

namespace {

/// Flops (n * patch * spatial * oc) above which conv2d fans out.
constexpr std::int64_t kConvParThreshold = std::int64_t{1} << 16;
/// Per-image gw partials are skipped above this many floats (n * |W|): the
/// gate is a pure function of shapes, so determinism is unaffected.
constexpr std::int64_t kConvPartialCap = std::int64_t{1} << 22;

struct ConvDims {
  std::int64_t n, ic, ih, iw;      // input
  std::int64_t oc, kh, kw;         // kernel
  std::int64_t oh, ow;             // output spatial
  std::int64_t stride, padding;
};

ConvDims conv_dims(const Tensor& x, const Tensor& w, std::int64_t stride,
                   std::int64_t padding) {
  TX_CHECK(x.rank() == 4 && w.rank() == 4, "conv2d expects NCHW x and OIHW w");
  ConvDims d{};
  d.n = x.dim(0);
  d.ic = x.dim(1);
  d.ih = x.dim(2);
  d.iw = x.dim(3);
  d.oc = w.dim(0);
  d.kh = w.dim(2);
  d.kw = w.dim(3);
  d.stride = stride;
  d.padding = padding;
  TX_CHECK(w.dim(1) == d.ic, "conv2d: weight in-channels ", w.dim(1),
           " != input channels ", d.ic);
  TX_CHECK(stride >= 1 && padding >= 0, "conv2d: bad stride/padding");
  d.oh = (d.ih + 2 * padding - d.kh) / stride + 1;
  d.ow = (d.iw + 2 * padding - d.kw) / stride + 1;
  TX_CHECK(d.oh > 0 && d.ow > 0, "conv2d: empty output");
  return d;
}

/// Output positions [lo, hi) along one axis whose input coordinate
/// o * stride + offset lands inside [0, extent); empty when lo == hi.
std::pair<std::int64_t, std::int64_t> inside_range(std::int64_t offset,
                                                   std::int64_t stride,
                                                   std::int64_t extent,
                                                   std::int64_t count) {
  const std::int64_t lo =
      std::min(count, offset >= 0 ? 0 : (stride - 1 - offset) / stride);
  const std::int64_t hi =
      extent > offset
          ? std::min(count, (extent - offset + stride - 1) / stride)
          : 0;
  return {lo, std::max(lo, hi)};
}

/// Expand one image (ic, ih, iw) into columns (ic*kh*kw, oh*ow). The
/// in-bounds output range is computed once per (c, ky, kx): a column row that
/// touches padding is zeroed whole, then each in-bounds span is copied,
/// contiguously at stride 1.
void im2col(const float* img, const ConvDims& d, float* cols) {
  const std::int64_t spatial = d.oh * d.ow;
  for (std::int64_t c = 0; c < d.ic; ++c) {
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      const auto [y0, y1] = inside_range(ky - d.padding, d.stride, d.ih, d.oh);
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        const auto [x0, x1] =
            inside_range(kx - d.padding, d.stride, d.iw, d.ow);
        float* dst = cols + ((c * d.kh + ky) * d.kw + kx) * spatial;
        if (y1 - y0 < d.oh || x1 - x0 < d.ow) {
          std::fill(dst, dst + spatial, 0.0f);
        }
        const std::int64_t len = x1 - x0;
        if (len == 0) continue;
        for (std::int64_t oy = y0; oy < y1; ++oy) {
          const std::int64_t iy = oy * d.stride + ky - d.padding;
          const float* src =
              img + (c * d.ih + iy) * d.iw + x0 * d.stride + kx - d.padding;
          float* out = dst + oy * d.ow + x0;
          if (d.stride == 1) {
            for (std::int64_t t = 0; t < len; ++t) out[t] = src[t];
          } else {
            for (std::int64_t t = 0; t < len; ++t) out[t] = src[t * d.stride];
          }
        }
      }
    }
  }
}

/// Scatter columns (ic*kh*kw, oh*ow) back into an image, accumulating over
/// the in-bounds range in (c, ky, kx, oy, ox) order: that order fixes the
/// sequence of additions each input cell receives.
void col2im(const float* cols, const ConvDims& d, float* img) {
  const std::int64_t spatial = d.oh * d.ow;
  for (std::int64_t c = 0; c < d.ic; ++c) {
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      const auto [y0, y1] = inside_range(ky - d.padding, d.stride, d.ih, d.oh);
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        const auto [x0, x1] =
            inside_range(kx - d.padding, d.stride, d.iw, d.ow);
        if (x1 == x0) continue;
        const float* src = cols + ((c * d.kh + ky) * d.kw + kx) * spatial;
        for (std::int64_t oy = y0; oy < y1; ++oy) {
          const std::int64_t iy = oy * d.stride + ky - d.padding;
          const float* in = src + oy * d.ow;
          float* out =
              img + (c * d.ih + iy) * d.iw + x0 * d.stride + kx - d.padding;
          if (d.stride == 1) {
            for (std::int64_t ox = x0; ox < x1; ++ox) out[ox - x0] += in[ox];
          } else {
            for (std::int64_t ox = x0; ox < x1; ++ox) {
              out[(ox - x0) * d.stride] += in[ox];
            }
          }
        }
      }
    }
  }
}

/// Trace-slice args for a convolution (trace-mode-only cost).
std::string conv_trace_args(const ConvDims& d) {
  const std::int64_t patch = d.ic * d.kh * d.kw;
  obs::Event e;
  e.set("n", d.n).set("ic", d.ic).set("oc", d.oc);
  e.set("kh", d.kh).set("kw", d.kw).set("oh", d.oh).set("ow", d.ow);
  e.set("flops", 2 * d.n * patch * d.oh * d.ow * d.oc);
  return e.to_json();
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
              std::int64_t stride, std::int64_t padding) {
  const ConvDims d = conv_dims(x, weight, stride, padding);
  const std::int64_t patch = d.ic * d.kh * d.kw;
  const std::int64_t spatial = d.oh * d.ow;
  std::vector<float> out = alloc::buffer(d.n * d.oc * spatial);
  const bool has_bias = bias.defined();
  const std::int64_t out_numel = d.n * d.oc * spatial;
  {
    // 2·n·patch·spatial·oc gemm flops, plus one add per output for the bias;
    // traffic model: x/w read once, out written once, bias adds a re-walk of
    // the output plus the bias vector itself.
    obs::prof::KernelScope prof(
        "conv2d",
        2 * d.n * patch * spatial * d.oc + (has_bias ? d.n * d.oc * spatial : 0),
        4 * (x.numel() + weight.numel() + out_numel) +
            (has_bias ? 4 * (d.oc + out_numel) : 0));
    {
      obs::ScopedTimer span(
          "par.conv2d", obs::tracing() ? conv_trace_args(d) : std::string());
      const std::int64_t flops = d.n * patch * spatial * d.oc;
      const std::int64_t grain = flops < kConvParThreshold ? d.n : 1;
      par::parallel_for(0, d.n, grain, [&](std::int64_t i0, std::int64_t i1) {
        std::vector<float> cols(static_cast<std::size_t>(patch * spatial));
        for (std::int64_t img = i0; img < i1; ++img) {
          im2col(x.data() + img * d.ic * d.ih * d.iw, d, cols.data());
          // weight (oc, patch) * cols (patch, spatial) -> out (oc, spatial)
          simd::gemm_acc(weight.data(), patch, 1, cols.data(),
                         out.data() + img * d.oc * spatial, d.oc, patch,
                         spatial);
        }
      });
    }
    if (bias.defined()) {
      TX_CHECK(bias.rank() == 1 && bias.dim(0) == d.oc, "conv2d: bias mismatch");
      for (std::int64_t img = 0; img < d.n; ++img) {
        for (std::int64_t c = 0; c < d.oc; ++c) {
          float* dst = out.data() + (img * d.oc + c) * spatial;
          const float bv = bias.at(c);
          for (std::int64_t s = 0; s < spatial; ++s) dst[s] += bv;
        }
      }
    }
  }
  std::vector<Tensor> inputs{x, weight};
  if (has_bias) inputs.push_back(bias);
  return make_tensor_from_op(
      "conv2d", Shape{d.n, d.oc, d.oh, d.ow}, std::move(out), inputs,
      [x, weight, bias, d, patch, spatial](const Tensor& g) {
        // Only the inputs that require grad get one: a skipped gx runs
        // neither the dcols gemm nor col2im, a skipped gw neither im2col
        // nor the dW gemm.
        const bool need_x = x.requires_grad();
        const bool need_w = weight.requires_grad();
        const bool need_b = bias.requires_grad();
        Tensor gx = need_x ? zeros(x.shape()) : Tensor();
        Tensor gw = need_w ? zeros(weight.shape()) : Tensor();
        obs::ScopedTimer span(
            "par.conv2d_bwd",
            obs::tracing() ? conv_trace_args(d) : std::string());
        const std::int64_t wsize = weight.numel();
        const std::int64_t g_numel = d.n * d.oc * spatial;
        // Per gemm that runs (dW, dcols): 2·n·patch·spatial·oc flops, g read
        // once, x/w each read once and one gradient written. The bias grad
        // re-reads g and writes gb.
        const std::int64_t products = int{need_x} + int{need_w};
        obs::prof::KernelScope prof(
            "conv2d_bwd",
            products * 2 * d.n * patch * spatial * d.oc +
                (need_b ? d.n * d.oc * spatial : 0),
            products * 4 * (x.numel() + wsize + g_numel) +
                (need_b ? 4 * (g_numel + d.oc) : 0));
        // One image's share: dW (oc, patch) += gout (oc, spatial) *
        // cols (patch, spatial)^T into `gw_img`, and dcols (patch, spatial)
        // = W (oc, patch)^T * gout (oc, spatial) scattered into gx.
        const auto image = [&](std::int64_t img, float* gw_img,
                               std::vector<float>& cols,
                               std::vector<float>& gcols) {
          const float* gout = g.data() + img * d.oc * spatial;
          if (need_w) {
            im2col(x.data() + img * d.ic * d.ih * d.iw, d, cols.data());
            simd::gemm_bt_acc(gout, cols.data(), gw_img, d.oc, spatial, patch);
          }
          if (need_x) {
            std::fill(gcols.begin(), gcols.end(), 0.0f);
            simd::gemm_acc(weight.data(), 1, patch, gout, gcols.data(), patch,
                           d.oc, spatial);
            col2im(gcols.data(), d, gx.data() + img * d.ic * d.ih * d.iw);
          }
        };
        const std::size_t cols_size =
            static_cast<std::size_t>(patch * spatial);
        const std::int64_t flops = d.n * patch * spatial * d.oc;
        const bool fan_out = d.n > 1 && flops >= kConvParThreshold &&
                             d.n * wsize <= kConvPartialCap;
        if (fan_out) {
          // Disjoint per-image gx plus per-image gw partials; the fold below
          // replays the sequential per-image accumulation order exactly.
          std::vector<float> gw_parts(
              need_w ? static_cast<std::size_t>(d.n * wsize) : 0, 0.0f);
          par::parallel_for(0, d.n, 1, [&](std::int64_t i0, std::int64_t i1) {
            std::vector<float> cols(need_w ? cols_size : 0);
            std::vector<float> gcols(need_x ? cols_size : 0);
            for (std::int64_t img = i0; img < i1; ++img) {
              image(img, need_w ? gw_parts.data() + img * wsize : nullptr,
                    cols, gcols);
            }
          });
          if (need_w) {
            float* pw = gw.data();
            for (std::int64_t img = 0; img < d.n; ++img) {
              simd::add_n(pw, gw_parts.data() + img * wsize, pw, wsize);
            }
          }
        } else {
          std::vector<float> cols(need_w ? cols_size : 0);
          std::vector<float> gcols(need_x ? cols_size : 0);
          for (std::int64_t img = 0; img < d.n; ++img) {
            image(img, need_w ? gw.data() : nullptr, cols, gcols);
          }
        }
        std::vector<Tensor> grads{gx, gw};
        if (bias.defined()) {
          Tensor gb;
          if (need_b) {
            gb = zeros(Shape{d.oc});
            for (std::int64_t img = 0; img < d.n; ++img) {
              for (std::int64_t c = 0; c < d.oc; ++c) {
                const float* src = g.data() + (img * d.oc + c) * spatial;
                float acc = 0.0f;
                for (std::int64_t s = 0; s < spatial; ++s) acc += src[s];
                gb.at(c) += acc;
              }
            }
          }
          grads.push_back(gb);
        }
        return grads;
      });
}

Tensor max_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  TX_CHECK(x.rank() == 4, "max_pool2d expects NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const std::int64_t oh = (ih - kernel) / stride + 1;
  const std::int64_t ow = (iw - kernel) / stride + 1;
  TX_CHECK(oh > 0 && ow > 0, "max_pool2d: empty output");
  const std::int64_t planes = n * c;
  std::vector<float> out = alloc::buffer_uninit(planes * oh * ow);
  std::vector<std::int64_t> arg(out.size());
  const float* px = x.data();
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = px + p * ih * iw;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = -1;
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            const std::int64_t iy = oy * stride + ky;
            const std::int64_t ix = ox * stride + kx;
            const float v = plane[iy * iw + ix];
            if (v > best) {
              best = v;
              best_idx = p * ih * iw + iy * iw + ix;
            }
          }
        }
        const auto o = static_cast<std::size_t>(p * oh * ow + oy * ow + ox);
        out[o] = best;
        arg[o] = best_idx;
      }
    }
  }
  const Shape in_shape = x.shape();
  return make_tensor_from_op(
      "max_pool2d", Shape{n, c, oh, ow}, std::move(out), {x},
      [in_shape, arg](const Tensor& g) {
        Tensor gx = zeros(in_shape);
        for (std::size_t o = 0; o < arg.size(); ++o) {
          gx.at(arg[o]) += g.at(static_cast<std::int64_t>(o));
        }
        return std::vector<Tensor>{gx};
      });
}

Tensor avg_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  TX_CHECK(x.rank() == 4, "avg_pool2d expects NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const std::int64_t oh = (ih - kernel) / stride + 1;
  const std::int64_t ow = (iw - kernel) / stride + 1;
  TX_CHECK(oh > 0 && ow > 0, "avg_pool2d: empty output");
  const std::int64_t planes = n * c;
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  std::vector<float> out = alloc::buffer_uninit(planes * oh * ow);
  const float* px = x.data();
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = px + p * ih * iw;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float acc = 0.0f;
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            acc += plane[(oy * stride + ky) * iw + (ox * stride + kx)];
          }
        }
        out[static_cast<std::size_t>(p * oh * ow + oy * ow + ox)] = acc * inv;
      }
    }
  }
  const Shape in_shape = x.shape();
  const std::int64_t k = kernel, s = stride, IH = ih, IW = iw, OH = oh, OW = ow,
                     P = planes;
  return make_tensor_from_op(
      "avg_pool2d", Shape{n, c, oh, ow}, std::move(out), {x},
      [in_shape, k, s, IH, IW, OH, OW, P, inv](const Tensor& g) {
        Tensor gx = zeros(in_shape);
        float* pg = gx.data();
        const float* src = g.data();
        for (std::int64_t p = 0; p < P; ++p) {
          float* plane = pg + p * IH * IW;
          for (std::int64_t oy = 0; oy < OH; ++oy) {
            for (std::int64_t ox = 0; ox < OW; ++ox) {
              const float gv = src[p * OH * OW + oy * OW + ox] * inv;
              for (std::int64_t ky = 0; ky < k; ++ky) {
                for (std::int64_t kx = 0; kx < k; ++kx) {
                  plane[(oy * s + ky) * IW + (ox * s + kx)] += gv;
                }
              }
            }
          }
        }
        return std::vector<Tensor>{gx};
      });
}

}  // namespace tx
