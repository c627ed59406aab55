// Fused single-pass kernels for the chains that dominate SVI/HMC steps:
//   fma(a, b, c)              = add(mul(a, b), c)      (rsample, leapfrog)
//   square_sum(a)             = sum(square(a))         (grad-norm instrument)
//   gauss_logpdf_sum(v, l, s) = sum(Normal(l,s).log_prob(v))  (ELBO terms)
//
// Each replaces a multi-op graph (one intermediate tensor per op) with one
// output tensor — cutting tape nodes, allocator traffic and memory churn per
// step. gauss_logpdf_sum caches nothing for its backward: the forward stages
// its density terms in one step-arena buffer for the canonical sum, and the
// backward is one pass that recomputes z from the inputs and writes all
// three gradients.
//
// Determinism contract: multiplies and adds round separately (the build sets
// -ffp-contract=off and the simd kernels never use hardware FMA), reductions
// use the canonical 8-lane tree from tx::simd, and every branch below is a
// pure function of shapes — so results are bitwise identical across
// TYXE_NUM_THREADS and TYXE_SIMD settings.
#include <cmath>

#include "obs/event_sink.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "tensor/alloc.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {

namespace {

/// Elements above which fma fans out (same thresholds as ops_elementwise).
constexpr std::int64_t kFusedParThreshold = std::int64_t{1} << 15;
constexpr std::int64_t kFusedGrain = std::int64_t{1} << 12;

/// log(sqrt(2*pi)), rounded to float once so every path subtracts the same
/// constant.
constexpr float kLogSqrt2Pi = 0.9189385332046727f;

/// One pass over the value for all three gradients of gauss_logpdf_sum,
/// recomputing z = (v - loc)/scale from the inputs instead of caching it:
///   d/dv = -g*z/s,  d/dloc = g*z/s,  d/dscale = g*(z^2 - 1)/s.
/// Each element rounds as the old tape ops did ((z * (1/s)) * g, then
/// ((z*z - 1) * (1/s)) * g). A loc or scale gradient whose shape matches the
/// value is written elementwise; a broadcast one folds its terms into one
/// double per cell in ascending value order (a pure function of the shapes)
/// and rounds once. Inputs that do not require grad get no gradient.
std::vector<Tensor> gauss_logpdf_backward(const Tensor& value,
                                          const Tensor& loc,
                                          const Tensor& scale,
                                          const Shape& ls, const Shape& ss,
                                          float g) {
  const Shape& vshape = value.shape();
  const std::int64_t n = value.numel();
  const std::int64_t ln = loc.numel(), sn = scale.numel();
  const bool want_v = value.requires_grad();
  const bool want_l = loc.requires_grad();
  const bool want_s = scale.requires_grad();
  const bool full_l = loc.shape() == vshape, full_s = scale.shape() == vshape;
  std::vector<float> dv, dl, ds;
  std::vector<double> acc_l, acc_s;
  if (want_v) dv = alloc::buffer_uninit(n);
  if (want_l) {
    dl = alloc::buffer_uninit(ln);
    if (!full_l) acc_l.assign(static_cast<std::size_t>(ln), 0.0);
  }
  if (want_s) {
    ds = alloc::buffer_uninit(sn);
    if (!full_s) acc_s.assign(static_cast<std::size_t>(sn), 0.0);
  }
  const float* pv = value.data();
  const float* pl = loc.data();
  const float* ps = scale.data();
  {
    // Per element: sub, two divs and two muls for z/s and g*z/s, the neg,
    // and mul, sub, two muls for the scale term. Reads value, loc and scale,
    // writes each requested gradient.
    obs::prof::KernelScope prof(
        "gauss_logpdf_bwd", 10 * n,
        4 * (n + ln + sn + static_cast<std::int64_t>(dv.size() + dl.size() +
                                                       ds.size())));
    for_each_run<2>(vshape, {&ls, &ss}, [&](const Run<2>& r) {
      const float* rv = pv + r.flat;
      const float* rl = pl + r.start[0];
      const float* rs = ps + r.start[1];
      const std::int64_t il = r.inner[0], is = r.inner[1];
      for (std::int64_t j = 0; j < r.len; ++j) {
        const float s = rs[j * is];
        const float z = (rv[j] - rl[j * il]) / s;
        const float inv = 1.0f / s;
        const float t = (z * inv) * g;
        if (want_v) dv[static_cast<std::size_t>(r.flat + j)] = -t;
        if (want_l) {
          const auto k = static_cast<std::size_t>(r.start[0] + j * il);
          if (full_l) {
            dl[k] = t;
          } else {
            acc_l[k] = acc_l[k] + static_cast<double>(t);
          }
        }
        if (want_s) {
          const float d = ((z * z - 1.0f) * inv) * g;
          const auto k = static_cast<std::size_t>(r.start[1] + j * is);
          if (full_s) {
            ds[k] = d;
          } else {
            acc_s[k] = acc_s[k] + static_cast<double>(d);
          }
        }
      }
    });
  }
  for (std::size_t k = 0; k < acc_l.size(); ++k) {
    dl[k] = static_cast<float>(acc_l[k]);
  }
  for (std::size_t k = 0; k < acc_s.size(); ++k) {
    ds[k] = static_cast<float>(acc_s[k]);
  }
  std::vector<Tensor> grads(3);
  if (want_v) grads[0] = Tensor(vshape, std::move(dv));
  if (want_l) grads[1] = Tensor(loc.shape(), std::move(dl));
  if (want_s) grads[2] = Tensor(scale.shape(), std::move(ds));
  return grads;
}

}  // namespace

Tensor fma(const Tensor& a, const Tensor& b, const Tensor& c) {
  const Shape out_shape =
      broadcast_shapes(broadcast_shapes(a.shape(), b.shape()), c.shape());
  const std::int64_t n = numel_of(out_shape);
  std::vector<float> out = alloc::buffer_uninit(n);
  const float* pa = a.data();
  const float* pb = b.data();
  const float* pc = c.data();
  float* po = out.data();
  // 2 flops per element (mul + add); three reads, one write.
  obs::prof::KernelScope prof("fused_fma", 2 * n, 16 * n);
  if (a.shape() == out_shape && b.shape() == out_shape &&
      c.shape() == out_shape) {
    if (n >= kFusedParThreshold) {
      obs::TraceSpan trace(
          "par.fused_fma",
          obs::tracing() ? obs::Event().set("n", n).to_json() : std::string());
      par::parallel_for(0, n, kFusedGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          simd::mul_add_n(pa + i0, pb + i0, pc + i0, po + i0,
                                          i1 - i0);
                        });
    } else {
      simd::mul_add_n(pa, pb, pc, po, n);
    }
  } else {
    const Shape as = broadcast_strides(a.shape(), out_shape);
    const Shape bs = broadcast_strides(b.shape(), out_shape);
    const Shape cs = broadcast_strides(c.shape(), out_shape);
    for_each_run<3>(out_shape, {&as, &bs, &cs}, [&](const Run<3>& r) {
      const float* ra = pa + r.start[0];
      const float* rb = pb + r.start[1];
      const float* rc = pc + r.start[2];
      float* ro = po + r.flat;
      const std::int64_t ia = r.inner[0], ib = r.inner[1], ic = r.inner[2];
      if (ia == 1 && ib == 1 && ic == 1) {
        simd::mul_add_n(ra, rb, rc, ro, r.len);
      } else {
        for (std::int64_t j = 0; j < r.len; ++j) {
          ro[j] = ra[j * ia] * rb[j * ib] + rc[j * ic];
        }
      }
    });
  }
  const Shape a_shape = a.shape(), b_shape = b.shape(), c_shape = c.shape();
  return make_tensor_from_op(
      "fused_fma", out_shape, std::move(out), {a, b, c},
      [a, b, a_shape, b_shape, c_shape](const Tensor& g) {
        return std::vector<Tensor>{sum_to(mul(g, b), a_shape),
                                   sum_to(mul(g, a), b_shape),
                                   sum_to(g, c_shape)};
      });
}

Tensor square_sum(const Tensor& a) {
  const std::int64_t n = a.numel();
  double s = 0.0;
  {
    // One mul + one add per element; input read once, scalar written.
    obs::prof::KernelScope prof("square_sum", 2 * n, 4 * (n + 1));
    s = simd::sumsq8(a.data(), n);
  }
  return make_tensor_from_op(
      "square_sum", Shape{}, {static_cast<float>(s)}, {a},
      [a](const Tensor& g) {
        return std::vector<Tensor>{mul(a, mul(g, Tensor::scalar(2.0f)))};
      });
}

Tensor gauss_logpdf_sum(const Tensor& value, const Tensor& loc,
                        const Tensor& scale) {
  const Shape& vshape = value.shape();
  TX_CHECK(broadcast_shapes(vshape, loc.shape()) == vshape,
           "gauss_logpdf_sum: loc [", join(loc.shape()),
           "] must broadcast to value [", join(vshape), "]");
  TX_CHECK(broadcast_shapes(vshape, scale.shape()) == vshape,
           "gauss_logpdf_sum: scale [", join(scale.shape()),
           "] must broadcast to value [", join(vshape), "]");
  const std::int64_t n = value.numel();
  const std::int64_t ln = loc.numel(), sn = scale.numel();
  const float* pv = value.data();
  const float* pl = loc.data();
  const float* ps = scale.data();
  const Shape ls = broadcast_strides(loc.shape(), vshape);
  const Shape ss = broadcast_strides(scale.shape(), vshape);
  // z = (v - loc)/scale, then in place -z^2/2 - log(scale) -
  // log(sqrt(2pi)): the same IEEE expressions as Normal::log_prob. The terms
  // are staged in a tensor from the step arena (recycled when it dies inside
  // a step) and summed in sum8's canonical order, so the value is bitwise
  // the unfused sum(log_prob).
  Tensor terms(vshape, alloc::buffer_uninit(n));
  float* pt = terms.data();
  double total = 0.0;
  {
    // Per element: sub, div, two muls, two subs, plus the log (counted as 2);
    // reads value, loc and scale once, writes the scalar.
    obs::prof::KernelScope prof("gauss_logpdf", 8 * n, 4 * (n + ln + sn + 1));
    for_each_run<2>(vshape, {&ls, &ss}, [&](const Run<2>& r) {
      const float* rv = pv + r.flat;
      const float* rl = pl + r.start[0];
      const float* rs = ps + r.start[1];
      float* z = pt + r.flat;
      const std::int64_t il = r.inner[0], is = r.inner[1];
      if (il == 1) {
        simd::sub_n(rv, rl, z, r.len);
      } else {
        for (std::int64_t j = 0; j < r.len; ++j) z[j] = rv[j] - rl[j * il];
      }
      if (is == 1) {
        simd::div_n(z, rs, z, r.len);
      } else {
        for (std::int64_t j = 0; j < r.len; ++j) z[j] = z[j] / rs[j * is];
      }
      if (is == 0) {
        // A broadcast scale takes its log once per run: the same value.
        const float log_s = std::log(*rs);
        for (std::int64_t j = 0; j < r.len; ++j) {
          z[j] = -0.5f * (z[j] * z[j]) - log_s - kLogSqrt2Pi;
        }
      } else {
        for (std::int64_t j = 0; j < r.len; ++j) {
          z[j] = -0.5f * (z[j] * z[j]) - std::log(rs[j * is]) - kLogSqrt2Pi;
        }
      }
    });
    total = simd::sum8(pt, n);
  }
  return make_tensor_from_op(
      "gauss_logpdf_sum", Shape{}, {static_cast<float>(total)},
      {value, loc, scale},
      [value, loc, scale, ls, ss](const Tensor& g) {
        return gauss_logpdf_backward(value, loc, scale, ls, ss, g.item());
      });
}

}  // namespace tx
