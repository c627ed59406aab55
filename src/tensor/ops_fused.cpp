// Fused single-pass kernels for the chains that dominate SVI/HMC steps:
//   fma(a, b, c)              = add(mul(a, b), c)      (rsample, leapfrog)
//   square_sum(a)             = sum(square(a))         (grad-norm instrument)
//   gauss_logpdf_sum(v, l, s) = sum(Normal(l,s).log_prob(v))  (ELBO terms)
//
// Each replaces a multi-op graph (one intermediate tensor per op) with one
// output tensor and, for gauss_logpdf_sum, two cached backward tensors —
// cutting allocator traffic and memory churn per step.
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
  const std::int64_t sn = scale.numel();
  const float* pv = value.data();
  const float* pl = loc.data();
  const float* ps = scale.data();
  // z is cached for the backward pass; lp is pure scratch for the canonical
  // reduction and stays a plain (unobserved) vector like other op scratch.
  std::vector<float> zb = alloc::buffer_uninit(n);
  std::vector<float> invb = alloc::buffer_uninit(sn);
  for (std::int64_t j = 0; j < sn; ++j) invb[j] = 1.0f / ps[j];
  std::vector<float> lp(static_cast<std::size_t>(n));
  double s = 0.0;
  {
    // Per element: sub, div, two muls, two subs, plus the log (counted as 2).
    obs::prof::KernelScope prof("gauss_logpdf", 8 * n, 4 * (4 * n + 1));
    if (loc.numel() == 1 && sn == 1) {
      const float l0 = pl[0], s0 = ps[0];
      const float log_s = std::log(s0);
      for (std::int64_t i = 0; i < n; ++i) {
        const float z = (pv[i] - l0) / s0;
        zb[static_cast<std::size_t>(i)] = z;
        lp[static_cast<std::size_t>(i)] =
            -0.5f * (z * z) - log_s - kLogSqrt2Pi;
      }
    } else if (loc.shape() == vshape && scale.shape() == vshape) {
      for (std::int64_t i = 0; i < n; ++i) {
        const float z = (pv[i] - pl[i]) / ps[i];
        zb[static_cast<std::size_t>(i)] = z;
        lp[static_cast<std::size_t>(i)] =
            -0.5f * (z * z) - std::log(ps[i]) - kLogSqrt2Pi;
      }
    } else {
      const Shape ls = broadcast_strides(loc.shape(), vshape);
      const Shape ss = broadcast_strides(scale.shape(), vshape);
      for_each_run<2>(vshape, {&ls, &ss}, [&](const Run<2>& r) {
        const float* rl = pl + r.start[0];
        const float* rs = ps + r.start[1];
        const std::int64_t il = r.inner[0], is = r.inner[1];
        // A broadcast scale takes its log once per run: the same value.
        const float log_s0 = is == 0 ? std::log(*rs) : 0.0f;
        for (std::int64_t j = 0; j < r.len; ++j) {
          const auto i = static_cast<std::size_t>(r.flat + j);
          const float sj = rs[j * is];
          const float z = (pv[i] - rl[j * il]) / sj;
          zb[i] = z;
          lp[i] = -0.5f * (z * z) - (is == 0 ? log_s0 : std::log(sj)) -
                  kLogSqrt2Pi;
        }
      });
    }
    s = simd::sum8(lp.data(), n);
  }
  // Detached caches: z = (v - loc)/scale and 1/scale (per scale element).
  Tensor Z(vshape, std::move(zb));
  Tensor INV(scale.shape(), std::move(invb));
  const Shape loc_shape = loc.shape(), scale_shape = scale.shape();
  return make_tensor_from_op(
      "gauss_logpdf_sum", Shape{}, {static_cast<float>(s)},
      {value, loc, scale},
      [Z, INV, loc_shape, scale_shape](const Tensor& g) {
        // d/dv = -g*z/s, d/dloc = g*z/s, d/dscale = g*(z^2 - 1)/s.
        Tensor t = mul(mul(Z, INV), g);
        Tensor dv = neg(t);
        Tensor dl = sum_to(t, loc_shape);
        Tensor z2m1 = sub(mul(Z, Z), Tensor::scalar(1.0f));
        Tensor ds = sum_to(mul(mul(z2m1, INV), g), scale_shape);
        return std::vector<Tensor>{dv, dl, ds};
      });
}

}  // namespace tx
