// Elementwise binary ops with NumPy broadcasting and unary math ops.
//
// The same-shape binary fast path and the unary maps fan out over flat index
// ranges via tx::par above kElemParThreshold elements, and dispatch to
// tx::simd kernels where one exists. Each output element is a pure function
// of its inputs and the simd kernels are lane-independent mirrors of the
// scalar arithmetic, so results are bitwise-identical at every
// TYXE_NUM_THREADS and every TYXE_SIMD level. The generic broadcast path
// stays sequential: it walks the output in runs (for_each_run in
// tensor/shape.h) with tight loops for dense spans against dense spans (the
// simd kernel), or against one broadcast value; a scalar-operand fast path
// covers the ubiquitous tensor-op-scalar case without building strides.
//
// Output buffers come from tx::alloc (recycled within inference steps) and
// are moved straight into the result tensor — one allocation per op.
#include <cmath>

#include "obs/event_sink.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "resil/fault.h"
#include "tensor/alloc.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {

namespace {

/// Elements above which elementwise loops fan out.
constexpr std::int64_t kElemParThreshold = std::int64_t{1} << 15;
/// Minimum elements per chunk.
constexpr std::int64_t kElemGrain = std::int64_t{1} << 12;

using BinaryKernel = void (*)(const float*, const float*, float*,
                              std::int64_t);
using UnaryKernel = void (*)(const float*, float*, std::int64_t);

struct BinaryResult {
  Shape shape;
  std::vector<float> data;
};

/// Applies `fn(av, bv)` over the broadcast of a and b, returning the raw
/// output buffer (callers move it into the result tensor). `vk`, when given,
/// must compute exactly `fn` per lane; it serves the same-shape fast path.
template <typename Fn>
BinaryResult broadcast_binary_buffer(const Tensor& a, const Tensor& b, Fn fn,
                                     BinaryKernel vk = nullptr) {
  const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
  const std::int64_t n = numel_of(out_shape);
  std::vector<float> out = alloc::buffer_uninit(n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (a.shape() == b.shape()) {  // fast path: no index arithmetic
    if (n >= kElemParThreshold) {
      // Trace-only slice: elementwise ops are too hot for a per-call
      // histogram, but fanned-out ones are worth seeing on the timeline.
      obs::TraceSpan trace(
          "par.elementwise",
          obs::tracing() ? obs::Event().set("n", n).to_json() : std::string());
      // One op per element; both inputs read, the output written.
      obs::prof::KernelScope prof("elementwise", n, 12 * n);
      par::parallel_for(0, n, kElemGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          if (vk) {
                            vk(pa + i0, pb + i0, po + i0, i1 - i0);
                          } else {
                            for (std::int64_t i = i0; i < i1; ++i) {
                              po[i] = fn(pa[i], pb[i]);
                            }
                          }
                        });
    } else if (vk) {
      vk(pa, pb, po, n);
    } else {
      for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
    }
  } else if (b.numel() == 1 && numel_of(a.shape()) == n) {
    // Scalar (or single-element) right operand: no index arithmetic needed.
    const float bv = pb[0];
    for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], bv);
  } else if (a.numel() == 1 && numel_of(b.shape()) == n) {
    const float av = pa[0];
    for (std::int64_t i = 0; i < n; ++i) po[i] = fn(av, pb[i]);
  } else {
    const Shape sa = broadcast_strides(a.shape(), out_shape);
    const Shape sb = broadcast_strides(b.shape(), out_shape);
    for_each_run<2>(out_shape, {&sa, &sb}, [&](const Run<2>& r) {
      const float* ra = pa + r.start[0];
      const float* rb = pb + r.start[1];
      float* ro = po + r.flat;
      const std::int64_t ia = r.inner[0], ib = r.inner[1];
      if (ia == 1 && ib == 1) {
        if (vk) {
          vk(ra, rb, ro, r.len);
        } else {
          for (std::int64_t j = 0; j < r.len; ++j) ro[j] = fn(ra[j], rb[j]);
        }
      } else if (ia == 1 && ib == 0) {
        const float bv = *rb;
        for (std::int64_t j = 0; j < r.len; ++j) ro[j] = fn(ra[j], bv);
      } else if (ia == 0 && ib == 1) {
        const float av = *ra;
        for (std::int64_t j = 0; j < r.len; ++j) ro[j] = fn(av, rb[j]);
      } else {
        for (std::int64_t j = 0; j < r.len; ++j) {
          ro[j] = fn(ra[j * ia], rb[j * ib]);
        }
      }
    });
  }
  return {out_shape, std::move(out)};
}

/// Tensor-returning wrapper, used by backward closures computing masks.
template <typename Fn>
Tensor broadcast_binary_forward(const Tensor& a, const Tensor& b, Fn fn) {
  BinaryResult r = broadcast_binary_buffer(a, b, fn);
  return Tensor(std::move(r.shape), std::move(r.data));
}

/// Shared machinery for unary ops: forward map plus a backward closure that
/// receives (input, output alias, upstream grad). `vk`, when given, must
/// compute exactly `fwd` per element (same rounding) and serves both the
/// fanned-out and sequential paths.
template <typename Fwd, typename Bwd>
Tensor map_unary(const char* name, const Tensor& a, Fwd fwd, Bwd bwd,
                 UnaryKernel vk = nullptr) {
  TX_CHECK(a.defined(), name, " on undefined tensor");
  const std::int64_t n = a.numel();
  std::vector<float> out = alloc::buffer_uninit(n);
  const float* pa = a.data();
  float* po = out.data();
  if (n >= kElemParThreshold) {
    obs::TraceSpan trace(
        "par.unary", obs::tracing()
                         ? obs::Event().set("op", name).set("n", n).to_json()
                         : std::string());
    obs::prof::KernelScope prof("unary", n, 8 * n);
    par::parallel_for(0, n, kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
      if (vk) {
        vk(pa + i0, po + i0, i1 - i0);
      } else {
        for (std::int64_t i = i0; i < i1; ++i) po[i] = fwd(pa[i]);
      }
    });
  } else if (vk) {
    vk(pa, po, n);
  } else {
    for (std::int64_t i = 0; i < n; ++i) po[i] = fwd(pa[i]);
  }
  return make_tensor_from_op_with_out(
      name, a.shape(), std::move(out), {a},
      [a, bwd](const Tensor& g, const Tensor& y) {
        return std::vector<Tensor>{bwd(a, y, g)};
      });
}

void square_kernel(const float* a, float* o, std::int64_t n) {
  simd::mul_n(a, a, o, n);
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  fault::check_alloc("tensor.add");
  BinaryResult out = broadcast_binary_buffer(
      a, b, [](float x, float y) { return x + y; }, simd::add_n);
  const Shape as = a.shape(), bs = b.shape();
  return make_tensor_from_op(
      "add", std::move(out.shape), std::move(out.data), {a, b},
      [as, bs](const Tensor& g) {
        return std::vector<Tensor>{sum_to(g, as), sum_to(g, bs)};
      });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  BinaryResult out = broadcast_binary_buffer(
      a, b, [](float x, float y) { return x - y; }, simd::sub_n);
  const Shape as = a.shape(), bs = b.shape();
  return make_tensor_from_op(
      "sub", std::move(out.shape), std::move(out.data), {a, b},
      [as, bs](const Tensor& g) {
        return std::vector<Tensor>{sum_to(g, as), sum_to(neg(g), bs)};
      });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  BinaryResult out = broadcast_binary_buffer(
      a, b, [](float x, float y) { return x * y; }, simd::mul_n);
  return make_tensor_from_op(
      "mul", std::move(out.shape), std::move(out.data), {a, b},
      [a, b](const Tensor& g) {
        return std::vector<Tensor>{sum_to(mul(g, b), a.shape()),
                                   sum_to(mul(g, a), b.shape())};
      });
}

Tensor div(const Tensor& a, const Tensor& b) {
  BinaryResult out = broadcast_binary_buffer(
      a, b, [](float x, float y) { return x / y; }, simd::div_n);
  return make_tensor_from_op(
      "div", std::move(out.shape), std::move(out.data), {a, b},
      [a, b](const Tensor& g) {
        Tensor ga = sum_to(div(g, b), a.shape());
        Tensor gb = sum_to(neg(div(mul(g, a), mul(b, b))), b.shape());
        return std::vector<Tensor>{ga, gb};
      });
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  // Scalar on purpose (no simd kernel): the x >= y tie-break routing
  // gradients to `a` is part of the documented contract, and vmaxps breaks
  // ties the other way.
  BinaryResult out = broadcast_binary_buffer(
      a, b, [](float x, float y) { return x >= y ? x : y; });
  return make_tensor_from_op(
      "maximum", std::move(out.shape), std::move(out.data), {a, b},
      [a, b](const Tensor& g) {
        NoGradGuard ng;
        Tensor mask = broadcast_binary_forward(
            a, b, [](float x, float y) { return x >= y ? 1.0f : 0.0f; });
        Tensor inv = 1.0f - mask;
        return std::vector<Tensor>{sum_to(mul(g, mask), a.shape()),
                                   sum_to(mul(g, inv), b.shape())};
      });
}

Tensor minimum(const Tensor& a, const Tensor& b) {
  BinaryResult out = broadcast_binary_buffer(
      a, b, [](float x, float y) { return x <= y ? x : y; });
  return make_tensor_from_op(
      "minimum", std::move(out.shape), std::move(out.data), {a, b},
      [a, b](const Tensor& g) {
        NoGradGuard ng;
        Tensor mask = broadcast_binary_forward(
            a, b, [](float x, float y) { return x <= y ? 1.0f : 0.0f; });
        Tensor inv = 1.0f - mask;
        return std::vector<Tensor>{sum_to(mul(g, mask), a.shape()),
                                   sum_to(mul(g, inv), b.shape())};
      });
}

Tensor neg(const Tensor& a) {
  return map_unary(
      "neg", a, [](float x) { return -x; },
      [](const Tensor&, const Tensor&, const Tensor& g) { return neg(g); },
      simd::neg_n);
}

Tensor exp(const Tensor& a) {
  return map_unary(
      "exp", a, [](float x) { return std::exp(x); },
      [](const Tensor&, const Tensor& y, const Tensor& g) { return mul(g, y); });
}

Tensor log(const Tensor& a) {
  return map_unary(
      "log", a, [](float x) { return std::log(x); },
      [](const Tensor& x, const Tensor&, const Tensor& g) { return div(g, x); });
}

Tensor sqrt(const Tensor& a) {
  return map_unary(
      "sqrt", a, [](float x) { return std::sqrt(x); },
      [](const Tensor&, const Tensor& y, const Tensor& g) {
        return div(g, mul(Tensor::scalar(2.0f), y));
      },
      simd::sqrt_n);
}

Tensor square(const Tensor& a) {
  return map_unary(
      "square", a, [](float x) { return x * x; },
      [](const Tensor& x, const Tensor&, const Tensor& g) {
        return mul(g, mul(Tensor::scalar(2.0f), x));
      },
      square_kernel);
}

Tensor abs(const Tensor& a) {
  return map_unary(
      "abs", a, [](float x) { return std::fabs(x); },
      [](const Tensor& x, const Tensor&, const Tensor& g) {
        NoGradGuard ng;
        Tensor sign = broadcast_binary_forward(
            x, Tensor::scalar(0.0f),
            [](float v, float) { return v >= 0.0f ? 1.0f : -1.0f; });
        return mul(g, sign);
      },
      simd::abs_n);
}

Tensor tanh(const Tensor& a) {
  return map_unary(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](const Tensor&, const Tensor& y, const Tensor& g) {
        return mul(g, sub(Tensor::scalar(1.0f), mul(y, y)));
      });
}

Tensor sigmoid(const Tensor& a) {
  return map_unary(
      "sigmoid", a,
      [](float x) {
        // Stable logistic function.
        return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                         : std::exp(x) / (1.0f + std::exp(x));
      },
      [](const Tensor&, const Tensor& y, const Tensor& g) {
        return mul(g, mul(y, sub(Tensor::scalar(1.0f), y)));
      });
}

Tensor relu(const Tensor& a) {
  return map_unary(
      "relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](const Tensor& x, const Tensor&, const Tensor& g) {
        NoGradGuard ng;
        Tensor mask = broadcast_binary_forward(
            x, Tensor::scalar(0.0f),
            [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; });
        return mul(g, mask);
      },
      simd::relu_n);
}

Tensor softplus(const Tensor& a) {
  return map_unary(
      "softplus", a,
      [](float x) {
        // log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}) for stability.
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
      },
      [](const Tensor& x, const Tensor&, const Tensor& g) {
        return mul(g, sigmoid(x));
      });
}

Tensor sin(const Tensor& a) {
  return map_unary(
      "sin", a, [](float x) { return std::sin(x); },
      [](const Tensor& x, const Tensor&, const Tensor& g) {
        return mul(g, cos(x));
      });
}

Tensor cos(const Tensor& a) {
  return map_unary(
      "cos", a, [](float x) { return std::cos(x); },
      [](const Tensor& x, const Tensor&, const Tensor& g) {
        return mul(g, neg(sin(x)));
      });
}

Tensor erf(const Tensor& a) {
  constexpr float kTwoOverSqrtPi = 1.1283791670955126f;
  return map_unary(
      "erf", a, [](float x) { return std::erf(x); },
      [kTwoOverSqrtPi](const Tensor& x, const Tensor&, const Tensor& g) {
        return mul(g, mul(Tensor::scalar(kTwoOverSqrtPi), exp(neg(mul(x, x)))));
      });
}

Tensor pow_scalar(const Tensor& a, float p) {
  return map_unary(
      "pow_scalar", a, [p](float x) { return std::pow(x, p); },
      [p](const Tensor& x, const Tensor&, const Tensor& g) {
        return mul(g, mul(Tensor::scalar(p), pow_scalar(x, p - 1.0f)));
      });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  TX_CHECK(lo <= hi, "clamp: lo > hi");
  return map_unary(
      "clamp", a,
      [lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); },
      [lo, hi](const Tensor& x, const Tensor&, const Tensor& g) {
        NoGradGuard ng;
        Tensor mask = broadcast_binary_forward(
            x, Tensor::scalar(0.0f), [lo, hi](float v, float) {
              return (v >= lo && v <= hi) ? 1.0f : 0.0f;
            });
        return mul(g, mask);
      });
}

Tensor clamp_min(const Tensor& a, float lo) {
  return clamp(a, lo, std::numeric_limits<float>::infinity());
}

Tensor clamp_max(const Tensor& a, float hi) {
  return clamp(a, -std::numeric_limits<float>::infinity(), hi);
}

}  // namespace tx
