// Reductions: sum/mean over axis sets, max/min over a single axis,
// logsumexp, softmax, log_softmax, cumsum, argmax.
//
// Axis sums above kReduceParThreshold elements fan out over output cells via
// tx::par. Each cell folds its contributions in a fixed per-cell order that
// is a pure function of the shape — never of the thread count or SIMD level —
// so results are bitwise-identical at every TYXE_NUM_THREADS and TYXE_SIMD.
// The full sum uses the canonical 8-lane double reduction (tx::simd::sum8);
// contiguous-innermost axis cells use the canonical float reduction (sum8f).
// Below the threshold, axis sums and the extremum scans walk the input in
// runs (for_each_run) in flat order, so each cell folds its inputs in
// ascending flat order. Extremum scans and cumsum are order-sensitive and
// stay sequential scalar.
#include <algorithm>
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

/// Elements above which an axis reduction fans out.
constexpr std::int64_t kReduceParThreshold = std::int64_t{1} << 15;

/// `in_shape` with every dim in `axes` set to 1: the keepdim result shape.
Shape keep_shape_of(const Shape& in_shape,
                    const std::vector<std::int64_t>& axes) {
  const auto rank = static_cast<std::int64_t>(in_shape.size());
  Shape keep = in_shape;
  for (auto ax : axes) keep[static_cast<std::size_t>(normalize_axis(ax, rank))] = 1;
  return keep;
}

}  // namespace

Tensor sum(const Tensor& a) {
  const double s = simd::sum8(a.data(), a.numel());
  const Shape in_shape = a.shape();
  return make_tensor_from_op(
      "sum", Shape{}, {static_cast<float>(s)}, {a},
      [in_shape](const Tensor& g) {
        return std::vector<Tensor>{broadcast_to(g, in_shape)};
      });
}

Tensor sum(const Tensor& a, const std::vector<std::int64_t>& axes,
           bool keepdim) {
  TX_CHECK(!axes.empty(), "sum: empty axis list (use sum(a) for full sum)");
  const Shape keep_shape = keep_shape_of(a.shape(), axes);
  const std::int64_t out_n = numel_of(keep_shape);
  std::vector<float> out = alloc::buffer(out_n);
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  if (n >= kReduceParThreshold && out_n > 1) {
    obs::TraceSpan trace(
        "par.reduce_sum",
        obs::tracing()
            ? obs::Event().set("n", n).set("out_n", out_n).to_json()
            : std::string());
    obs::prof::KernelScope prof("reduce_sum", n, 4 * (n + out_n));
    // Per-output-cell kernel with disjoint writes. An input flat index
    // decomposes as base(cell) + offset(reduced coords); for a fixed cell,
    // ascending offset order equals ascending input flat order, so folding
    // each cell over ascending offsets reproduces the sequential loop's
    // per-cell accumulation order bitwise.
    // The reduced dims alone: the others go to extent 1, which the walk
    // drops. Row-major enumeration over them yields strictly ascending flat
    // offsets (mixed-radix carry argument).
    const Shape in_strides = contiguous_strides(a.shape());
    Shape red_shape = a.shape();
    for (std::size_t d = 0; d < red_shape.size(); ++d) {
      if (keep_shape[d] != 1) red_shape[d] = 1;
    }
    std::vector<std::int64_t> offsets;
    offsets.reserve(static_cast<std::size_t>(numel_of(red_shape)));
    for_each_run<1>(red_shape, {&in_strides}, [&](const Run<1>& run) {
      for (std::int64_t j = 0; j < run.len; ++j) {
        offsets.push_back(run.start[0] + j * run.inner[0]);
      }
    });
    // A cell's base is its input offset with the reduced coordinates at 0;
    // those dims have extent 1 in keep_shape, so the input strides serve.
    std::vector<std::int64_t> bases(static_cast<std::size_t>(out_n));
    for_each_run<1>(keep_shape, {&in_strides}, [&](const Run<1>& run) {
      for (std::int64_t j = 0; j < run.len; ++j) {
        bases[static_cast<std::size_t>(run.flat + j)] =
            run.start[0] + j * run.inner[0];
      }
    });
    const auto r = static_cast<std::int64_t>(offsets.size());
    const std::int64_t grain = std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, r));
    float* po = out.data();
    // When the reduced dims form the innermost contiguous block, offsets are
    // exactly 0..r-1 (strictly ascending from 0, so back()==r-1 suffices) and
    // each cell is a dense run: use the canonical 8-lane float reduction.
    // The choice is a pure function of the shape, so it cannot vary across
    // thread counts or SIMD levels.
    const bool dense_cells = !offsets.empty() && offsets.back() == r - 1;
    par::parallel_for(0, out_n, grain, [&](std::int64_t o0, std::int64_t o1) {
      for (std::int64_t o = o0; o < o1; ++o) {
        const std::int64_t base = bases[static_cast<std::size_t>(o)];
        if (dense_cells) {
          po[o] = simd::sum8f(pa + base, r);
          continue;
        }
        float acc = 0.0f;
        for (std::int64_t j = 0; j < r; ++j) {
          acc += pa[base + offsets[static_cast<std::size_t>(j)]];
        }
        po[o] = acc;
      }
    });
  } else {
    // Walk the input in flat order, so every cell folds its inputs in
    // ascending flat order, starting from the buffer's zero. A run whose
    // cell stride is 0 lies in one cell and folds in a register.
    const Shape cell_strides = broadcast_strides(keep_shape, a.shape());
    float* po = out.data();
    for_each_run<1>(a.shape(), {&cell_strides}, [&](const Run<1>& run) {
      const float* src = pa + run.flat;
      float* cell = po + run.start[0];
      if (run.inner[0] == 0) {
        float acc = *cell;
        for (std::int64_t j = 0; j < run.len; ++j) acc += src[j];
        *cell = acc;
      } else {
        for (std::int64_t j = 0; j < run.len; ++j) {
          cell[j * run.inner[0]] += src[j];
        }
      }
    });
  }
  const Shape final_shape =
      keepdim ? keep_shape : reduced_shape(a.shape(), axes, false);
  const Shape in_shape = a.shape();
  return make_tensor_from_op(
      "sum_axes", final_shape, std::move(out), {a},
      [in_shape, keep_shape](const Tensor& g) {
        return std::vector<Tensor>{
            broadcast_to(reshape(g, keep_shape), in_shape)};
      });
}

Tensor mean(const Tensor& a) {
  return div(sum(a), Tensor::scalar(static_cast<float>(a.numel())));
}

Tensor mean(const Tensor& a, const std::vector<std::int64_t>& axes,
            bool keepdim) {
  Tensor s = sum(a, axes, keepdim);
  const float scale = static_cast<float>(s.numel()) /
                      static_cast<float>(a.numel());
  return mul(s, Tensor::scalar(scale));
}

namespace {

/// Shared implementation of max/min over one axis; `sign` +1 for max, -1 for
/// min. Gradient routes to the first extremal element along the axis.
Tensor extremum(const Tensor& a, std::int64_t axis, bool keepdim, float sign,
                const char* name) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  axis = normalize_axis(axis, rank);
  const Shape keep_shape = keep_shape_of(a.shape(), {axis});
  const std::int64_t out_n = numel_of(keep_shape);
  std::vector<float> out = alloc::buffer_uninit(out_n);
  std::fill(out.begin(), out.end(), -std::numeric_limits<float>::infinity());
  std::vector<std::int64_t> arg(static_cast<std::size_t>(out_n), -1);
  const float* pa = a.data();
  // Flat input order: the strict > keeps each cell's first extremum.
  const Shape cell_strides = broadcast_strides(keep_shape, a.shape());
  for_each_run<1>(a.shape(), {&cell_strides}, [&](const Run<1>& run) {
    for (std::int64_t j = 0; j < run.len; ++j) {
      const auto o = static_cast<std::size_t>(run.start[0] + j * run.inner[0]);
      const float v = sign * pa[run.flat + j];
      if (v > out[o]) {
        out[o] = v;
        arg[o] = run.flat + j;
      }
    }
  });
  for (auto& v : out) v *= sign;
  const Shape final_shape =
      keepdim ? keep_shape : reduced_shape(a.shape(), {axis}, false);
  const Shape in_shape = a.shape();
  return make_tensor_from_op(
      name, final_shape, std::move(out), {a},
      [in_shape, arg](const Tensor& g) {
        Tensor ga = zeros(in_shape);
        for (std::size_t o = 0; o < arg.size(); ++o) {
          ga.at(arg[o]) += g.at(static_cast<std::int64_t>(o));
        }
        return std::vector<Tensor>{ga};
      });
}

}  // namespace

Tensor max(const Tensor& a, std::int64_t axis, bool keepdim) {
  return extremum(a, axis, keepdim, 1.0f, "max");
}

Tensor min(const Tensor& a, std::int64_t axis, bool keepdim) {
  return extremum(a, axis, keepdim, -1.0f, "min");
}

Tensor logsumexp(const Tensor& a, std::int64_t axis, bool keepdim) {
  // Subtracting the detached max is exact: the max term cancels analytically.
  Tensor m;
  {
    NoGradGuard ng;
    m = max(a, axis, /*keepdim=*/true);
  }
  Tensor shifted = sub(a, m);
  Tensor lse = add(log(sum(exp(shifted), {axis}, /*keepdim=*/true)), m);
  if (!keepdim) {
    lse = reshape(lse, reduced_shape(a.shape(), {axis}, false));
  }
  return lse;
}

Tensor softmax(const Tensor& a, std::int64_t axis) {
  Tensor m;
  {
    NoGradGuard ng;
    m = max(a, axis, /*keepdim=*/true);
  }
  Tensor e = exp(sub(a, m));
  return div(e, sum(e, {axis}, /*keepdim=*/true));
}

Tensor log_softmax(const Tensor& a, std::int64_t axis) {
  return sub(a, logsumexp(a, axis, /*keepdim=*/true));
}

Tensor cumsum(const Tensor& a, std::int64_t axis) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  axis = normalize_axis(axis, rank);
  const Shape& shape = a.shape();
  const Shape strides = contiguous_strides(shape);
  const std::int64_t len = shape[static_cast<std::size_t>(axis)];
  const std::int64_t stride = strides[static_cast<std::size_t>(axis)];
  // Iterate over all "lines" along the axis.
  const std::int64_t n = a.numel();
  std::vector<float> out = alloc::buffer_uninit(n);
  simd::copy_n(a.data(), out.data(), n);
  const std::int64_t line_block = stride * len;
  for (std::int64_t base = 0; base < n; base += line_block) {
    for (std::int64_t off = 0; off < stride; ++off) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < len; ++k) {
        const auto idx = static_cast<std::size_t>(base + off + k * stride);
        acc += out[idx];
        out[idx] = static_cast<float>(acc);
      }
    }
  }
  const std::int64_t ax = axis;
  return make_tensor_from_op(
      "cumsum", shape, std::move(out), {a},
      [shape, strides, len, stride, ax](const Tensor& g) {
        // d/dx_i sum over outputs j>=i -> reverse cumulative sum of g.
        std::vector<float> gv = alloc::buffer_uninit(g.numel());
        simd::copy_n(g.data(), gv.data(), g.numel());
        const std::int64_t total = static_cast<std::int64_t>(gv.size());
        const std::int64_t block = stride * len;
        for (std::int64_t base = 0; base < total; base += block) {
          for (std::int64_t off = 0; off < stride; ++off) {
            double acc = 0.0;
            for (std::int64_t k = len - 1; k >= 0; --k) {
              const auto idx = static_cast<std::size_t>(base + off + k * stride);
              acc += gv[idx];
              gv[idx] = static_cast<float>(acc);
            }
          }
        }
        (void)ax;
        return std::vector<Tensor>{Tensor(shape, std::move(gv))};
      });
}

Tensor argmax(const Tensor& a, std::int64_t axis) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  axis = normalize_axis(axis, rank);
  const Shape keep_shape = keep_shape_of(a.shape(), {axis});
  const std::int64_t out_n = numel_of(keep_shape);
  std::vector<float> best(static_cast<std::size_t>(out_n),
                          -std::numeric_limits<float>::infinity());
  std::vector<float> arg(static_cast<std::size_t>(out_n), 0.0f);
  // Recover the coordinate along `axis` from the flat index.
  const Shape strides = contiguous_strides(a.shape());
  const std::int64_t ax_stride = strides[static_cast<std::size_t>(axis)];
  const std::int64_t ax_len = a.shape()[static_cast<std::size_t>(axis)];
  const float* pa = a.data();
  const Shape cell_strides = broadcast_strides(keep_shape, a.shape());
  for_each_run<1>(a.shape(), {&cell_strides}, [&](const Run<1>& run) {
    for (std::int64_t j = 0; j < run.len; ++j) {
      const auto o = static_cast<std::size_t>(run.start[0] + j * run.inner[0]);
      const std::int64_t i = run.flat + j;
      if (pa[i] > best[o]) {
        best[o] = pa[i];
        arg[o] = static_cast<float>((i / ax_stride) % ax_len);
      }
    }
  });
  return Tensor(reduced_shape(a.shape(), {axis}, false), std::move(arg));
}

}  // namespace tx
