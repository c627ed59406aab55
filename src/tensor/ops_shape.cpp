// Shape manipulation ops: reshape, permute, broadcast, concatenation,
// slicing, indexing, one-hot. Pure data movement — output buffers come from
// tx::alloc and are fully overwritten before use, so recycling cannot affect
// values.
#include <algorithm>
#include <cmath>

#include "tensor/alloc.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {

Tensor reshape(const Tensor& a, Shape new_shape) {
  // Support a single -1 wildcard dimension.
  std::int64_t wildcard = -1;
  std::int64_t known = 1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      TX_CHECK(wildcard == -1, "reshape: more than one -1 in [",
               join(new_shape), "]");
      wildcard = static_cast<std::int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (wildcard >= 0) {
    TX_CHECK(known > 0 && a.numel() % known == 0, "reshape: cannot infer -1");
    new_shape[static_cast<std::size_t>(wildcard)] = a.numel() / known;
  }
  TX_CHECK(numel_of(new_shape) == a.numel(), "reshape: numel mismatch [",
           join(a.shape()), "] -> [", join(new_shape), "]");
  const Shape old_shape = a.shape();
  std::vector<float> out = alloc::buffer_uninit(a.numel());
  simd::copy_n(a.data(), out.data(), a.numel());
  return make_tensor_from_op(
      "reshape", new_shape, std::move(out), {a},
      [old_shape](const Tensor& g) {
        return std::vector<Tensor>{reshape(g, old_shape)};
      });
}

Tensor permute(const Tensor& a, const std::vector<std::int64_t>& dims) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  TX_CHECK(static_cast<std::int64_t>(dims.size()) == rank,
           "permute: dims arity mismatch");
  std::vector<bool> seen(dims.size(), false);
  Shape out_shape(dims.size());
  // The input's strides, taken in output dim order.
  const Shape in_strides = contiguous_strides(a.shape());
  Shape src_strides(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const std::int64_t d = normalize_axis(dims[i], rank);
    TX_CHECK(!seen[static_cast<std::size_t>(d)], "permute: repeated dim ", d);
    seen[static_cast<std::size_t>(d)] = true;
    out_shape[i] = a.shape()[static_cast<std::size_t>(d)];
    src_strides[i] = in_strides[static_cast<std::size_t>(d)];
  }
  std::vector<float> out = alloc::buffer_uninit(a.numel());
  const float* pa = a.data();
  float* po = out.data();
  for_each_run<1>(out_shape, {&src_strides}, [&](const Run<1>& r) {
    const float* src = pa + r.start[0];
    float* dst = po + r.flat;
    if (r.inner[0] == 1) {
      std::copy_n(src, r.len, dst);
    } else {
      for (std::int64_t j = 0; j < r.len; ++j) dst[j] = src[j * r.inner[0]];
    }
  });
  // Inverse permutation for the backward pass.
  std::vector<std::int64_t> inverse(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const std::int64_t d = dims[i] < 0 ? dims[i] + rank : dims[i];
    inverse[static_cast<std::size_t>(d)] = static_cast<std::int64_t>(i);
  }
  return make_tensor_from_op(
      "permute", out_shape, std::move(out), {a},
      [inverse](const Tensor& g) {
        return std::vector<Tensor>{permute(g, inverse)};
      });
}

Tensor transpose(const Tensor& a, std::int64_t d0, std::int64_t d1) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  d0 = normalize_axis(d0, rank);
  d1 = normalize_axis(d1, rank);
  std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
  for (std::int64_t i = 0; i < rank; ++i) dims[static_cast<std::size_t>(i)] = i;
  std::swap(dims[static_cast<std::size_t>(d0)], dims[static_cast<std::size_t>(d1)]);
  return permute(a, dims);
}

Tensor broadcast_to(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  const Shape strides = broadcast_strides(a.shape(), target);
  std::vector<float> out = alloc::buffer_uninit(numel_of(target));
  const float* pa = a.data();
  float* po = out.data();
  for_each_run<1>(target, {&strides}, [&](const Run<1>& r) {
    const float* src = pa + r.start[0];
    float* dst = po + r.flat;
    if (r.inner[0] == 0) {
      std::fill_n(dst, r.len, *src);
    } else if (r.inner[0] == 1) {
      std::copy_n(src, r.len, dst);
    } else {
      for (std::int64_t j = 0; j < r.len; ++j) dst[j] = src[j * r.inner[0]];
    }
  });
  const Shape in_shape = a.shape();
  return make_tensor_from_op(
      "broadcast_to", target, std::move(out), {a},
      [in_shape](const Tensor& g) {
        return std::vector<Tensor>{sum_to(g, in_shape)};
      });
}

Tensor sum_to(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  const auto target_rank = static_cast<std::int64_t>(target.size());
  TX_CHECK(target_rank <= rank, "sum_to: target rank ", target_rank,
           " exceeds input rank ", rank);
  const std::int64_t extra = rank - target_rank;
  std::vector<std::int64_t> axes;
  for (std::int64_t i = 0; i < extra; ++i) axes.push_back(i);
  for (std::int64_t i = 0; i < target_rank; ++i) {
    const std::int64_t ad = a.shape()[static_cast<std::size_t>(extra + i)];
    const std::int64_t td = target[static_cast<std::size_t>(i)];
    TX_CHECK(td == ad || td == 1, "sum_to: [", join(a.shape()),
             "] not reducible to [", join(target), "]");
    if (td == 1 && ad != 1) axes.push_back(extra + i);
  }
  Tensor result = axes.empty() ? a : sum(a, axes, /*keepdim=*/true);
  return reshape(result, target);
}

Tensor cat(const std::vector<Tensor>& parts, std::int64_t axis) {
  TX_CHECK(!parts.empty(), "cat: no tensors");
  const auto rank = static_cast<std::int64_t>(parts[0].shape().size());
  axis = normalize_axis(axis, rank);
  Shape out_shape = parts[0].shape();
  out_shape[static_cast<std::size_t>(axis)] = 0;
  std::vector<std::int64_t> sizes;
  for (const auto& p : parts) {
    TX_CHECK(static_cast<std::int64_t>(p.shape().size()) == rank,
             "cat: rank mismatch");
    for (std::int64_t d = 0; d < rank; ++d) {
      if (d == axis) continue;
      TX_CHECK(p.shape()[static_cast<std::size_t>(d)] ==
                   parts[0].shape()[static_cast<std::size_t>(d)],
               "cat: non-axis dim mismatch");
    }
    sizes.push_back(p.shape()[static_cast<std::size_t>(axis)]);
    out_shape[static_cast<std::size_t>(axis)] += sizes.back();
  }
  // outer = product of dims before axis, inner = product after.
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < axis; ++d) {
    outer *= out_shape[static_cast<std::size_t>(d)];
  }
  for (std::int64_t d = axis + 1; d < rank; ++d) {
    inner *= out_shape[static_cast<std::size_t>(d)];
  }
  const std::int64_t total_axis = out_shape[static_cast<std::size_t>(axis)];
  std::vector<float> out = alloc::buffer_uninit(numel_of(out_shape));
  std::int64_t offset = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const float* src = parts[p].data();
    const std::int64_t len = sizes[p];
    for (std::int64_t o = 0; o < outer; ++o) {
      for (std::int64_t k = 0; k < len; ++k) {
        const auto dst_base =
            static_cast<std::size_t>((o * total_axis + offset + k) * inner);
        const auto src_base = static_cast<std::size_t>((o * len + k) * inner);
        std::copy_n(src + src_base, inner, out.begin() + static_cast<std::ptrdiff_t>(dst_base));
      }
    }
    offset += len;
  }
  const std::int64_t ax = axis;
  return make_tensor_from_op(
      "cat", out_shape, std::move(out), parts,
      [sizes, ax](const Tensor& g) {
        std::vector<Tensor> grads;
        std::int64_t start = 0;
        for (auto len : sizes) {
          grads.push_back(slice(g, ax, start, start + len));
          start += len;
        }
        return grads;
      });
}

Tensor stack(const std::vector<Tensor>& parts, std::int64_t axis) {
  TX_CHECK(!parts.empty(), "stack: no tensors");
  std::vector<Tensor> reshaped;
  reshaped.reserve(parts.size());
  const auto rank = static_cast<std::int64_t>(parts[0].shape().size());
  axis = normalize_axis(axis, rank + 1);
  for (const auto& p : parts) {
    Shape s = p.shape();
    s.insert(s.begin() + axis, 1);
    reshaped.push_back(reshape(p, s));
  }
  return cat(reshaped, axis);
}

Tensor slice(const Tensor& a, std::int64_t axis, std::int64_t start,
             std::int64_t end) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  axis = normalize_axis(axis, rank);
  const std::int64_t len = a.shape()[static_cast<std::size_t>(axis)];
  if (start < 0) start += len;
  if (end < 0) end += len;
  TX_CHECK(0 <= start && start <= end && end <= len, "slice range [", start,
           ", ", end, ") invalid for axis of size ", len);
  Shape out_shape = a.shape();
  out_shape[static_cast<std::size_t>(axis)] = end - start;
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < axis; ++d) outer *= a.shape()[static_cast<std::size_t>(d)];
  for (std::int64_t d = axis + 1; d < rank; ++d) inner *= a.shape()[static_cast<std::size_t>(d)];
  std::vector<float> out = alloc::buffer_uninit(numel_of(out_shape));
  const float* pa = a.data();
  const std::int64_t span = end - start;
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t k = 0; k < span; ++k) {
      const auto src = static_cast<std::size_t>((o * len + start + k) * inner);
      const auto dst = static_cast<std::size_t>((o * span + k) * inner);
      std::copy_n(pa + src, inner, out.begin() + static_cast<std::ptrdiff_t>(dst));
    }
  }
  const Shape in_shape = a.shape();
  const std::int64_t ax = axis, st = start, sp = span, in_len = len,
                     out_r = outer, in_r = inner;
  return make_tensor_from_op(
      "slice", out_shape, std::move(out), {a},
      [in_shape, ax, st, sp, in_len, out_r, in_r](const Tensor& g) {
        Tensor ga = zeros(in_shape);
        float* pg = ga.data();
        const float* src = g.data();
        for (std::int64_t o = 0; o < out_r; ++o) {
          for (std::int64_t k = 0; k < sp; ++k) {
            const auto dst = static_cast<std::size_t>((o * in_len + st + k) * in_r);
            const auto s = static_cast<std::size_t>((o * sp + k) * in_r);
            for (std::int64_t i = 0; i < in_r; ++i) {
              pg[dst + static_cast<std::size_t>(i)] += src[s + static_cast<std::size_t>(i)];
            }
          }
        }
        return std::vector<Tensor>{ga};
      });
}

Tensor index_select(const Tensor& a, std::int64_t axis,
                    const std::vector<std::int64_t>& indices) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  axis = normalize_axis(axis, rank);
  const std::int64_t len = a.shape()[static_cast<std::size_t>(axis)];
  for (auto idx : indices) {
    TX_CHECK(idx >= 0 && idx < len, "index_select: index ", idx,
             " out of range [0, ", len, ")");
  }
  Shape out_shape = a.shape();
  out_shape[static_cast<std::size_t>(axis)] =
      static_cast<std::int64_t>(indices.size());
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < axis; ++d) outer *= a.shape()[static_cast<std::size_t>(d)];
  for (std::int64_t d = axis + 1; d < rank; ++d) inner *= a.shape()[static_cast<std::size_t>(d)];
  std::vector<float> out = alloc::buffer_uninit(numel_of(out_shape));
  const float* pa = a.data();
  const auto k_out = static_cast<std::int64_t>(indices.size());
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t k = 0; k < k_out; ++k) {
      const auto src = static_cast<std::size_t>((o * len + indices[static_cast<std::size_t>(k)]) * inner);
      const auto dst = static_cast<std::size_t>((o * k_out + k) * inner);
      std::copy_n(pa + src, inner, out.begin() + static_cast<std::ptrdiff_t>(dst));
    }
  }
  const Shape in_shape = a.shape();
  const std::int64_t in_len = len, out_r = outer, in_r = inner;
  return make_tensor_from_op(
      "index_select", out_shape, std::move(out), {a},
      [in_shape, indices, in_len, out_r, in_r](const Tensor& g) {
        Tensor ga = zeros(in_shape);
        float* pg = ga.data();
        const float* src = g.data();
        const auto k_n = static_cast<std::int64_t>(indices.size());
        for (std::int64_t o = 0; o < out_r; ++o) {
          for (std::int64_t k = 0; k < k_n; ++k) {
            const auto dst = static_cast<std::size_t>(
                (o * in_len + indices[static_cast<std::size_t>(k)]) * in_r);
            const auto s = static_cast<std::size_t>((o * k_n + k) * in_r);
            for (std::int64_t i = 0; i < in_r; ++i) {
              pg[dst + static_cast<std::size_t>(i)] += src[s + static_cast<std::size_t>(i)];
            }
          }
        }
        return std::vector<Tensor>{ga};
      });
}

Tensor gather_last(const Tensor& a, const Tensor& index) {
  const auto rank = static_cast<std::int64_t>(a.shape().size());
  TX_CHECK(rank >= 1, "gather_last needs rank >= 1");
  const std::int64_t classes = a.shape().back();
  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  TX_CHECK(index.shape() == out_shape, "gather_last: index shape [",
           join(index.shape()), "] must equal leading dims [", join(out_shape),
           "]");
  const std::int64_t rows = numel_of(out_shape);
  std::vector<float> out = alloc::buffer_uninit(rows);
  std::vector<std::int64_t> picks(static_cast<std::size_t>(rows));
  const float* pa = a.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto c = static_cast<std::int64_t>(std::llround(index.at(r)));
    TX_CHECK(c >= 0 && c < classes, "gather_last: class index ", c,
             " out of range [0, ", classes, ")");
    picks[static_cast<std::size_t>(r)] = c;
    out[static_cast<std::size_t>(r)] = pa[r * classes + c];
  }
  const Shape in_shape = a.shape();
  return make_tensor_from_op(
      "gather_last", out_shape, std::move(out), {a, index},
      [in_shape, picks, classes](const Tensor& g) {
        Tensor ga = zeros(in_shape);
        for (std::size_t r = 0; r < picks.size(); ++r) {
          ga.at(static_cast<std::int64_t>(r) * classes + picks[r]) +=
              g.at(static_cast<std::int64_t>(r));
        }
        return std::vector<Tensor>{ga, Tensor()};
      });
}

Tensor one_hot(const Tensor& labels, std::int64_t depth) {
  Shape out_shape = labels.shape();
  out_shape.push_back(depth);
  Tensor out = zeros(out_shape);
  for (std::int64_t i = 0; i < labels.numel(); ++i) {
    const auto c = static_cast<std::int64_t>(std::llround(labels.at(i)));
    TX_CHECK(c >= 0 && c < depth, "one_hot: label ", c, " out of range [0, ",
             depth, ")");
    out.at(i * depth + c) = 1.0f;
  }
  return out;
}

}  // namespace tx
