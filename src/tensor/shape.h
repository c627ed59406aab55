// Shape arithmetic shared by tensor ops: sizes, strides, NumPy-style
// broadcasting rules, and the run walker that strided kernels (broadcasts,
// axis reductions, permutes) use to visit elements without per-element
// index arithmetic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/common.h"

namespace tx {

using Shape = std::vector<std::int64_t>;

/// Number of elements described by a shape (1 for rank-0 scalars); throws
/// on a negative extent or a count that overflows int64.
inline std::int64_t numel_of(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    TX_CHECK(d >= 0, "negative dimension in shape [", join(shape), "]");
    TX_CHECK(!__builtin_mul_overflow(n, d, &n),
             "element count of shape [", join(shape), "] overflows int64");
  }
  return n;
}

/// Row-major (C-order) strides for a contiguous tensor of the given shape.
inline Shape contiguous_strides(const Shape& shape) {
  Shape strides(shape.size());
  std::int64_t acc = 1;
  for (std::int64_t i = static_cast<std::int64_t>(shape.size()) - 1; i >= 0; --i) {
    strides[static_cast<std::size_t>(i)] = acc;
    acc *= shape[static_cast<std::size_t>(i)];
  }
  return strides;
}

/// True if two shapes are broadcast-compatible under NumPy rules.
bool broadcastable(const Shape& a, const Shape& b);

/// Resulting shape of broadcasting a against b; throws if incompatible.
Shape broadcast_shapes(const Shape& a, const Shape& b);

/// Normalize a possibly-negative axis into [0, rank); throws if out of range.
std::int64_t normalize_axis(std::int64_t axis, std::int64_t rank);

/// Shape after reducing `axes` (keepdim keeps them as size-1 dims).
Shape reduced_shape(const Shape& shape, const std::vector<std::int64_t>& axes,
                    bool keepdim);

/// One run of for_each_run: `len` consecutive row-major elements of the
/// walked shape, starting at row-major position `flat`. Operand k's element
/// j of the run sits at start[k] + j * inner[k].
template <std::size_t K>
struct Run {
  std::int64_t flat = 0;
  std::int64_t len = 0;
  std::array<std::int64_t, K> start{};
  std::array<std::int64_t, K> inner{};
};

/// Visits every element of `shape` in row-major order, as runs along the
/// innermost dim left after two simplifications: size-1 dims are dropped
/// (their index is always 0), and adjacent dims merge wherever every
/// operand's stride stays contiguous across them (outer stride == inner
/// stride * inner extent). `strides[k]` gives operand k's stride per dim of
/// `shape` (0 where it broadcasts). Neither step changes which element of
/// each operand meets which row-major position, or the order of visits, so a
/// kernel computing the same scalar expression per element gives the same
/// bits as a per-element multi-index walk. inner[k] is the same for every
/// run, so kernels pick their loop once per run by it: 0 (a broadcast
/// value), 1 (a dense span) or general. A shape with no dims of size > 1 is
/// one run of one element; a shape with a zero dim visits nothing.
template <std::size_t K, typename Fn>
void for_each_run(const Shape& shape, const std::array<const Shape*, K>& strides,
                  Fn&& fn) {
  struct Dim {
    std::int64_t extent;
    std::int64_t index;
    std::array<std::int64_t, K> stride;
  };
  for (const Shape* s : strides) {
    TX_CHECK(s->size() == shape.size(), "for_each_run: ", s->size(),
             " strides for rank ", shape.size());
  }
  std::vector<Dim> dims;  // merged dims, innermost first
  dims.reserve(shape.size());
  for (std::size_t d = shape.size(); d-- > 0;) {
    const std::int64_t extent = shape[d];
    if (extent == 0) return;
    if (extent == 1) continue;
    Dim next{extent, 0, {}};
    bool merges = !dims.empty();
    for (std::size_t k = 0; k < K; ++k) {
      next.stride[k] = (*strides[k])[d];
      if (merges) {
        merges = next.stride[k] == dims.back().stride[k] * dims.back().extent;
      }
    }
    if (merges) {
      dims.back().extent *= extent;
    } else {
      dims.push_back(next);
    }
  }
  Run<K> run;
  if (dims.empty()) {
    run.len = 1;
    fn(run);
    return;
  }
  run.len = dims[0].extent;
  run.inner = dims[0].stride;
  for (;;) {
    fn(run);
    run.flat += run.len;
    std::size_t d = 1;
    for (; d < dims.size(); ++d) {  // mixed-radix carry over the outer dims
      Dim& dim = dims[d];
      if (++dim.index < dim.extent) {
        for (std::size_t k = 0; k < K; ++k) run.start[k] += dim.stride[k];
        break;
      }
      dim.index = 0;
      for (std::size_t k = 0; k < K; ++k) {
        run.start[k] -= dim.stride[k] * (dim.extent - 1);
      }
    }
    if (d == dims.size()) return;
  }
}

/// Strides to read a tensor of shape `src` as if broadcast to `dst`:
/// size-1 (or missing leading) dims get stride 0.
Shape broadcast_strides(const Shape& src, const Shape& dst);

}  // namespace tx
