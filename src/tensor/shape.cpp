#include "tensor/shape.h"

#include <algorithm>

namespace tx {

bool broadcastable(const Shape& a, const Shape& b) {
  const std::size_t ra = a.size(), rb = b.size();
  const std::size_t r = std::max(ra, rb);
  for (std::size_t i = 0; i < r; ++i) {
    const std::int64_t da = i < ra ? a[ra - 1 - i] : 1;
    const std::int64_t db = i < rb ? b[rb - 1 - i] : 1;
    if (da != db && da != 1 && db != 1) return false;
  }
  return true;
}

Shape broadcast_shapes(const Shape& a, const Shape& b) {
  TX_CHECK(broadcastable(a, b), "shapes [", join(a), "] and [", join(b),
           "] are not broadcastable");
  const std::size_t ra = a.size(), rb = b.size();
  const std::size_t r = std::max(ra, rb);
  Shape out(r);
  for (std::size_t i = 0; i < r; ++i) {
    const std::int64_t da = i < ra ? a[ra - 1 - i] : 1;
    const std::int64_t db = i < rb ? b[rb - 1 - i] : 1;
    out[r - 1 - i] = da == 1 ? db : da;
  }
  return out;
}

std::int64_t normalize_axis(std::int64_t axis, std::int64_t rank) {
  if (axis < 0) axis += rank;
  TX_CHECK(axis >= 0 && axis < rank, "axis ", axis, " out of range for rank ",
           rank);
  return axis;
}

Shape reduced_shape(const Shape& shape, const std::vector<std::int64_t>& axes,
                    bool keepdim) {
  std::vector<bool> reduce(shape.size(), false);
  for (auto ax : axes) {
    reduce[static_cast<std::size_t>(
        normalize_axis(ax, static_cast<std::int64_t>(shape.size())))] = true;
  }
  Shape out;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (reduce[i]) {
      if (keepdim) out.push_back(1);
    } else {
      out.push_back(shape[i]);
    }
  }
  return out;
}

Shape broadcast_strides(const Shape& src, const Shape& dst) {
  TX_CHECK(src.size() <= dst.size(), "cannot broadcast [", join(src), "] to [",
           join(dst), "]");
  const Shape natural = contiguous_strides(src);
  Shape out(dst.size(), 0);
  const std::size_t offset = dst.size() - src.size();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::int64_t d = src[i];
    const std::int64_t target = dst[offset + i];
    TX_CHECK(d == target || d == 1, "dim ", i, " of [", join(src),
             "] incompatible with [", join(dst), "]");
    out[offset + i] = (d == 1 && target != 1) ? 0 : natural[i];
  }
  return out;
}

}  // namespace tx
