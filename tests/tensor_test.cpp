// Unit tests for the tensor library: shapes, broadcasting, op values, and a
// bitwise reference for every strided kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "par/pool.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {
namespace {

TEST(Shape, NumelAndStrides) {
  EXPECT_EQ(numel_of({2, 3, 4}), 24);
  EXPECT_EQ(numel_of({}), 1);
  EXPECT_THROW(numel_of({4294967296, 4294967297}), Error);
  EXPECT_EQ(contiguous_strides({2, 3, 4}), (Shape{12, 4, 1}));
}

TEST(Shape, Broadcasting) {
  EXPECT_TRUE(broadcastable({3, 1}, {1, 4}));
  EXPECT_FALSE(broadcastable({3, 2}, {4, 2}));
  EXPECT_EQ(broadcast_shapes({3, 1}, {4}), (Shape{3, 4}));
  EXPECT_EQ(broadcast_shapes({}, {2, 2}), (Shape{2, 2}));
  EXPECT_THROW(broadcast_shapes({3}, {4}), Error);
  // A 0 against a 1 broadcasts to 0, as in NumPy.
  EXPECT_EQ(broadcast_shapes({0}, {1}), (Shape{0}));
  EXPECT_EQ(broadcast_shapes({1}, {0}), (Shape{0}));
  EXPECT_EQ(broadcast_shapes({2, 0}, {2, 1}), (Shape{2, 0}));
  EXPECT_THROW(broadcast_shapes({0}, {2}), Error);
}

TEST(Shape, ZeroExtentBroadcastsAgainstOne) {
  const std::vector<std::pair<Shape, Shape>> cases = {{{0}, {1}},
                                                      {{2, 0}, {2, 1}}};
  for (const auto& [sa, sb] : cases) {
    Tensor a = zeros(sa).set_requires_grad(true);
    Tensor b = ones(sb).set_requires_grad(true);
    const Tensor y = add(a, b);
    EXPECT_EQ(y.shape(), sa);
    EXPECT_EQ(add(b, a).shape(), sa);
    EXPECT_EQ(sum_to(y, sb).shape(), sb);
    sum(y).backward();
    EXPECT_EQ(a.grad().shape(), sa);
    ASSERT_EQ(b.grad().shape(), sb);
    for (std::int64_t i = 0; i < b.grad().numel(); ++i) {
      EXPECT_EQ(b.grad().at(i), 0.0f);
    }
  }
}

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(-1), 3);
  EXPECT_FLOAT_EQ(t.at(4), 1.5f);
  t.at(4) = 2.0f;
  EXPECT_FLOAT_EQ(t.at(4), 2.0f);
  EXPECT_THROW(t.item(), Error);
  EXPECT_FLOAT_EQ(Tensor::scalar(3.0f).item(), 3.0f);
}

TEST(Tensor, HandleSemantics) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b = a;  // aliases
  b.at(0) = 5.0f;
  EXPECT_FLOAT_EQ(a.at(0), 5.0f);
  Tensor c = a.detach();  // copies
  c.at(0) = 9.0f;
  EXPECT_FLOAT_EQ(a.at(0), 5.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), Error);
}

TEST(Factories, Basic) {
  EXPECT_FLOAT_EQ(zeros({3}).at(1), 0.0f);
  EXPECT_FLOAT_EQ(ones({3}).at(1), 1.0f);
  EXPECT_FLOAT_EQ(full({2}, 7.0f).at(0), 7.0f);
  EXPECT_FLOAT_EQ(arange(5).at(3), 3.0f);
  Tensor ls = linspace(0.0f, 1.0f, 5);
  EXPECT_FLOAT_EQ(ls.at(2), 0.5f);
  Tensor id = eye(3);
  EXPECT_FLOAT_EQ(id.at(4), 1.0f);
  EXPECT_FLOAT_EQ(id.at(1), 0.0f);
}

TEST(Factories, RandomReproducible) {
  Generator g1(42), g2(42);
  Tensor a = randn({16}, &g1);
  Tensor b = randn({16}, &g2);
  EXPECT_TRUE(allclose(a, b));
  Tensor s = rand_sign({100}, &g1);
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_TRUE(s.at(i) == 1.0f || s.at(i) == -1.0f);
  }
}

TEST(Elementwise, AddBroadcast) {
  Tensor a(Shape{2, 1}, {1.0f, 2.0f});
  Tensor b(Shape{3}, {10.0f, 20.0f, 30.0f});
  Tensor c = a + b;
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at(0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(5), 32.0f);
}

TEST(Elementwise, ScalarOperators) {
  Tensor a(Shape{2}, {2.0f, 4.0f});
  EXPECT_FLOAT_EQ((a * 2.0f).at(1), 8.0f);
  EXPECT_FLOAT_EQ((1.0f / a).at(0), 0.5f);
  EXPECT_FLOAT_EQ((a - 1.0f).at(0), 1.0f);
  EXPECT_FLOAT_EQ((-a).at(1), -4.0f);
}

TEST(Elementwise, UnaryValues) {
  Tensor x(Shape{3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(relu(x).at(0), 0.0f);
  EXPECT_FLOAT_EQ(relu(x).at(2), 2.0f);
  EXPECT_NEAR(exp(x).at(2), std::exp(2.0f), 1e-5);
  EXPECT_NEAR(tanh(x).at(0), std::tanh(-1.0f), 1e-6);
  EXPECT_NEAR(sigmoid(x).at(1), 0.5f, 1e-6);
  EXPECT_NEAR(softplus(Tensor::scalar(0.0f)).item(), std::log(2.0f), 1e-6);
  EXPECT_NEAR(softplus(Tensor::scalar(30.0f)).item(), 30.0f, 1e-4);
  EXPECT_NEAR(erf(Tensor::scalar(0.5f)).item(), std::erf(0.5f), 1e-6);
  EXPECT_FLOAT_EQ(abs(x).at(0), 1.0f);
  EXPECT_FLOAT_EQ(square(x).at(2), 4.0f);
}

TEST(Elementwise, ClampAndExtremes) {
  Tensor x(Shape{4}, {-2.0f, 0.5f, 1.5f, 3.0f});
  Tensor c = clamp(x, 0.0f, 2.0f);
  EXPECT_FLOAT_EQ(c.at(0), 0.0f);
  EXPECT_FLOAT_EQ(c.at(1), 0.5f);
  EXPECT_FLOAT_EQ(c.at(3), 2.0f);
  EXPECT_FLOAT_EQ(clamp_max(x, 1.0f).at(3), 1.0f);
  EXPECT_FLOAT_EQ(clamp_min(x, 0.0f).at(0), 0.0f);
  Tensor a(Shape{2}, {1.0f, 5.0f});
  Tensor b(Shape{2}, {3.0f, 2.0f});
  EXPECT_FLOAT_EQ(maximum(a, b).at(0), 3.0f);
  EXPECT_FLOAT_EQ(minimum(a, b).at(1), 2.0f);
}

TEST(Reduce, SumMean) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(sum(x).item(), 21.0f);
  EXPECT_FLOAT_EQ(mean(x).item(), 3.5f);
  Tensor s0 = sum(x, {0});
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.at(0), 5.0f);
  Tensor s1 = sum(x, {1}, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.at(1), 15.0f);
  Tensor m = mean(x, {0, 1});
  EXPECT_FLOAT_EQ(m.item(), 3.5f);
}

TEST(Reduce, MaxMinArgmax) {
  Tensor x(Shape{2, 3}, {1, 9, 3, 7, 5, 6});
  Tensor mx = max(x, 1);
  EXPECT_EQ(mx.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(mx.at(0), 9.0f);
  EXPECT_FLOAT_EQ(mx.at(1), 7.0f);
  EXPECT_FLOAT_EQ(min(x, 1).at(0), 1.0f);
  Tensor am = argmax(x, 1);
  EXPECT_FLOAT_EQ(am.at(0), 1.0f);
  EXPECT_FLOAT_EQ(am.at(1), 0.0f);
}

TEST(Reduce, LogSumExpStable) {
  Tensor x(Shape{1, 2}, {1000.0f, 1000.0f});
  Tensor lse = logsumexp(x, 1);
  EXPECT_NEAR(lse.item(), 1000.0f + std::log(2.0f), 1e-3);
}

TEST(Reduce, SoftmaxNormalizes) {
  Tensor x(Shape{2, 4}, {1, 2, 3, 4, -1, 0, 1, 2});
  Tensor p = softmax(x, -1);
  for (std::int64_t r = 0; r < 2; ++r) {
    float s = 0.0f;
    for (std::int64_t c = 0; c < 4; ++c) s += p.at(r * 4 + c);
    EXPECT_NEAR(s, 1.0f, 1e-5);
  }
  Tensor lp = log_softmax(x, -1);
  EXPECT_NEAR(lp.at(3), std::log(p.at(3)), 1e-5);
}

TEST(Reduce, Cumsum) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor c1 = cumsum(x, 1);
  EXPECT_FLOAT_EQ(c1.at(2), 6.0f);
  EXPECT_FLOAT_EQ(c1.at(5), 15.0f);
  Tensor c0 = cumsum(x, 0);
  EXPECT_FLOAT_EQ(c0.at(3), 5.0f);
}

TEST(ShapeOps, ReshapeWildcard) {
  Tensor x(Shape{2, 6}, 1.0f);
  Tensor r = reshape(x, {3, -1});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_THROW(reshape(x, {5, -1}), Error);
  EXPECT_EQ(x.flatten().shape(), (Shape{12}));
  EXPECT_EQ(x.flatten(1).shape(), (Shape{2, 6}));
}

TEST(ShapeOps, PermuteTranspose) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(x, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(1), 4.0f);  // t[0][1] == x[1][0]
  Tensor y(Shape{2, 3, 4}, 0.0f);
  EXPECT_EQ(permute(y, {2, 0, 1}).shape(), (Shape{4, 2, 3}));
}

TEST(ShapeOps, BroadcastToSumTo) {
  Tensor x(Shape{1, 3}, {1, 2, 3});
  Tensor b = broadcast_to(x, {2, 3});
  EXPECT_FLOAT_EQ(b.at(5), 3.0f);
  Tensor s = sum_to(b, {1, 3});
  EXPECT_FLOAT_EQ(s.at(0), 2.0f);
  Tensor full_sum = sum_to(b, {});
  EXPECT_FLOAT_EQ(full_sum.item(), 12.0f);
}

TEST(ShapeOps, CatStackSlice) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b(Shape{1, 2}, {5, 6});
  Tensor c = cat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(c.at(4), 5.0f);
  Tensor s = stack({a, a}, 0);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 2}));
  Tensor sl = slice(c, 0, 1, 3);
  EXPECT_EQ(sl.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(sl.at(0), 3.0f);
  Tensor cols = cat({a, a}, 1);
  EXPECT_EQ(cols.shape(), (Shape{2, 4}));
  EXPECT_FLOAT_EQ(cols.at(2), 1.0f);
}

TEST(ShapeOps, IndexSelectGatherOneHot) {
  Tensor a(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor sel = index_select(a, 0, {2, 0, 2});
  EXPECT_EQ(sel.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(sel.at(0), 5.0f);
  EXPECT_FLOAT_EQ(sel.at(2), 1.0f);
  Tensor idx(Shape{3}, {1.0f, 0.0f, 1.0f});
  Tensor g = gather_last(a, idx);
  EXPECT_EQ(g.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(g.at(0), 2.0f);
  EXPECT_FLOAT_EQ(g.at(1), 3.0f);
  Tensor oh = one_hot(idx, 2);
  EXPECT_EQ(oh.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(oh.at(1), 1.0f);
  EXPECT_FLOAT_EQ(oh.at(0), 0.0f);
}

TEST(Linalg, MatmulValues) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(3), 154.0f);
  EXPECT_THROW(matmul(a, a), Error);
}

TEST(Linalg, BmmValues) {
  Tensor a(Shape{2, 1, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2, 1}, {5, 6, 7, 8});
  Tensor c = bmm(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_FLOAT_EQ(c.at(0), 17.0f);
  EXPECT_FLOAT_EQ(c.at(1), 53.0f);
}

TEST(Linalg, LinearMatchesManual) {
  Tensor x(Shape{2, 3}, {1, 0, -1, 2, 1, 0});
  Tensor w(Shape{2, 3}, {1, 1, 1, 0, 1, 0});
  Tensor b(Shape{2}, {0.5f, -0.5f});
  Tensor y = linear(x, w, b);
  EXPECT_EQ(y.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 0.5f);   // 1+0-1 + 0.5
  EXPECT_FLOAT_EQ(y.at(1), -0.5f);  // 0 + -0.5
  EXPECT_FLOAT_EQ(y.at(2), 3.5f);   // 3 + 0.5
  // 3-D input: leading dims preserved.
  Tensor x3(Shape{2, 2, 3}, 1.0f);
  EXPECT_EQ(linear(x3, w, b).shape(), (Shape{2, 2, 2}));
}

TEST(Conv, IdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input channel.
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w(Shape{1, 1, 1, 1}, {1.0f});
  Tensor y = conv2d(x, w, Tensor());
  EXPECT_TRUE(allclose(y, x));
}

TEST(Conv, KnownValues) {
  // 2x2 all-ones kernel sums each 2x2 patch.
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w(Shape{1, 1, 2, 2}, {1, 1, 1, 1});
  Tensor y = conv2d(x, w, Tensor());
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 12.0f);
  EXPECT_FLOAT_EQ(y.at(3), 28.0f);
  // Padding grows the output.
  Tensor yp = conv2d(x, w, Tensor(), /*stride=*/1, /*padding=*/1);
  EXPECT_EQ(yp.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(yp.at(0), 1.0f);
  // Stride skips positions.
  Tensor ys = conv2d(x, w, Tensor(), /*stride=*/2, /*padding=*/1);
  EXPECT_EQ(ys.shape(), (Shape{1, 1, 2, 2}));
}

TEST(Conv, BiasBroadcasts) {
  Tensor x(Shape{2, 1, 2, 2}, 0.0f);
  Tensor w(Shape{3, 1, 1, 1}, {1, 1, 1});
  Tensor b(Shape{3}, {1.0f, 2.0f, 3.0f});
  Tensor y = conv2d(x, w, b);
  EXPECT_FLOAT_EQ(y.at(0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(4), 2.0f);
  EXPECT_FLOAT_EQ(y.at(11), 3.0f);
}

TEST(Pool, MaxAndAvg) {
  Tensor x(Shape{1, 1, 4, 4},
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Tensor mp = max_pool2d(x, 2, 2);
  EXPECT_EQ(mp.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(mp.at(0), 6.0f);
  EXPECT_FLOAT_EQ(mp.at(3), 16.0f);
  Tensor ap = avg_pool2d(x, 2, 2);
  EXPECT_FLOAT_EQ(ap.at(0), 3.5f);
  EXPECT_FLOAT_EQ(ap.at(3), 13.5f);
}

TEST(Misc, AllClose) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b(Shape{2}, {1.0f, 2.000001f});
  EXPECT_TRUE(allclose(a, b));
  EXPECT_FALSE(allclose(a, Tensor(Shape{2}, {1.0f, 3.0f})));
  EXPECT_FALSE(allclose(a, Tensor(Shape{1, 2}, {1.0f, 2.0f})));
}

TEST(Misc, ToString) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  EXPECT_NE(to_string(a).find("1"), std::string::npos);
  EXPECT_EQ(to_string(Tensor()), "Tensor(undefined)");
}

// ---- Bitwise reference: the per-element multi-index walk -------------------
// Every strided kernel (broadcast binary ops, broadcast_to, permute, fma,
// gauss_logpdf_sum, axis sum/mean, max/min/argmax) must reproduce bit for bit
// the plain formulation below: visit every multi-index in row-major order and
// compute each operand's offset from per-dim strides (0 where it broadcasts).
// Reductions fold each output cell in ascending input flat order; at
// kRefParThreshold elements and up (with more than one cell) the axis sum
// folds each cell over ascending offsets instead, through sum8f when the
// reduced dims form the dense innermost block. Shapes are seeded and random.

constexpr std::int64_t kRefParThreshold = std::int64_t{1} << 15;

/// Row-major multi-index walk over `shape`: fn(idx, flat).
template <typename Fn>
void ref_for_each_index(const Shape& shape, Fn&& fn) {
  const std::int64_t n = numel_of(shape);
  std::vector<std::int64_t> idx(shape.size(), 0);
  for (std::int64_t flat = 0; flat < n; ++flat) {
    fn(idx, flat);
    for (std::size_t d = shape.size(); d-- > 0;) {
      if (++idx[d] < shape[d]) break;
      idx[d] = 0;
    }
  }
}

std::int64_t ref_offset(const std::vector<std::int64_t>& idx,
                        const Shape& strides) {
  std::int64_t off = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) off += idx[d] * strides[d];
  return off;
}

std::string shape_str(const Shape& s) { return "[" + join(s) + "]"; }

void expect_bits(const Tensor& got, const Shape& shape,
                 const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.shape(), shape) << what;
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0)
      << what;
}

struct RefRng {
  std::mt19937_64 eng;
  explicit RefRng(std::uint64_t seed) : eng(seed) {}

  std::int64_t below(std::int64_t n) {  // uniform in [0, n)
    return static_cast<std::int64_t>(eng() % static_cast<std::uint64_t>(n));
  }
  /// Nonzero values of magnitude in [0.25, 2]; `ties` draws from {±0.5,
  /// ±1, ±1.5} so extremum scans and maximum/minimum see equal elements.
  Tensor values(const Shape& shape, bool ties = false) {
    std::vector<float> v(static_cast<std::size_t>(numel_of(shape)));
    std::uniform_real_distribution<float> u(0.25f, 2.0f);
    for (auto& x : v) {
      const float mag = ties ? 0.5f * static_cast<float>(1 + below(3)) : u(eng);
      x = below(2) == 0 ? mag : -mag;
    }
    return Tensor(shape, std::move(v));
  }
  Shape shape(std::int64_t rank, std::int64_t max_dim) {
    Shape s(static_cast<std::size_t>(rank));
    for (auto& d : s) d = 1 + below(max_dim);
    return s;
  }
  /// A shape that broadcasts to `out`: some leading dims dropped, some dims
  /// set to 1.
  Shape operand_of(const Shape& out) {
    const auto rank = static_cast<std::int64_t>(out.size());
    const std::int64_t drop = below(3) == 0 ? below(rank + 1) : 0;
    Shape s(out.begin() + drop, out.end());
    for (auto& d : s) {
      if (below(3) == 0) d = 1;
    }
    return s;
  }
  std::vector<std::int64_t> axes(std::int64_t rank) {  // non-empty subset
    std::vector<std::int64_t> ax;
    while (ax.empty()) {
      for (std::int64_t d = 0; d < rank; ++d) {
        if (below(2) == 0) ax.push_back(below(2) == 0 ? d : d - rank);
      }
    }
    return ax;
  }
};

using ScalarFn = std::function<float(float, float)>;

std::vector<float> ref_binary(const Tensor& a, const Tensor& b,
                              const ScalarFn& fn, Shape* out_shape) {
  *out_shape = broadcast_shapes(a.shape(), b.shape());
  const Shape sa = broadcast_strides(a.shape(), *out_shape);
  const Shape sb = broadcast_strides(b.shape(), *out_shape);
  std::vector<float> out(static_cast<std::size_t>(numel_of(*out_shape)));
  ref_for_each_index(*out_shape, [&](const std::vector<std::int64_t>& idx,
                                     std::int64_t flat) {
    out[static_cast<std::size_t>(flat)] =
        fn(a.data()[ref_offset(idx, sa)], b.data()[ref_offset(idx, sb)]);
  });
  return out;
}

struct RefBinaryOp {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  ScalarFn fn;
};

const std::vector<RefBinaryOp>& ref_binary_ops() {
  static const std::vector<RefBinaryOp> ops = {
      {"add", add, [](float x, float y) { return x + y; }},
      {"sub", sub, [](float x, float y) { return x - y; }},
      {"mul", mul, [](float x, float y) { return x * y; }},
      {"div", div, [](float x, float y) { return x / y; }},
      {"maximum", maximum, [](float x, float y) { return x >= y ? x : y; }},
      {"minimum", minimum, [](float x, float y) { return x <= y ? x : y; }},
  };
  return ops;
}

void check_binary(const Tensor& a, const Tensor& b) {
  for (const auto& op : ref_binary_ops()) {
    Shape shape;
    const std::vector<float> want = ref_binary(a, b, op.fn, &shape);
    expect_bits(op.op(a, b), shape, want,
                std::string(op.name) + " " + shape_str(a.shape()) + " " +
                    shape_str(b.shape()));
  }
}

TEST(StridedReference, BroadcastBinaryOpsMatchIndexWalk) {
  RefRng rng(101);
  for (int t = 0; t < 300; ++t) {
    const Shape out = rng.shape(rng.below(6), 5);
    const bool ties = t % 4 == 0;
    check_binary(rng.values(rng.operand_of(out), ties),
                 rng.values(rng.operand_of(out), ties));
  }
  // Scalar operands on either side, and the BatchNorm / bias-add shapes.
  const Shape big{64, 8, 16, 16};
  check_binary(rng.values({}), rng.values({3, 1, 4}));
  check_binary(rng.values({2, 3}), rng.values({}));
  check_binary(rng.values({1, 1}), rng.values({5, 1, 3}));
  check_binary(rng.values(big), rng.values({1, 8, 1, 1}));
  check_binary(rng.values({1, 8, 1, 1}), rng.values(big));
  check_binary(rng.values({64, 50}), rng.values({50}));
  check_binary(rng.values({64, 1}), rng.values({1, 50}));
}

TEST(StridedReference, BroadcastToMatchesIndexWalk) {
  RefRng rng(102);
  for (int t = 0; t < 200; ++t) {
    const Shape target = rng.shape(rng.below(6), 5);
    const Tensor a = rng.values(rng.operand_of(target));
    const Shape strides = broadcast_strides(a.shape(), target);
    std::vector<float> want(static_cast<std::size_t>(numel_of(target)));
    ref_for_each_index(target, [&](const std::vector<std::int64_t>& idx,
                                   std::int64_t flat) {
      want[static_cast<std::size_t>(flat)] = a.data()[ref_offset(idx, strides)];
    });
    expect_bits(broadcast_to(a, target), target, want,
                "broadcast_to " + shape_str(a.shape()) + " -> " +
                    shape_str(target));
  }
}

TEST(StridedReference, PermuteMatchesIndexWalk) {
  RefRng rng(103);
  for (int t = 0; t < 200; ++t) {
    const std::int64_t rank = rng.below(7);
    const Tensor a = rng.values(rng.shape(rank, 5));
    std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
    std::iota(dims.begin(), dims.end(), 0);
    std::shuffle(dims.begin(), dims.end(), rng.eng);
    const Shape in_strides = contiguous_strides(a.shape());
    Shape out_shape, src_strides;
    for (auto d : dims) {
      out_shape.push_back(a.shape()[static_cast<std::size_t>(d)]);
      src_strides.push_back(in_strides[static_cast<std::size_t>(d)]);
    }
    std::vector<float> want(static_cast<std::size_t>(a.numel()));
    ref_for_each_index(out_shape, [&](const std::vector<std::int64_t>& idx,
                                      std::int64_t flat) {
      want[static_cast<std::size_t>(flat)] =
          a.data()[ref_offset(idx, src_strides)];
    });
    expect_bits(permute(a, dims), out_shape, want,
                "permute " + shape_str(a.shape()) + " by " + shape_str(dims));
  }
  const Tensor w = rng.values({64, 784});
  std::vector<float> want(static_cast<std::size_t>(w.numel()));
  for (std::int64_t i = 0; i < 784; ++i) {
    for (std::int64_t j = 0; j < 64; ++j) {
      want[static_cast<std::size_t>(i * 64 + j)] = w.data()[j * 784 + i];
    }
  }
  expect_bits(transpose(w, 0, 1), Shape{784, 64}, want, "transpose 64x784");
}

TEST(StridedReference, FusedBroadcastsMatchIndexWalk) {
  RefRng rng(104);
  for (int t = 0; t < 150; ++t) {
    const Shape out = rng.shape(rng.below(6), 5);
    const Tensor a = rng.values(rng.operand_of(out));
    const Tensor b = rng.values(rng.operand_of(out));
    const Tensor c = rng.values(rng.operand_of(out));
    const Shape shape =
        broadcast_shapes(broadcast_shapes(a.shape(), b.shape()), c.shape());
    const Shape sa = broadcast_strides(a.shape(), shape);
    const Shape sb = broadcast_strides(b.shape(), shape);
    const Shape sc = broadcast_strides(c.shape(), shape);
    std::vector<float> want(static_cast<std::size_t>(numel_of(shape)));
    ref_for_each_index(shape, [&](const std::vector<std::int64_t>& idx,
                                  std::int64_t flat) {
      want[static_cast<std::size_t>(flat)] =
          a.data()[ref_offset(idx, sa)] * b.data()[ref_offset(idx, sb)] +
          c.data()[ref_offset(idx, sc)];
    });
    expect_bits(fma(a, b, c), shape, want,
                "fma " + shape_str(a.shape()) + " " + shape_str(b.shape()) +
                    " " + shape_str(c.shape()));

    // gauss_logpdf_sum: loc and scale broadcast to the value's shape.
    const Tensor v = rng.values(out);
    const Tensor loc = rng.values(rng.operand_of(out));
    const Tensor scale = abs(rng.values(rng.operand_of(out)));
    const Shape ls = broadcast_strides(loc.shape(), out);
    const Shape ss = broadcast_strides(scale.shape(), out);
    constexpr float kLogSqrt2Pi = 0.9189385332046727f;
    std::vector<float> lp(static_cast<std::size_t>(v.numel()));
    ref_for_each_index(out, [&](const std::vector<std::int64_t>& idx,
                                std::int64_t flat) {
      const float s = scale.data()[ref_offset(idx, ss)];
      const float z = (v.data()[flat] - loc.data()[ref_offset(idx, ls)]) / s;
      lp[static_cast<std::size_t>(flat)] =
          -0.5f * (z * z) - std::log(s) - kLogSqrt2Pi;
    });
    const std::vector<float> want_lp = {
        static_cast<float>(simd::sum8(lp.data(), v.numel()))};
    expect_bits(gauss_logpdf_sum(v, loc, scale), Shape{}, want_lp,
                "gauss_logpdf_sum " + shape_str(out) + " " +
                    shape_str(loc.shape()) + " " + shape_str(scale.shape()));
  }
}

/// Keepdim axis sum by the reference rules (see the section comment).
std::vector<float> ref_sum_axes(const Tensor& a,
                                const std::vector<std::int64_t>& axes,
                                Shape* keep) {
  const Shape& shape = a.shape();
  const auto rank = static_cast<std::int64_t>(shape.size());
  std::vector<bool> reduce(shape.size(), false);
  for (auto ax : axes) {
    reduce[static_cast<std::size_t>(normalize_axis(ax, rank))] = true;
  }
  *keep = shape;
  for (std::size_t d = 0; d < shape.size(); ++d) {
    if (reduce[d]) (*keep)[d] = 1;
  }
  const Shape in_strides = contiguous_strides(shape);
  Shape keep_strides = contiguous_strides(*keep);
  for (std::size_t d = 0; d < shape.size(); ++d) {
    if (reduce[d]) keep_strides[d] = 0;
  }
  const std::int64_t out_n = numel_of(*keep);
  std::vector<float> out(static_cast<std::size_t>(out_n), 0.0f);
  const float* pa = a.data();
  if (a.numel() >= kRefParThreshold && out_n > 1) {
    Shape red_shape, red_strides;
    for (std::size_t d = 0; d < shape.size(); ++d) {
      if (reduce[d]) {
        red_shape.push_back(shape[d]);
        red_strides.push_back(in_strides[d]);
      }
    }
    std::vector<std::int64_t> offsets;
    ref_for_each_index(red_shape, [&](const std::vector<std::int64_t>& idx,
                                      std::int64_t) {
      offsets.push_back(ref_offset(idx, red_strides));
    });
    const auto r = static_cast<std::int64_t>(offsets.size());
    const bool dense = !offsets.empty() && offsets.back() == r - 1;
    Shape base_strides = in_strides;
    for (std::size_t d = 0; d < shape.size(); ++d) {
      if (reduce[d]) base_strides[d] = 0;
    }
    ref_for_each_index(*keep, [&](const std::vector<std::int64_t>& idx,
                                  std::int64_t flat) {
      const std::int64_t base = ref_offset(idx, base_strides);
      float acc = 0.0f;
      if (dense) {
        acc = simd::sum8f(pa + base, r);
      } else {
        for (auto off : offsets) acc += pa[base + off];
      }
      out[static_cast<std::size_t>(flat)] = acc;
    });
  } else {
    ref_for_each_index(shape, [&](const std::vector<std::int64_t>& idx,
                                  std::int64_t flat) {
      out[static_cast<std::size_t>(ref_offset(idx, keep_strides))] += pa[flat];
    });
  }
  return out;
}

void check_sum_mean(const Tensor& a, const std::vector<std::int64_t>& axes) {
  Shape keep;
  const std::vector<float> sums = ref_sum_axes(a, axes, &keep);
  const float scale = static_cast<float>(sums.size()) /
                      static_cast<float>(a.numel());
  std::vector<float> means(sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) means[i] = sums[i] * scale;
  const Shape flat = reduced_shape(a.shape(), axes, false);
  const std::string what =
      shape_str(a.shape()) + " over " + shape_str(axes);
  expect_bits(sum(a, axes, true), keep, sums, "sum keepdim " + what);
  expect_bits(sum(a, axes, false), flat, sums, "sum " + what);
  expect_bits(mean(a, axes, true), keep, means, "mean keepdim " + what);
  expect_bits(mean(a, axes, false), flat, means, "mean " + what);
}

TEST(StridedReference, AxisSumMeanMatchIndexWalk) {
  RefRng rng(105);
  for (int t = 0; t < 200; ++t) {  // below the parallel threshold
    const std::int64_t rank = 1 + rng.below(5);
    const Tensor a = rng.values(rng.shape(rank, 6));
    check_sum_mean(a, rng.axes(rank));
  }
  const std::vector<std::int64_t> sizes = {1, 2, 3, 8, 16, 33, 40};
  for (int t = 0; t < 40; ++t) {  // at and above it
    const std::int64_t rank = 2 + rng.below(4);
    Shape shape(static_cast<std::size_t>(rank), 1);
    while (numel_of(shape) < kRefParThreshold) {
      auto& d = shape[static_cast<std::size_t>(rng.below(rank))];
      d *= sizes[static_cast<std::size_t>(rng.below(7))];
      if (d > 512) d = 512;
    }
    check_sum_mean(rng.values(shape), rng.axes(rank));
  }
  const Tensor bn = rng.values({64, 8, 16, 16});
  for (const auto& axes : std::vector<std::vector<std::int64_t>>{
           {0, 2, 3}, {1, 2, 3}, {0}, {3}, {2, 3}, {0, 1}, {0, 1, 2, 3}}) {
    check_sum_mean(bn, axes);
  }
  check_sum_mean(rng.values({64, 50}), {0});
  check_sum_mean(rng.values({8, 1, 4096}), {1});
  check_sum_mean(rng.values({4096, 8, 1}), {0, 2});
  // Ranks past five, on both sides of the threshold.
  check_sum_mean(rng.values({2, 3, 4, 5, 6, 7}), {1, 3, 5});
  check_sum_mean(rng.values({2, 3, 4, 5, 6, 7, 8}), {0, 2, 6});
  check_sum_mean(rng.values({2, 3, 4, 5, 6, 7, 8}), {5, 6});
}

void check_extremum(const Tensor& a, std::int64_t axis) {
  const Shape& shape = a.shape();
  const auto rank = static_cast<std::int64_t>(shape.size());
  const std::int64_t ax = normalize_axis(axis, rank);
  Shape keep = shape;
  keep[static_cast<std::size_t>(ax)] = 1;
  Shape keep_strides = contiguous_strides(keep);
  keep_strides[static_cast<std::size_t>(ax)] = 0;
  const auto out_n = static_cast<std::size_t>(numel_of(keep));
  const float* pa = a.data();
  const Shape flat_shape = reduced_shape(shape, {axis}, false);
  const std::string what = shape_str(shape) + " axis " + std::to_string(axis);
  for (const float sign : {1.0f, -1.0f}) {
    std::vector<float> best(out_n, -std::numeric_limits<float>::infinity());
    std::vector<std::int64_t> arg(out_n, -1);
    ref_for_each_index(shape, [&](const std::vector<std::int64_t>& idx,
                                  std::int64_t flat) {
      const auto o = static_cast<std::size_t>(ref_offset(idx, keep_strides));
      const float v = sign * pa[flat];
      if (v > best[o]) {
        best[o] = v;
        arg[o] = flat;
      }
    });
    for (auto& v : best) v *= sign;
    std::vector<float> grad(static_cast<std::size_t>(a.numel()), 0.0f);
    for (auto i : arg) grad[static_cast<std::size_t>(i)] += 1.0f;
    Tensor x = a.detach();
    x.set_requires_grad(true);
    const Tensor m = sign > 0 ? max(x, axis, true) : min(x, axis, true);
    const std::string name = sign > 0 ? "max " : "min ";
    expect_bits(m, keep, best, name + "keepdim " + what);
    expect_bits(sign > 0 ? max(a, axis) : min(a, axis), flat_shape, best,
                name + what);
    sum(m).backward();
    expect_bits(x.grad(), shape, grad, name + "grad " + what);
  }
  const std::int64_t ax_stride =
      contiguous_strides(shape)[static_cast<std::size_t>(ax)];
  const std::int64_t ax_len = shape[static_cast<std::size_t>(ax)];
  std::vector<float> best(out_n, -std::numeric_limits<float>::infinity());
  std::vector<float> arg(out_n, 0.0f);
  ref_for_each_index(shape, [&](const std::vector<std::int64_t>& idx,
                                std::int64_t flat) {
    const auto o = static_cast<std::size_t>(ref_offset(idx, keep_strides));
    if (pa[flat] > best[o]) {
      best[o] = pa[flat];
      arg[o] = static_cast<float>((flat / ax_stride) % ax_len);
    }
  });
  expect_bits(argmax(a, axis), flat_shape, arg, "argmax " + what);
}

TEST(StridedReference, ExtremaMatchIndexWalkWithTies) {
  RefRng rng(106);
  for (int t = 0; t < 200; ++t) {
    const std::int64_t rank = 1 + rng.below(5);
    const Tensor a = rng.values(rng.shape(rank, 6), /*ties=*/t % 2 == 0);
    const std::int64_t axis = rng.below(rank);
    check_extremum(a, rng.below(2) == 0 ? axis : axis - rank);
  }
  check_extremum(rng.values({64, 10}, true), 1);
  check_extremum(rng.values({2, 3, 4, 5, 6, 7}, true), 3);
}


// ---- Bitwise reference: the axpy / dot8 GEMM loops -------------------------
// matmul, bmm, linear and conv2d must reproduce bit for bit the plain loops
// below, at every SIMD level and thread count. C += A*B adds one rounded
// product per cell for each p in ascending order (the axpy formulation); A is
// read through row/column strides so both A and A^T layouts are covered.
// C += A*B^T adds one canonical dot per cell: lane l folds elements l, l+8,
// ... in ascending order, the lanes combine as ((p0+p1)+(p2+p3)) +
// ((p4+p5)+(p6+p7)), and the n % 8 tail folds in after the tree.

/// Restores the startup SIMD level and pool size when a test exits.
class LevelThreadsGuard {
 public:
  LevelThreadsGuard()
      : level_(simd::active_level()), threads_(par::num_threads()) {}
  ~LevelThreadsGuard() {
    simd::set_level_for_testing(level_);
    par::set_num_threads(threads_);
  }

 private:
  simd::Level level_;
  int threads_;
};

/// Runs `body` at every available SIMD level x {1, 4} pool threads.
template <typename Fn>
void for_each_level_and_threads(Fn&& body) {
  LevelThreadsGuard guard;
  for (const simd::Level lvl :
       {simd::Level::kScalar, simd::Level::kAVX2, simd::Level::kNEON}) {
    if (!simd::level_available(lvl)) continue;
    simd::set_level_for_testing(lvl);
    for (const int threads : {1, 4}) {
      par::set_num_threads(threads);
      body("level " + std::to_string(static_cast<int>(lvl)) + " threads " +
           std::to_string(threads));
    }
  }
}

float ref_dot8(const float* a, const float* b, std::int64_t n) {
  float p[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      const float prod = a[i + l] * b[i + l];
      p[l] = p[l] + prod;
    }
  }
  float total =
      ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
  for (std::int64_t i = main_n; i < n; ++i) {
    const float prod = a[i] * b[i];
    total = total + prod;
  }
  return total;
}

/// C(m,n) += A(m,k) * B(k,n) with A[i][p] = a[i * a_rs + p * a_cs].
void ref_gemm(const float* a, std::int64_t a_rs, std::int64_t a_cs,
              const float* b, float* c, std::int64_t m, std::int64_t k,
              std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[i * a_rs + p * a_cs];
      for (std::int64_t j = 0; j < n; ++j) {
        const float prod = av * b[p * n + j];
        c[i * n + j] = c[i * n + j] + prod;
      }
    }
  }
}

/// C(m,n) += A(m,k) * B(n,k)^T, one canonical dot per cell.
void ref_gemm_bt(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      c[i * n + j] = c[i * n + j] + ref_dot8(a + i * k, b + j * k, k);
    }
  }
}

std::vector<float> zeros_of(std::int64_t n) {
  return std::vector<float>(static_cast<std::size_t>(n), 0.0f);
}

/// Values across many exponents with exact zeros of both signs, so the
/// kernels' handling of -0 accumulations is pinned too.
std::vector<float> gemm_data(std::int64_t n, std::mt19937_64& eng) {
  std::uniform_real_distribution<float> mant(-1.0f, 1.0f);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    const auto roll = eng() % 16;
    x = roll == 0 ? 0.0f
        : roll == 1
            ? -0.0f
            : std::ldexp(mant(eng), static_cast<int>(eng() % 17) - 8);
  }
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(GemmReference, KernelsMatchAxpyDotLoopsAtEveryTileTail) {
  LevelThreadsGuard guard;
  std::mt19937_64 eng(204);
  const std::int64_t ns[] = {1, 7, 8, 9, 15, 16, 17, 33, 50, 256};
  const std::int64_t ks[] = {0, 1, 7, 8, 9, 72, 784};
  for (std::int64_t m = 1; m <= 9; ++m) {
    for (const std::int64_t n : ns) {
      for (const std::int64_t k : ks) {
        const std::vector<float> a = gemm_data(m * k, eng);
        const std::vector<float> b = gemm_data(k * n, eng);
        const std::vector<float> bt = gemm_data(n * k, eng);
        const std::vector<float> c0 = gemm_data(m * n, eng);
        // A row-major (m, k), and A stored transposed as (k, m).
        std::vector<float> want_rm = c0, want_tr = c0, want_bt = c0;
        ref_gemm(a.data(), k, 1, b.data(), want_rm.data(), m, k, n);
        ref_gemm(a.data(), 1, m, b.data(), want_tr.data(), m, k, n);
        ref_gemm_bt(a.data(), bt.data(), want_bt.data(), m, k, n);
        for (const simd::Level lvl :
             {simd::Level::kScalar, simd::Level::kAVX2, simd::Level::kNEON}) {
          if (!simd::level_available(lvl)) continue;
          simd::set_level_for_testing(lvl);
          const std::string what = "level " +
                                   std::to_string(static_cast<int>(lvl)) +
                                   shape_str({m, k, n});
          std::vector<float> got = c0;
          simd::gemm_acc(a.data(), k, 1, b.data(), got.data(), m, k, n);
          EXPECT_TRUE(same_bits(got, want_rm)) << "gemm_acc row-major " << what;
          got = c0;
          simd::gemm_acc(a.data(), 1, m, b.data(), got.data(), m, k, n);
          EXPECT_TRUE(same_bits(got, want_tr))
              << "gemm_acc transposed " << what;
          got = c0;
          simd::gemm_bt_acc(a.data(), bt.data(), got.data(), m, k, n);
          EXPECT_TRUE(same_bits(got, want_bt)) << "gemm_bt_acc " << what;
        }
      }
    }
  }
}

/// Leaf copy of `t` that records gradients.
Tensor grad_leaf(const Tensor& t) {
  Tensor x = t.detach();
  x.set_requires_grad(true);
  return x;
}

/// Seeds `y`'s gradient with exactly `g`: d(sum(y * g))/dy = 1 * g.
void backward_with(const Tensor& y, const Tensor& g) {
  sum(mul(y, g)).backward();
}

void check_matmul(RefRng& rng, std::int64_t m, std::int64_t k, std::int64_t n) {
  const Tensor a = rng.values({m, k});
  const Tensor b = rng.values({k, n});
  const Tensor g = rng.values({m, n});
  std::vector<float> y = zeros_of(m * n);
  std::vector<float> ga = zeros_of(m * k);
  std::vector<float> gb = zeros_of(k * n);
  ref_gemm(a.data(), k, 1, b.data(), y.data(), m, k, n);
  ref_gemm_bt(g.data(), b.data(), ga.data(), m, n, k);
  ref_gemm(a.data(), 1, k, g.data(), gb.data(), k, m, n);
  const std::string dims = " m" + std::to_string(m) + " k" +
                           std::to_string(k) + " n" + std::to_string(n);
  for_each_level_and_threads([&](const std::string& where) {
    const Tensor la = grad_leaf(a), lb = grad_leaf(b);
    const Tensor out = matmul(la, lb);
    expect_bits(out, {m, n}, y, "matmul" + dims + " " + where);
    backward_with(out, g);
    expect_bits(la.grad(), {m, k}, ga, "matmul ga" + dims + " " + where);
    expect_bits(lb.grad(), {k, n}, gb, "matmul gb" + dims + " " + where);
  });
}

TEST(GemmReference, MatmulForwardBackwardMatchAxpyDotLoops) {
  RefRng rng(201);
  // m*k*n below and above the 2^16 fan-out threshold, unit dims, the
  // fig1 hidden-to-output shape, and an mlp_serve input layer.
  const std::int64_t shapes[][3] = {
      {1, 1, 1},   {3, 5, 7},   {9, 8, 17},  {64, 1, 50},  {64, 50, 1},
      {64, 50, 50}, {37, 45, 50}, {40, 41, 40}, {33, 72, 9}, {8, 784, 64},
      {5, 3, 256}};
  for (const auto& s : shapes) check_matmul(rng, s[0], s[1], s[2]);
}

TEST(GemmReference, BmmForwardBackwardMatchAxpyDotLoops) {
  RefRng rng(202);
  const std::int64_t shapes[][4] = {
      {1, 3, 4, 5},    {3, 4, 5, 6},     {2, 9, 1, 17},
      {4, 20, 30, 40}, {3, 33, 64, 17}};
  for (const auto& s : shapes) {
    const std::int64_t batch = s[0], m = s[1], k = s[2], n = s[3];
    const Tensor a = rng.values({batch, m, k});
    const Tensor b = rng.values({batch, k, n});
    const Tensor g = rng.values({batch, m, n});
    std::vector<float> y = zeros_of(batch * m * n);
    std::vector<float> ga = zeros_of(batch * m * k);
    std::vector<float> gb = zeros_of(batch * k * n);
    for (std::int64_t i = 0; i < batch; ++i) {
      const float* ai = a.data() + i * m * k;
      const float* bi = b.data() + i * k * n;
      const float* gi = g.data() + i * m * n;
      ref_gemm(ai, k, 1, bi, y.data() + i * m * n, m, k, n);
      ref_gemm_bt(gi, bi, ga.data() + i * m * k, m, n, k);
      ref_gemm(ai, 1, k, gi, gb.data() + i * k * n, k, m, n);
    }
    const std::string dims = " " + shape_str({batch, m, k, n});
    for_each_level_and_threads([&](const std::string& where) {
      const Tensor la = grad_leaf(a), lb = grad_leaf(b);
      const Tensor out = bmm(la, lb);
      expect_bits(out, {batch, m, n}, y, "bmm" + dims + " " + where);
      backward_with(out, g);
      expect_bits(la.grad(), {batch, m, k}, ga, "bmm ga" + dims + " " + where);
      expect_bits(lb.grad(), {batch, k, n}, gb, "bmm gb" + dims + " " + where);
    });
  }
}

TEST(GemmReference, LinearForwardBackwardMatchAxpyDotLoops) {
  RefRng rng(203);
  // {rows, in, out}: linear runs matmul(x, W^T), so W's gradient is the
  // transpose of the (in, out) product gradient.
  const std::int64_t shapes[][3] = {
      {4, 1, 50}, {64, 50, 1}, {64, 50, 50}, {7, 9, 17}, {32, 784, 64}};
  for (const auto& s : shapes) {
    const std::int64_t rows = s[0], in = s[1], out_f = s[2];
    const Tensor x = rng.values({rows, in});
    const Tensor w = rng.values({out_f, in});
    const Tensor bias = rng.values({out_f});
    const Tensor g = rng.values({rows, out_f});
    std::vector<float> wt(static_cast<std::size_t>(in * out_f));
    for (std::int64_t o = 0; o < out_f; ++o) {
      for (std::int64_t p = 0; p < in; ++p) {
        wt[static_cast<std::size_t>(p * out_f + o)] = w.data()[o * in + p];
      }
    }
    std::vector<float> y = zeros_of(rows * out_f);
    std::vector<float> gx = zeros_of(rows * in);
    std::vector<float> gwt = zeros_of(in * out_f);
    ref_gemm(x.data(), in, 1, wt.data(), y.data(), rows, in, out_f);
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t o = 0; o < out_f; ++o) {
        float& cell = y[static_cast<std::size_t>(i * out_f + o)];
        cell = cell + bias.data()[o];
      }
    }
    ref_gemm_bt(g.data(), wt.data(), gx.data(), rows, out_f, in);
    ref_gemm(x.data(), 1, in, g.data(), gwt.data(), in, rows, out_f);
    std::vector<float> gw(gwt.size());
    for (std::int64_t o = 0; o < out_f; ++o) {
      for (std::int64_t p = 0; p < in; ++p) {
        gw[static_cast<std::size_t>(o * in + p)] =
            gwt[static_cast<std::size_t>(p * out_f + o)];
      }
    }
    const std::string dims = " " + shape_str({rows, in, out_f});
    for_each_level_and_threads([&](const std::string& where) {
      const Tensor lx = grad_leaf(x), lw = grad_leaf(w);
      const Tensor out = linear(lx, lw, bias);
      expect_bits(out, {rows, out_f}, y, "linear" + dims + " " + where);
      backward_with(out, g);
      expect_bits(lx.grad(), {rows, in}, gx, "linear gx" + dims + " " + where);
      expect_bits(lw.grad(), {out_f, in}, gw, "linear gw" + dims + " " + where);
    });
  }
}

// ---- Bitwise reference: per-element im2col / col2im ------------------------
// conv2d's forward, gx, gw and gb must match the formulation below: expand
// each image with a bounds test per element, run the axpy/dot loops above,
// scatter back per element. gw folds images in order; on the fan-out path
// (n > 1, flops at kRefConvParThreshold or more, n * |W| at most
// kRefConvPartialCap) each image's dot first lands in its own zeroed
// partial, which is then added in image order.

constexpr std::int64_t kRefConvParThreshold = std::int64_t{1} << 16;
constexpr std::int64_t kRefConvPartialCap = std::int64_t{1} << 22;

struct RefConv {
  std::int64_t n, ic, ih, iw, oc, kh, kw, stride, padding;
  std::int64_t oh() const { return (ih + 2 * padding - kh) / stride + 1; }
  std::int64_t ow() const { return (iw + 2 * padding - kw) / stride + 1; }
  std::int64_t patch() const { return ic * kh * kw; }
  std::int64_t spatial() const { return oh() * ow(); }
};

void ref_im2col(const float* img, const RefConv& d, float* cols) {
  const std::int64_t oh = d.oh(), ow = d.ow();
  for (std::int64_t c = 0; c < d.ic; ++c) {
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        float* dst = cols + ((c * d.kh + ky) * d.kw + kx) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * d.stride + ky - d.padding;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * d.stride + kx - d.padding;
            const bool inside = iy >= 0 && iy < d.ih && ix >= 0 && ix < d.iw;
            dst[oy * ow + ox] =
                inside ? img[(c * d.ih + iy) * d.iw + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void ref_col2im(const float* cols, const RefConv& d, float* img) {
  const std::int64_t oh = d.oh(), ow = d.ow();
  for (std::int64_t c = 0; c < d.ic; ++c) {
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        const float* src = cols + ((c * d.kh + ky) * d.kw + kx) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * d.stride + ky - d.padding;
          if (iy < 0 || iy >= d.ih) continue;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * d.stride + kx - d.padding;
            if (ix < 0 || ix >= d.iw) continue;
            float& cell = img[(c * d.ih + iy) * d.iw + ix];
            cell = cell + src[oy * ow + ox];
          }
        }
      }
    }
  }
}

void check_conv(RefRng& rng, const RefConv& d) {
  const std::int64_t patch = d.patch(), spatial = d.spatial();
  const std::int64_t img_size = d.ic * d.ih * d.iw, wsize = d.oc * patch;
  const Tensor x = rng.values({d.n, d.ic, d.ih, d.iw});
  const Tensor w = rng.values({d.oc, d.ic, d.kh, d.kw});
  const Tensor bias = rng.values({d.oc});
  const Tensor g = rng.values({d.n, d.oc, d.oh(), d.ow()});
  std::vector<float> y = zeros_of(d.n * d.oc * spatial);
  std::vector<float> gx = zeros_of(d.n * img_size);
  std::vector<float> gw = zeros_of(wsize);
  std::vector<float> gb = zeros_of(d.oc);
  std::vector<float> cols = zeros_of(patch * spatial);
  const bool fan_out = d.n > 1 &&
                       d.n * patch * spatial * d.oc >= kRefConvParThreshold &&
                       d.n * wsize <= kRefConvPartialCap;
  for (std::int64_t img = 0; img < d.n; ++img) {
    const float* gout = g.data() + img * d.oc * spatial;
    ref_im2col(x.data() + img * img_size, d, cols.data());
    ref_gemm(w.data(), patch, 1, cols.data(), y.data() + img * d.oc * spatial,
             d.oc, patch, spatial);
    if (fan_out) {
      std::vector<float> part = zeros_of(wsize);
      ref_gemm_bt(gout, cols.data(), part.data(), d.oc, spatial, patch);
      for (std::int64_t i = 0; i < wsize; ++i) {
        gw[static_cast<std::size_t>(i)] =
            gw[static_cast<std::size_t>(i)] + part[static_cast<std::size_t>(i)];
      }
    } else {
      ref_gemm_bt(gout, cols.data(), gw.data(), d.oc, spatial, patch);
    }
    std::vector<float> gcols = zeros_of(patch * spatial);
    ref_gemm(w.data(), 1, patch, gout, gcols.data(), patch, d.oc, spatial);
    ref_col2im(gcols.data(), d, gx.data() + img * img_size);
    for (std::int64_t c = 0; c < d.oc; ++c) {
      float* dst = y.data() + (img * d.oc + c) * spatial;
      const float* src = gout + c * spatial;
      float acc = 0.0f;
      for (std::int64_t s = 0; s < spatial; ++s) {
        dst[s] = dst[s] + bias.data()[c];
        acc = acc + src[s];
      }
      gb[static_cast<std::size_t>(c)] = gb[static_cast<std::size_t>(c)] + acc;
    }
  }
  const std::string dims = " x" + shape_str(x.shape()) + " w" +
                           shape_str(w.shape()) + " s" +
                           std::to_string(d.stride) + " p" +
                           std::to_string(d.padding);
  for_each_level_and_threads([&](const std::string& where) {
    const Tensor lx = grad_leaf(x), lw = grad_leaf(w), lb = grad_leaf(bias);
    const Tensor out = conv2d(lx, lw, lb, d.stride, d.padding);
    expect_bits(out, {d.n, d.oc, d.oh(), d.ow()}, y,
                "conv2d" + dims + " " + where);
    backward_with(out, g);
    expect_bits(lx.grad(), x.shape(), gx, "conv2d gx" + dims + " " + where);
    expect_bits(lw.grad(), w.shape(), gw, "conv2d gw" + dims + " " + where);
    expect_bits(lb.grad(), {d.oc}, gb, "conv2d gb" + dims + " " + where);
  });
}

TEST(ConvReference, KernelsStridesPaddingsMatchPerElementIm2col) {
  RefRng rng(301);
  // Non-square images, including ones narrower than the kernel and paddings
  // at or past the kernel size (whole padding rows and columns).
  const std::int64_t images[][2] = {{5, 7}, {8, 3}, {2, 6}, {9, 9}};
  for (const std::int64_t k : {1, 3, 5}) {
    for (std::int64_t stride = 1; stride <= 3; ++stride) {
      for (std::int64_t padding = 0; padding <= 3; ++padding) {
        for (const auto& hw : images) {
          const RefConv d{2, 2, hw[0], hw[1], 3, k, k, stride, padding};
          if (hw[0] + 2 * padding < k || hw[1] + 2 * padding < k) continue;
          check_conv(rng, d);
        }
      }
    }
  }
}

TEST(ConvReference, FanOutGatesMatchPerElementIm2col) {
  RefRng rng(302);
  // n * patch * spatial * oc on both sides of the fan-out threshold.
  check_conv(rng, {1, 3, 8, 8, 4, 3, 3, 1, 1});    // one image, above it
  check_conv(rng, {3, 2, 6, 5, 3, 3, 3, 1, 1});    // below it
  check_conv(rng, {4, 4, 16, 16, 8, 3, 3, 1, 1});  // above it: partials
  check_conv(rng, {6, 8, 8, 8, 16, 3, 3, 2, 1});   // strided, above it
  check_conv(rng, {5, 3, 7, 9, 4, 1, 1, 1, 0});    // 1x1, below it
  // n * |W| past the partial cap: above the threshold but folded serially.
  check_conv(rng, {11, 128, 6, 6, 128, 5, 5, 1, 0});
  // The resnet stem: 3 -> 4 channels on 16x16 images, padding 1.
  check_conv(rng, {32, 3, 16, 16, 4, 3, 3, 1, 1});
}

}  // namespace
}  // namespace tx
