// Autograd tests: engine behaviour plus finite-difference gradient checks
// across the whole op surface (parameterized property sweep).
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/grad_check.h"
#include "tensor/tensor.h"

namespace tx {
namespace {

TEST(Autograd, SimpleChain) {
  Tensor x = Tensor::scalar(2.0f).set_requires_grad(true);
  Tensor y = x * x * x;  // y = x^3, dy/dx = 3x^2 = 12
  y.backward();
  EXPECT_NEAR(x.grad().item(), 12.0f, 1e-5);
}

TEST(Autograd, FanOutAccumulates) {
  Tensor x = Tensor::scalar(3.0f).set_requires_grad(true);
  Tensor y = x * x + x * 2.0f;  // dy/dx = 2x + 2 = 8
  y.backward();
  EXPECT_NEAR(x.grad().item(), 8.0f, 1e-5);
}

TEST(Autograd, RepeatedBackwardAccumulates) {
  Tensor x = Tensor::scalar(1.0f).set_requires_grad(true);
  (x * 3.0f).backward();
  (x * 3.0f).backward();
  EXPECT_NEAR(x.grad().item(), 6.0f, 1e-5);
  x.zero_grad();
  EXPECT_FALSE(x.has_grad());
}

TEST(Autograd, NoGradGuardStopsRecording) {
  Tensor x = Tensor::scalar(2.0f).set_requires_grad(true);
  Tensor y;
  {
    NoGradGuard ng;
    y = x * x;
  }
  EXPECT_TRUE(y.is_leaf());
  EXPECT_FALSE(y.requires_grad());
}

TEST(Autograd, DetachCutsGraph) {
  Tensor x = Tensor::scalar(2.0f).set_requires_grad(true);
  Tensor y = (x * x).detach() * x;  // treated as 4 * x
  y.backward();
  EXPECT_NEAR(x.grad().item(), 4.0f, 1e-5);
}

TEST(Autograd, CloneIsDifferentiable) {
  Tensor x = Tensor::scalar(2.0f).set_requires_grad(true);
  Tensor y = x.clone() * 3.0f;
  y.backward();
  EXPECT_NEAR(x.grad().item(), 3.0f, 1e-5);
}

TEST(Autograd, NonScalarBackwardThrows) {
  Tensor x = Tensor(Shape{2}, {1.0f, 2.0f}).set_requires_grad(true);
  Tensor y = x * 2.0f;
  EXPECT_THROW(y.backward(), Error);
}

TEST(Autograd, BroadcastGradientsReduceCorrectly) {
  Tensor a = Tensor(Shape{2, 1}, {1.0f, 2.0f}).set_requires_grad(true);
  Tensor b = Tensor(Shape{3}, {1.0f, 1.0f, 1.0f}).set_requires_grad(true);
  sum(a * b).backward();
  // d/da sums over the broadcast 3-column axis.
  EXPECT_NEAR(a.grad().at(0), 3.0f, 1e-5);
  EXPECT_NEAR(b.grad().at(0), 3.0f, 1e-5);  // 1 + 2
}

TEST(Autograd, InPlaceOnGraphTensorThrows) {
  Tensor x = Tensor::scalar(1.0f).set_requires_grad(true);
  Tensor y = x * 2.0f;
  EXPECT_THROW(y.add_(Tensor::scalar(1.0f)), Error);
  EXPECT_THROW(y.fill_(0.0f), Error);
}

TEST(Autograd, SetRequiresGradOnNonLeafThrows) {
  Tensor x = Tensor::scalar(1.0f).set_requires_grad(true);
  Tensor y = x * 2.0f;
  EXPECT_THROW(y.set_requires_grad(false), Error);
}

// ---- finite-difference sweep over unary ops --------------------------------

struct UnaryCase {
  std::string name;
  std::function<Tensor(const Tensor&)> fn;
  float lo, hi;  // input sampling range (keeps domains valid)
};

// Without a printer gtest lists the raw bytes of the case, a heap address
// among them, so the listed test names would change from run to run.
void PrintTo(const UnaryCase& c, std::ostream* os) { *os << c.name; }

class UnaryGradCheck : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradCheck, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  Generator gen(7);
  Tensor x = rand_uniform({3, 4}, c.lo, c.hi, &gen);
  auto scalar_fn = [&](const std::vector<Tensor>& in) {
    return sum(c.fn(in[0]));
  };
  EXPECT_TRUE(grad_check(scalar_fn, {x})) << "op: " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradCheck,
    ::testing::Values(
        UnaryCase{"neg", [](const Tensor& t) { return neg(t); }, -2.0f, 2.0f},
        UnaryCase{"exp", [](const Tensor& t) { return exp(t); }, -1.0f, 1.0f},
        UnaryCase{"log", [](const Tensor& t) { return log(t); }, 0.5f, 3.0f},
        UnaryCase{"sqrt", [](const Tensor& t) { return sqrt(t); }, 0.5f, 3.0f},
        UnaryCase{"square", [](const Tensor& t) { return square(t); }, -2.0f, 2.0f},
        UnaryCase{"tanh", [](const Tensor& t) { return tanh(t); }, -2.0f, 2.0f},
        UnaryCase{"sigmoid", [](const Tensor& t) { return sigmoid(t); }, -3.0f, 3.0f},
        UnaryCase{"relu", [](const Tensor& t) { return relu(t); }, 0.2f, 2.0f},
        UnaryCase{"softplus", [](const Tensor& t) { return softplus(t); }, -2.0f, 2.0f},
        UnaryCase{"sin", [](const Tensor& t) { return sin(t); }, -2.0f, 2.0f},
        UnaryCase{"cos", [](const Tensor& t) { return cos(t); }, -2.0f, 2.0f},
        UnaryCase{"erf", [](const Tensor& t) { return erf(t); }, -1.5f, 1.5f},
        UnaryCase{"pow2.5", [](const Tensor& t) { return pow_scalar(t, 2.5f); }, 0.5f, 2.0f},
        UnaryCase{"clamp", [](const Tensor& t) { return clamp(t, -0.5f, 0.5f); }, -2.0f, 2.0f},
        UnaryCase{"clamp_max", [](const Tensor& t) { return clamp_max(t, 0.3f); }, -1.0f, 1.0f}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      std::string n = info.param.name;
      for (auto& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

// ---- finite-difference sweep over binary ops with broadcasting -------------

struct BinaryCase {
  std::string name;
  std::function<Tensor(const Tensor&, const Tensor&)> fn;
  Shape sa, sb;
};

void PrintTo(const BinaryCase& c, std::ostream* os) { *os << c.name; }

class BinaryGradCheck : public ::testing::TestWithParam<BinaryCase> {};

TEST_P(BinaryGradCheck, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  Generator gen(11);
  Tensor a = rand_uniform(c.sa, 0.5f, 2.0f, &gen);
  Tensor b = rand_uniform(c.sb, 0.5f, 2.0f, &gen);
  auto scalar_fn = [&](const std::vector<Tensor>& in) {
    return sum(c.fn(in[0], in[1]));
  };
  EXPECT_TRUE(grad_check(scalar_fn, {a, b})) << "op: " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryOps, BinaryGradCheck,
    ::testing::Values(
        BinaryCase{"add_same", [](const Tensor& a, const Tensor& b) { return a + b; }, {2, 3}, {2, 3}},
        BinaryCase{"add_bcast", [](const Tensor& a, const Tensor& b) { return a + b; }, {2, 1}, {3}},
        BinaryCase{"sub_bcast", [](const Tensor& a, const Tensor& b) { return a - b; }, {4}, {2, 4}},
        BinaryCase{"mul_same", [](const Tensor& a, const Tensor& b) { return a * b; }, {2, 3}, {2, 3}},
        BinaryCase{"mul_scalar_b", [](const Tensor& a, const Tensor& b) { return a * b; }, {2, 3}, {}},
        BinaryCase{"div_same", [](const Tensor& a, const Tensor& b) { return a / b; }, {2, 3}, {2, 3}},
        BinaryCase{"div_bcast", [](const Tensor& a, const Tensor& b) { return a / b; }, {2, 3}, {3}},
        BinaryCase{"maximum", [](const Tensor& a, const Tensor& b) { return maximum(a, b); }, {2, 3}, {2, 3}},
        BinaryCase{"minimum", [](const Tensor& a, const Tensor& b) { return minimum(a, b); }, {2, 3}, {2, 3}}),
    [](const ::testing::TestParamInfo<BinaryCase>& info) {
      return info.param.name;
    });

// ---- structural / reduction / linalg / conv grads --------------------------

TEST(GradCheck, Reductions) {
  Generator gen(3);
  Tensor x = rand_uniform({2, 3, 2}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) { return sum(in[0]); }, {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) { return mean(in[0]); }, {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) { return sum(mean(in[0], {1})); }, {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(sum(in[0], {0, 2}, true));
      },
      {x}));
}

TEST(GradCheck, MaxLogsumexpSoftmax) {
  Generator gen(5);
  Tensor x = rand_uniform({3, 4}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) { return sum(max(in[0], 1)); }, {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) { return sum(logsumexp(in[0], -1)); },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(softmax(in[0], -1)));
      },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(log_softmax(in[0], -1)));
      },
      {x}));
}

TEST(GradCheck, Cumsum) {
  Generator gen(9);
  Tensor x = rand_uniform({2, 4}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(cumsum(in[0], 1)));
      },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(cumsum(in[0], 0)));
      },
      {x}));
}

TEST(GradCheck, ShapeOps) {
  Generator gen(13);
  Tensor x = rand_uniform({2, 6}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(reshape(in[0], {3, 4})));
      },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(transpose(in[0], 0, 1)));
      },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(slice(in[0], 1, 1, 4)));
      },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(index_select(in[0], 1, {0, 0, 5})));
      },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(broadcast_to(in[0], {3, 2, 6})));
      },
      {x}));
  Tensor a = rand_uniform({2, 3}, -1.0f, 1.0f, &gen);
  Tensor b = rand_uniform({2, 2}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(cat({in[0], in[1]}, 1)));
      },
      {a, b}));
}

TEST(GradCheck, GatherLast) {
  Generator gen(17);
  Tensor x = rand_uniform({4, 3}, -1.0f, 1.0f, &gen);
  Tensor idx(Shape{4}, {0.0f, 2.0f, 1.0f, 2.0f});
  EXPECT_TRUE(grad_check(
      [idx](const std::vector<Tensor>& in) {
        return sum(square(gather_last(in[0], idx)));
      },
      {x}));
}

TEST(GradCheck, MatmulBmmLinear) {
  Generator gen(19);
  Tensor a = rand_uniform({3, 4}, -1.0f, 1.0f, &gen);
  Tensor b = rand_uniform({4, 2}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(matmul(in[0], in[1])));
      },
      {a, b}));
  Tensor ba = rand_uniform({2, 2, 3}, -1.0f, 1.0f, &gen);
  Tensor bb = rand_uniform({2, 3, 2}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(bmm(in[0], in[1])));
      },
      {ba, bb}));
  Tensor x = rand_uniform({3, 4}, -1.0f, 1.0f, &gen);
  Tensor w = rand_uniform({2, 4}, -1.0f, 1.0f, &gen);
  Tensor bias = rand_uniform({2}, -1.0f, 1.0f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(linear(in[0], in[1], in[2])));
      },
      {x, w, bias}));
}

TEST(GradCheck, ConvAndPool) {
  Generator gen(23);
  Tensor x = rand_uniform({2, 2, 5, 5}, -1.0f, 1.0f, &gen);
  Tensor w = rand_uniform({3, 2, 3, 3}, -0.5f, 0.5f, &gen);
  Tensor b = rand_uniform({3}, -0.5f, 0.5f, &gen);
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(conv2d(in[0], in[1], in[2], 1, 1)));
      },
      {x, w, b}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(conv2d(in[0], in[1], Tensor(), 2, 1)));
      },
      {x, w}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(max_pool2d(in[0], 2, 2)));
      },
      {x}));
  EXPECT_TRUE(grad_check(
      [](const std::vector<Tensor>& in) {
        return sum(square(avg_pool2d(in[0], 2, 2)));
      },
      {x}));
}

TEST(GradCheck, CompositeNetworkExpression) {
  // A small two-layer tanh network end to end, the exact shape used by the
  // paper's regression example.
  Generator gen(29);
  Tensor x = rand_uniform({8, 1}, -1.0f, 1.0f, &gen);
  Tensor w1 = rand_uniform({16, 1}, -0.5f, 0.5f, &gen);
  Tensor b1 = rand_uniform({16}, -0.5f, 0.5f, &gen);
  Tensor w2 = rand_uniform({1, 16}, -0.5f, 0.5f, &gen);
  Tensor b2 = rand_uniform({1}, -0.5f, 0.5f, &gen);
  EXPECT_TRUE(grad_check(
      [x](const std::vector<Tensor>& in) {
        Tensor h = tanh(linear(x, in[0], in[1]));
        Tensor y = linear(h, in[2], in[3]);
        return mean(square(y));
      },
      {w1, b1, w2, b2}));
}

}  // namespace
}  // namespace tx
