// The product backwards (matmul, bmm, conv2d and linear through matmul) give
// a gradient only to the inputs that require one. For every requires-grad
// pattern of the inputs, each gradient that is produced must be bitwise the
// one the all-inputs run produces, the others must stay undefined (and the
// engine must not complain about them), at every SIMD level x {1, 4} pool
// threads. The shapes include products above the parallel thresholds, so
// the fanned-out paths are covered too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "par/pool.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {
namespace {

// Deterministic, non-constant inputs.
Tensor ramp(const Shape& shape, float phase) {
  const std::int64_t n = numel_of(shape);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        std::sin(0.61f * static_cast<float>(i) + phase);
  }
  return Tensor(shape, std::move(v));
}

struct Case {
  std::string name;
  std::vector<Shape> inputs;
  std::function<Tensor(const std::vector<Tensor>&)> op;
  bool direct;  // op's output node is the product itself
};

const std::vector<Case>& cases() {
  static const std::vector<Case> c = {
      {"matmul", {{6, 5}, {5, 4}},
       [](const std::vector<Tensor>& in) { return matmul(in[0], in[1]); },
       true},
      {"matmul_parallel", {{64, 96}, {96, 80}},
       [](const std::vector<Tensor>& in) { return matmul(in[0], in[1]); },
       true},
      {"bmm", {{3, 4, 6}, {3, 6, 5}},
       [](const std::vector<Tensor>& in) { return bmm(in[0], in[1]); }, true},
      {"bmm_parallel", {{4, 32, 48}, {4, 48, 40}},
       [](const std::vector<Tensor>& in) { return bmm(in[0], in[1]); }, true},
      {"conv2d", {{2, 3, 8, 8}, {4, 3, 3, 3}, {4}},
       [](const std::vector<Tensor>& in) {
         return conv2d(in[0], in[1], in[2], 1, 1);
       },
       true},
      {"conv2d_no_bias_stride2", {{2, 3, 9, 9}, {4, 3, 3, 3}},
       [](const std::vector<Tensor>& in) {
         return conv2d(in[0], in[1], Tensor(), 2, 1);
       },
       true},
      {"conv2d_fan_out", {{4, 8, 16, 16}, {8, 8, 3, 3}, {8}},
       [](const std::vector<Tensor>& in) {
         return conv2d(in[0], in[1], in[2], 1, 1);
       },
       true},
      {"linear", {{5, 7}, {3, 7}, {3}},
       [](const std::vector<Tensor>& in) {
         return linear(in[0], in[1], in[2]);
       },
       false},
      {"linear_rank3_no_bias", {{2, 5, 7}, {3, 7}},
       [](const std::vector<Tensor>& in) {
         return linear(in[0], in[1], Tensor());
       },
       false},
  };
  return c;
}

std::vector<Tensor> inputs_of(const Case& c, unsigned pattern) {
  std::vector<Tensor> in;
  for (std::size_t k = 0; k < c.inputs.size(); ++k) {
    in.push_back(ramp(c.inputs[k], 0.3f + static_cast<float>(k)));
    in.back().set_requires_grad(((pattern >> k) & 1u) != 0);
  }
  return in;
}

// The gradient of every input under one requires-grad pattern (empty where
// none was produced), from a loss whose upstream gradient is not constant.
std::vector<std::vector<float>> grads_of(const Case& c, unsigned pattern) {
  std::vector<Tensor> in = inputs_of(c, pattern);
  const Tensor out = c.op(in);
  sum(mul(out, ramp(out.shape(), 2.1f))).backward();
  std::vector<std::vector<float>> grads;
  for (const Tensor& t : in) {
    grads.push_back(t.has_grad() ? t.grad().to_vector()
                                 : std::vector<float>());
  }
  return grads;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every pattern with at least one input requiring grad.
std::vector<unsigned> patterns(const Case& c) {
  std::vector<unsigned> out;
  for (unsigned p = 1; p < (1u << c.inputs.size()); ++p) out.push_back(p);
  return out;
}

// Each pattern's produced gradients against `ref`, the all-inputs run.
void check_case(const Case& c, const std::vector<std::vector<float>>& ref,
                const std::string& where) {
  for (const unsigned p : patterns(c)) {
    const std::vector<std::vector<float>> got = grads_of(c, p);
    for (std::size_t k = 0; k < c.inputs.size(); ++k) {
      const bool want = ((p >> k) & 1u) != 0;
      const std::string what = c.name + " pattern " + std::to_string(p) +
                               " input " + std::to_string(k) + where;
      ASSERT_FALSE(ref[k].empty()) << what;
      if (want) {
        EXPECT_TRUE(same_bits(got[k], ref[k])) << what;
      } else {
        EXPECT_TRUE(got[k].empty()) << what;
      }
    }
  }
}

// The product node itself hands back an undefined tensor for every input
// that does not require grad.
TEST(GradSkip, SkippedGradientsAreUndefined) {
  for (const Case& c : cases()) {
    if (!c.direct) continue;
    for (const unsigned p : patterns(c)) {
      std::vector<Tensor> in = inputs_of(c, p);
      const Tensor out = c.op(in);
      ASSERT_TRUE(out.impl()->grad_fn) << c.name;
      const std::vector<Tensor> grads =
          out.impl()->grad_fn->backward_fn(ramp(out.shape(), 2.1f));
      ASSERT_EQ(grads.size(), in.size()) << c.name;
      for (std::size_t k = 0; k < in.size(); ++k) {
        EXPECT_EQ(grads[k].defined(), ((p >> k) & 1u) != 0)
            << c.name << " pattern " << p << " input " << k;
      }
    }
  }
}

std::vector<simd::Level> levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  for (auto l : {simd::Level::kAVX2, simd::Level::kNEON}) {
    if (simd::level_available(l)) out.push_back(l);
  }
  return out;
}

// The reference is the all-inputs backward at the scalar level on one
// thread, which every level and thread count reproduces bit for bit.
TEST(GradSkip, ProducedGradientsMatchTheFullBackwardAtEveryLevelAndThreads) {
  const simd::Level saved_level = simd::active_level();
  const int saved_threads = par::num_threads();
  simd::set_level_for_testing(simd::Level::kScalar);
  par::set_num_threads(1);
  std::vector<std::vector<std::vector<float>>> refs;
  for (const Case& c : cases()) {
    refs.push_back(grads_of(c, (1u << c.inputs.size()) - 1));
  }
  for (const simd::Level level : levels()) {
    for (const int threads : {1, 4}) {
      ASSERT_EQ(simd::set_level_for_testing(level), level);
      par::set_num_threads(threads);
      for (std::size_t i = 0; i < cases().size(); ++i) {
        check_case(cases()[i], refs[i],
                   " level " + std::to_string(static_cast<int>(level)) +
                       " threads " + std::to_string(threads));
      }
    }
  }
  simd::set_level_for_testing(saved_level);
  par::set_num_threads(saved_threads);
}

}  // namespace
}  // namespace tx
