// The fused Gaussian density node against the unfused composition it
// replaces. gauss_logpdf_sum(v, loc, scale) must give the value of
// sum(Normal(loc, scale).log_prob(v)) and all three of its gradients, for
// same-shape, scalar and broadcast parameters and for rank-0 values, and
// give gradients only to the inputs that require them; the inverse-broadcast
// direction must fall back to the composition itself.
// Sample sites route through it: unmasked sites take the fused node, masked
// sites keep mul(log_prob, mask) -> sum bit for bit, and distributions
// without a fused kernel keep sum(log_prob) bit for bit. Every result is
// bitwise identical across the SIMD levels x {1, 4} pool threads.
//
// Tolerance: the fused node rounds each gradient element once per float op
// of its closed form, the composition once per op of its chain, and
// broadcast gradients fold their terms in a different order. Each element
// must agree within kRelTol * max(1, |reference|) * terms, where `terms` is
// the number of value elements folded into that gradient cell; kRelTol is
// about 16 float ulps at 1.0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "dist/distributions.h"
#include "par/pool.h"
#include "ppl/trace.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {
namespace {

constexpr double kRelTol = 2e-6;

struct Case {
  std::string name;
  Shape value, loc, scale;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// Deterministic inputs: values spread over a few standard deviations so the
// z^2 - 1 factor takes both signs, scales in [0.5, 2].
Tensor ramp(const Shape& shape, float lo, float hi, float phase) {
  const std::int64_t n = numel_of(shape);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float t = std::sin(0.37f * static_cast<float>(i) + phase);
    v[static_cast<std::size_t>(i)] = lo + (hi - lo) * 0.5f * (t + 1.0f);
  }
  return Tensor(shape, std::move(v));
}

struct Inputs {
  Tensor value, loc, scale;
};

Inputs inputs_for(const Case& c) {
  return {ramp(c.value, -3.0f, 3.0f, 0.1f).set_requires_grad(true),
          ramp(c.loc, -1.0f, 1.0f, 1.3f).set_requires_grad(true),
          ramp(c.scale, 0.5f, 2.0f, 2.9f).set_requires_grad(true)};
}

struct Result {
  std::vector<float> value, dv, dloc, dscale;
};

// The unfused composition: Distribution::log_prob_sum's sum(log_prob).
Tensor composed(const Tensor& v, const Tensor& l, const Tensor& s) {
  const Tensor lp = dist::Normal(l, s).log_prob(v);
  return lp.rank() == 0 ? lp : sum(lp);
}

template <typename F>
Result run(const Case& c, F&& density) {
  Inputs in = inputs_for(c);
  Tensor total = density(in.value, in.loc, in.scale);
  total.backward();
  return {total.to_vector(), in.value.grad().to_vector(),
          in.loc.grad().to_vector(), in.scale.grad().to_vector()};
}

Result fused(const Case& c) { return run(c, gauss_logpdf_sum); }
Result unfused(const Case& c) { return run(c, composed); }

void expect_close(const std::vector<float>& got, const std::vector<float>& ref,
                  std::int64_t terms, const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double r = ref[i];
    const double tol =
        kRelTol * std::max(1.0, std::fabs(r)) * static_cast<double>(terms);
    EXPECT_NEAR(got[i], r, tol) << what << "[" << i << "]";
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void expect_same_bits(const Result& got, const Result& ref,
                      const std::string& what) {
  EXPECT_TRUE(same_bits(got.value, ref.value)) << what << " value";
  EXPECT_TRUE(same_bits(got.dv, ref.dv)) << what << " d/dvalue";
  EXPECT_TRUE(same_bits(got.dloc, ref.dloc)) << what << " d/dloc";
  EXPECT_TRUE(same_bits(got.dscale, ref.dscale)) << what << " d/dscale";
}

const std::vector<Case>& cases() {
  static const std::vector<Case> c = {
      {"same_shape", {6, 5}, {6, 5}, {6, 5}},
      {"scalar_params", {6, 5}, {}, {}},
      {"scalar_loc", {6, 5}, {}, {6, 5}},
      {"scalar_scale", {6, 5}, {6, 5}, {}},
      {"row_loc", {6, 5}, {5}, {6, 5}},
      {"column_scale", {6, 5}, {6, 5}, {6, 1}},
      {"both_broadcast", {4, 3, 5}, {3, 1}, {1, 5}},
      {"one_element_params", {6, 5}, {1}, {1, 1}},
      {"rank0", {}, {}, {}},
      {"rank1_scalar_params", {7}, {}, {}},
      {"wide_same_shape", {96, 400}, {96, 400}, {96, 400}},
      {"wide_scalar_params", {96, 400}, {}, {}},
      {"wide_row_params", {96, 400}, {400}, {400}},
  };
  return c;
}

class FusedDensity : public ::testing::TestWithParam<Case> {};

TEST_P(FusedDensity, MatchesUnfusedComposition) {
  const Case& c = GetParam();
  const Result f = fused(c);
  const Result u = unfused(c);
  const std::int64_t n = numel_of(c.value);
  expect_close(f.value, u.value, n, "value");
  expect_close(f.dv, u.dv, 1, "d/dvalue");
  expect_close(f.dloc, u.dloc, n / numel_of(c.loc), "d/dloc");
  expect_close(f.dscale, u.dscale, n / numel_of(c.scale), "d/dscale");
}

// ELBO and HMC sites usually differentiate only some inputs: learned loc and
// scale at an observed value, or a latent value under a fixed prior. The
// fused node gives those inputs the composition's gradients and leaves the
// others without one.
TEST_P(FusedDensity, GradientsOnlyForInputsThatRequireThem) {
  const Case& c = GetParam();
  const std::int64_t n = numel_of(c.value);
  const std::vector<std::vector<bool>> wants = {
      {false, true, true}, {true, false, false}, {false, false, true},
      {true, true, false}};
  for (const std::vector<bool>& want : wants) {
    std::vector<std::vector<float>> grads[2];
    for (int pass = 0; pass < 2; ++pass) {
      Inputs in = inputs_for(c);
      std::vector<Tensor> xs = {in.value.detach(), in.loc.detach(),
                                in.scale.detach()};
      for (std::size_t k = 0; k < 3; ++k) xs[k].set_requires_grad(want[k]);
      (pass == 0 ? gauss_logpdf_sum(xs[0], xs[1], xs[2])
                 : composed(xs[0], xs[1], xs[2]))
          .backward();
      for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(xs[k].has_grad(), want[k])
            << "input " << k << (pass == 0 ? " fused" : " composed");
        grads[pass].push_back(xs[k].has_grad() ? xs[k].grad().to_vector()
                                               : std::vector<float>());
      }
    }
    expect_close(grads[0][0], grads[1][0], 1, "d/dvalue");
    expect_close(grads[0][1], grads[1][1], n / numel_of(c.loc), "d/dloc");
    expect_close(grads[0][2], grads[1][2], n / numel_of(c.scale), "d/dscale");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedDensity, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

// Parameters larger than the value (the inverse broadcast) cannot fuse:
// Normal::log_prob_sum falls back to the composition, bit for bit.
TEST(FusedDensityRouting, InverseBroadcastFallsBackToComposition) {
  const Case c{"inverse", {5}, {3, 5}, {3, 5}};
  const Result got = run(c, [](const Tensor& v, const Tensor& l,
                               const Tensor& s) {
    return dist::Normal(l, s).log_prob_sum(v);
  });
  expect_same_bits(got, unfused(c), "inverse broadcast");
}

ppl::SiteRecord site_of(dist::DistPtr d, Tensor value, double scale,
                        Tensor mask = Tensor()) {
  ppl::SiteRecord site;
  site.name = "x";
  site.distribution = std::move(d);
  site.value = std::move(value);
  site.scale = scale;
  site.mask = std::move(mask);
  return site;
}

// An unmasked Normal site's density is the fused node times its scale, bit
// for bit.
TEST(FusedDensityRouting, UnmaskedScaledSitesMatchTheFusedNode) {
  for (const Case& c : {cases()[0], cases()[6], cases()[8]}) {
    for (const double scale : {1.0, 0.25, 40.0}) {
      const Result got = run(c, [&](const Tensor& v, const Tensor& l,
                                    const Tensor& s) {
        return site_of(std::make_shared<dist::Normal>(l, s), v, scale)
            .log_prob_sum();
      });
      const Result ref = run(c, [&](const Tensor& v, const Tensor& l,
                                    const Tensor& s) {
        Tensor t = gauss_logpdf_sum(v, l, s);
        return scale == 1.0
                   ? t
                   : mul(t, Tensor::scalar(static_cast<float>(scale)));
      });
      expect_same_bits(got, ref, c.name + " scale " + std::to_string(scale));
    }
  }
}

// Masked sites keep scale * sum(mul(log_prob, mask)), bit for bit.
TEST(FusedDensityRouting, MaskedSitesKeepTheUnfusedPathBitForBit) {
  const Case c = cases()[0];
  const Tensor mask = ramp(c.value, 0.0f, 1.0f, 0.5f);
  Tensor bits = Tensor(c.value, 0.0f);
  for (std::int64_t i = 0; i < bits.numel(); ++i) {
    bits.at(i) = mask.at(i) > 0.5f ? 1.0f : 0.0f;
  }
  for (const double scale : {1.0, 0.25}) {
    const Result got = run(c, [&](const Tensor& v, const Tensor& l,
                                  const Tensor& s) {
      return site_of(std::make_shared<dist::Normal>(l, s), v, scale, bits)
          .log_prob_sum();
    });
    const Result ref = run(c, [&](const Tensor& v, const Tensor& l,
                                  const Tensor& s) {
      Tensor t = sum(mul(dist::Normal(l, s).log_prob(v), bits));
      return scale == 1.0 ? t
                          : mul(t, Tensor::scalar(static_cast<float>(scale)));
    });
    expect_same_bits(got, ref, "masked scale " + std::to_string(scale));
  }
}

// Distributions without a fused kernel keep sum(log_prob) bit for bit,
// including joint ones whose log_prob is already a scalar.
TEST(FusedDensityRouting, UnfusedFamiliesKeepSumOfLogProbBitForBit) {
  const Tensor logits = ramp({4, 3}, -1.0f, 1.0f, 0.3f);
  const Tensor labels(Shape{4}, {0.0f, 2.0f, 1.0f, 2.0f});
  const Tensor flips(Shape{4, 3}, {1.0f, 0.0f, 1.0f, 1.0f, 1.0f, 0.0f, 0.0f,
                                   0.0f, 1.0f, 0.0f, 1.0f, 0.0f});
  const Tensor positive = ramp({4, 3}, 0.2f, 2.0f, 0.7f);
  const Tensor x3 = ramp({3}, -1.0f, 1.0f, 0.9f);
  const std::vector<std::pair<dist::DistPtr, Tensor>> sites = {
      {std::make_shared<dist::Categorical>(logits), labels},
      {std::make_shared<dist::Bernoulli>(logits), flips},
      {std::make_shared<dist::LogNormal>(zeros({4, 3}), ones({4, 3})),
       positive},
      {std::make_shared<dist::ScaleMixtureNormal>(Shape{4, 3}, 0.5f, 1.0f,
                                                  0.1f),
       logits},
      {std::make_shared<dist::LowRankNormal>(zeros({3}), ones({3, 1}),
                                             ones({3})),
       x3},
  };
  for (const auto& [d, value] : sites) {
    for (const double scale : {1.0, 3.0}) {
      const Tensor got = site_of(d, value, scale).log_prob_sum();
      const Tensor lp = d->log_prob(value);
      Tensor ref = lp.rank() == 0 ? lp : sum(lp);
      if (scale != 1.0) {
        ref = mul(ref, Tensor::scalar(static_cast<float>(scale)));
      }
      EXPECT_TRUE(same_bits(got.to_vector(), ref.to_vector()))
          << d->name() << " scale " << scale;
    }
  }
}

// ---- SIMD levels x pool threads --------------------------------------------

std::vector<simd::Level> levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  for (auto l : {simd::Level::kAVX2, simd::Level::kNEON}) {
    if (simd::level_available(l)) out.push_back(l);
  }
  return out;
}

// Everything the ELBO reads off a site: the fused node, the scaled and
// masked site paths, and the composition, for every case.
std::vector<Result> everything() {
  std::vector<Result> out;
  for (const Case& c : cases()) {
    out.push_back(fused(c));
    out.push_back(unfused(c));
    out.push_back(run(c, [](const Tensor& v, const Tensor& l,
                            const Tensor& s) {
      return site_of(std::make_shared<dist::Normal>(l, s), v, 0.25)
          .log_prob_sum();
    }));
    out.push_back(run(c, [](const Tensor& v, const Tensor& l,
                            const Tensor& s) {
      return site_of(std::make_shared<dist::Normal>(l, s), v, 2.0,
                     full(v.shape(), 0.5f))
          .log_prob_sum();
    }));
  }
  return out;
}

TEST(FusedDensityMatrix, BitwiseAcrossSimdLevelsAndThreads) {
  const simd::Level saved_level = simd::active_level();
  const int saved_threads = par::num_threads();
  simd::set_level_for_testing(simd::Level::kScalar);
  par::set_num_threads(1);
  const std::vector<Result> ref = everything();
  for (const simd::Level level : levels()) {
    for (const int threads : {1, 4}) {
      ASSERT_EQ(simd::set_level_for_testing(level), level);
      par::set_num_threads(threads);
      const std::vector<Result> got = everything();
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_same_bits(got[i], ref[i],
                         cases()[i / 4].name + " variant " +
                             std::to_string(i % 4) + " level " +
                             std::to_string(static_cast<int>(level)) +
                             " threads " + std::to_string(threads));
      }
    }
  }
  simd::set_level_for_testing(saved_level);
  par::set_num_threads(saved_threads);
}

}  // namespace
}  // namespace tx
