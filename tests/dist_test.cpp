// Distribution tests: densities against closed forms, sampling moments,
// reparameterization gradients, KL properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dist/distributions.h"
#include "tensor/grad_check.h"

namespace tx::dist {
namespace {

double sample_mean(const Tensor& t) {
  double s = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) s += t.at(i);
  return s / static_cast<double>(t.numel());
}

double sample_var(const Tensor& t) {
  const double m = sample_mean(t);
  double s = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    s += (t.at(i) - m) * (t.at(i) - m);
  }
  return s / static_cast<double>(t.numel() - 1);
}

TEST(Normal, LogProbMatchesClosedForm) {
  Normal n(1.0f, 2.0f);
  const float x = 0.5f;
  const float expected = -0.5f * ((x - 1.0f) / 2.0f) * ((x - 1.0f) / 2.0f) -
                         std::log(2.0f) - 0.5f * std::log(2.0f * M_PIf32);
  EXPECT_NEAR(n.log_prob(Tensor::scalar(x)).item(), expected, 1e-5);
}

TEST(Normal, SampleMoments) {
  Generator gen(1);
  Normal n(Tensor::scalar(3.0f), Tensor::scalar(0.5f));
  Tensor s = n.expand({20000})->sample(&gen);
  EXPECT_NEAR(sample_mean(s), 3.0, 0.02);
  EXPECT_NEAR(sample_var(s), 0.25, 0.02);
}

TEST(Normal, RsampleGradients) {
  // d/d loc E[(x)^2] style gradient flows through rsample.
  Tensor loc = Tensor::scalar(1.0f).set_requires_grad(true);
  Tensor scale = Tensor::scalar(0.5f).set_requires_grad(true);
  Generator gen(2);
  Normal n(loc, scale);
  Tensor x = n.rsample(&gen);
  sum(x).backward();
  EXPECT_NEAR(loc.grad().item(), 1.0f, 1e-6);  // dx/dloc = 1
  EXPECT_TRUE(scale.has_grad());               // dx/dscale = eps
}

TEST(Normal, EntropyClosedForm) {
  Normal n(0.0f, 2.0f);
  const float expected = 0.5f * std::log(2.0f * M_PIf32 * M_Ef32 * 4.0f);
  EXPECT_NEAR(n.entropy().item(), expected, 1e-5);
}

TEST(Normal, BroadcastParams) {
  Normal n(zeros({3, 1}), ones({4}));
  EXPECT_EQ(n.shape(), (Shape{3, 4}));
  Generator gen(3);
  EXPECT_EQ(n.sample(&gen).shape(), (Shape{3, 4}));
}

TEST(Normal, DetachParamsCutsGraph) {
  Tensor loc = Tensor::scalar(0.0f).set_requires_grad(true);
  Normal n(loc, Tensor::scalar(1.0f));
  auto d = n.detach_params();
  EXPECT_FALSE(std::static_pointer_cast<Normal>(d)->loc().requires_grad());
}

TEST(Delta, Behaviour) {
  Tensor v(Shape{2}, {1.0f, 2.0f});
  Delta d(v);
  EXPECT_TRUE(allclose(d.sample(), v));
  EXPECT_FLOAT_EQ(d.log_prob(v).at(0), 0.0f);
  Tensor other(Shape{2}, {1.0f, 3.0f});
  EXPECT_TRUE(std::isinf(d.log_prob(other).at(1)));
  // rsample passes gradients through to the value.
  Tensor p = Tensor::scalar(2.0f).set_requires_grad(true);
  Delta dp(p);
  sum(dp.rsample()).backward();
  EXPECT_FLOAT_EQ(p.grad().item(), 1.0f);
}

TEST(LogNormal, DensityAndMean) {
  LogNormal ln(Tensor::scalar(0.0f), Tensor::scalar(0.5f));
  // Density of LogNormal(0, 0.5) at 1.0: z = 0 -> -log(0.5) - log(sqrt(2pi)) - log(1).
  const float expected = -std::log(0.5f) - 0.5f * std::log(2.0f * M_PIf32);
  EXPECT_NEAR(ln.log_prob(Tensor::scalar(1.0f)).item(), expected, 1e-5);
  EXPECT_NEAR(ln.mean().item(), std::exp(0.125f), 1e-5);
  Generator gen(5);
  Tensor s = ln.rsample(&gen);
  EXPECT_GT(s.item(), 0.0f);
}

TEST(Bernoulli, LogProbStable) {
  Bernoulli b(Tensor(Shape{2}, {100.0f, -100.0f}));
  Tensor y(Shape{2}, {1.0f, 0.0f});
  Tensor lp = b.log_prob(y);
  EXPECT_NEAR(lp.at(0), 0.0f, 1e-4);
  EXPECT_NEAR(lp.at(1), 0.0f, 1e-4);
  Tensor wrong(Shape{2}, {0.0f, 1.0f});
  EXPECT_LT(b.log_prob(wrong).at(0), -50.0f);
}

TEST(Bernoulli, SampleFrequency) {
  Generator gen(7);
  Bernoulli b(full({10000}, 1.0f));  // p = sigmoid(1) ~ 0.731
  Tensor s = b.sample(&gen);
  EXPECT_NEAR(sample_mean(s), 0.731, 0.02);
}

TEST(Bernoulli, FromProbsRoundTrip) {
  Bernoulli b = Bernoulli::from_probs(Tensor(Shape{2}, {0.25f, 0.9f}));
  Tensor p = b.probs();
  EXPECT_NEAR(p.at(0), 0.25f, 1e-4);
  EXPECT_NEAR(p.at(1), 0.9f, 1e-4);
}

TEST(Categorical, LogProbAndShapes) {
  Tensor logits(Shape{2, 3}, {0.0f, 1.0f, 2.0f, 5.0f, 0.0f, 0.0f});
  Categorical c(logits);
  EXPECT_EQ(c.shape(), (Shape{2}));
  EXPECT_EQ(c.num_classes(), 3);
  Tensor y(Shape{2}, {2.0f, 0.0f});
  Tensor lp = c.log_prob(y);
  // Row 0: log softmax(2) over {0,1,2}.
  const float lse = std::log(std::exp(0.0f) + std::exp(1.0f) + std::exp(2.0f));
  EXPECT_NEAR(lp.at(0), 2.0f - lse, 1e-5);
  Tensor p = c.probs();
  EXPECT_EQ(p.shape(), (Shape{2, 3}));
}

TEST(Categorical, SampleFrequencies) {
  Generator gen(11);
  // Highly peaked logits: class 1 should dominate.
  Tensor logits = broadcast_to(Tensor(Shape{3}, {0.0f, 4.0f, 0.0f}), {5000, 3});
  Categorical c(logits.detach());
  Tensor s = c.sample(&gen);
  std::int64_t count1 = 0;
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    if (s.at(i) == 1.0f) ++count1;
  }
  EXPECT_GT(static_cast<double>(count1) / 5000.0, 0.9);
}

TEST(Uniform, DensityAndSupport) {
  Uniform u(-1.0f, 3.0f);
  EXPECT_NEAR(u.log_prob(Tensor::scalar(0.0f)).item(), -std::log(4.0f), 1e-6);
  EXPECT_TRUE(std::isinf(u.log_prob(Tensor::scalar(5.0f)).item()));
  EXPECT_NEAR(u.mean().item(), 1.0f, 1e-6);
  Generator gen(13);
  Tensor s = u.expand({1000})->sample(&gen);
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_GE(s.at(i), -1.0f);
    EXPECT_LT(s.at(i), 3.0f);
  }
}

TEST(Poisson, LogProbMatchesClosedForm) {
  Tensor rate(Shape{4}, {0.5f, 2.0f, 7.5f, 30.0f});
  Tensor k(Shape{4}, {0.0f, 3.0f, 10.0f, 25.0f});
  Tensor lp = Poisson(rate).log_prob(k);
  ASSERT_EQ(lp.shape(), (Shape{4}));
  for (std::int64_t i = 0; i < 4; ++i) {
    const double r = rate.at(i), ki = k.at(i);
    const double expected = ki * std::log(r) - r - std::lgamma(ki + 1.0);
    EXPECT_NEAR(lp.at(i), expected, 1e-4 * std::max(1.0, std::abs(expected)))
        << "k=" << ki << " rate=" << r;
  }
}

TEST(Poisson, LogProbGradientWrtRate) {
  Tensor k(Shape{3}, {0.0f, 2.0f, 6.0f});
  Tensor rate(Shape{3}, {0.8f, 1.5f, 4.0f});
  EXPECT_TRUE(grad_check(
      [k](const std::vector<Tensor>& in) {
        return sum(Poisson(in[0]).log_prob(k));
      },
      {rate}));
  // d/dr (k log r - r) = k / r - 1; the lgamma term is constant in r.
  Tensor leaf = rate.detach().set_requires_grad(true);
  sum(Poisson(leaf).log_prob(k)).backward();
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(leaf.grad().at(i), k.at(i) / rate.at(i) - 1.0f, 1e-5);
  }
}

TEST(Poisson, SampleMoments) {
  // Mean and variance both equal the rate. With 20000 draws at rate 4 the
  // standard errors are about 0.014 (mean) and 0.042 (variance); the
  // tolerances sit at roughly six of them.
  Generator gen(7);
  Tensor s = Poisson(Tensor::scalar(4.0f)).expand({20000})->sample(&gen);
  ASSERT_EQ(s.shape(), (Shape{20000}));
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    ASSERT_GE(s.at(i), 0.0f);
    ASSERT_EQ(s.at(i), std::floor(s.at(i)));  // counts are integers
  }
  EXPECT_NEAR(sample_mean(s), 4.0, 0.1);
  EXPECT_NEAR(sample_var(s), 4.0, 0.25);
}

TEST(Poisson, ExpandAndDetachParams) {
  Tensor rate = Tensor(Shape{3}, {1.0f, 2.0f, 3.0f}).set_requires_grad(true);
  Poisson p(rate);
  EXPECT_EQ(p.name(), "Poisson");
  EXPECT_TRUE(allclose(p.mean(), rate));

  auto wide = std::static_pointer_cast<Poisson>(p.expand({2, 3}));
  ASSERT_EQ(wide->shape(), (Shape{2, 3}));
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(wide->rate().at(i), rate.at(i % 3));
  }
  // The expanded rate still carries gradients back to the original.
  sum(wide->log_prob(ones({2, 3}))).backward();
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(rate.grad().at(i), 2.0f * (1.0f / rate.at(i) - 1.0f), 1e-5);
  }

  auto frozen = std::static_pointer_cast<Poisson>(p.detach_params());
  EXPECT_FALSE(frozen->rate().requires_grad());
  EXPECT_TRUE(allclose(frozen->rate(), rate));
  EXPECT_TRUE(allclose(frozen->log_prob(ones({3})), p.log_prob(ones({3}))));
}

TEST(ScaleMixture, DensityBetweenComponents) {
  ScaleMixtureNormal m({1}, 0.5f, 1.0f, 0.1f);
  Normal wide(0.0f, 1.0f), narrow(0.0f, 0.1f);
  const float lm = m.log_prob(Tensor::scalar(0.05f)).item();
  const float lw = wide.log_prob(Tensor::scalar(0.05f)).item();
  const float ln = narrow.log_prob(Tensor::scalar(0.05f)).item();
  EXPECT_GT(lm, std::min(lw, ln));
  EXPECT_LT(lm, std::max(lw, ln) + 1e-3f);
}

TEST(LowRank, LogProbMatchesDiagonalWhenFactorZero) {
  // With W = 0 the low-rank Gaussian reduces to a factorized Normal.
  Generator gen(17);
  Tensor loc = randn({5}, &gen);
  Tensor diag = rand_uniform({5}, 0.5f, 1.5f, &gen);
  LowRankNormal lr(loc, zeros({5, 2}), diag);
  Normal n(loc, diag);
  Tensor x = randn({5}, &gen);
  EXPECT_NEAR(lr.log_prob(x).item(), n.log_prob_sum(x).item(), 1e-3);
}

TEST(LowRank, SampleCovarianceMatchesModel) {
  Generator gen(19);
  Tensor w(Shape{2, 1}, {1.0f, 0.5f});
  Tensor diag(Shape{2}, {0.1f, 0.1f});
  LowRankNormal lr(zeros({2}), w, diag);
  // cov = w w^T + diag^2 => var0 = 1.01, var1 = 0.26, cov01 = 0.5.
  const int kSamples = 20000;
  double v0 = 0, v1 = 0, c01 = 0;
  for (int i = 0; i < kSamples; ++i) {
    Tensor s = lr.sample(&gen);
    v0 += s.at(0) * s.at(0);
    v1 += s.at(1) * s.at(1);
    c01 += s.at(0) * s.at(1);
  }
  EXPECT_NEAR(v0 / kSamples, 1.01, 0.05);
  EXPECT_NEAR(v1 / kSamples, 0.26, 0.02);
  EXPECT_NEAR(c01 / kSamples, 0.50, 0.03);
}

TEST(LowRank, LogProbGradients) {
  Generator gen(23);
  Tensor loc = randn({4}, &gen);
  Tensor w = mul(randn({4, 2}, &gen), Tensor::scalar(0.3f)).detach();
  Tensor diag = rand_uniform({4}, 0.5f, 1.0f, &gen);
  Tensor x = randn({4}, &gen);
  EXPECT_TRUE(grad_check(
      [x](const std::vector<Tensor>& in) {
        LowRankNormal lr(in[0], in[1], in[2]);
        return lr.log_prob(x);
      },
      {loc, w, diag}));
}

TEST(LowRank, EntropyMatchesDiagonalCase) {
  Tensor diag(Shape{3}, {0.5f, 1.0f, 2.0f});
  LowRankNormal lr(zeros({3}), zeros({3, 2}), diag);
  Normal n(zeros({3}), diag);
  EXPECT_NEAR(lr.entropy().item(), sum(n.entropy()).item(), 1e-4);
}

TEST(KL, NormalNormalClosedForm) {
  Normal p(1.0f, 2.0f), q(0.0f, 1.0f);
  // KL = 0.5*(s^2 + m^2 - 1) - log s = 0.5*(4+1-1) - log 2.
  EXPECT_NEAR(kl_divergence(p, q).item(), 2.0f - std::log(2.0f), 1e-5);
}

TEST(KL, Properties) {
  Normal p(0.3f, 0.7f);
  EXPECT_NEAR(kl_divergence(p, p).item(), 0.0f, 1e-6);
  Normal q(-0.2f, 1.3f);
  EXPECT_GT(kl_divergence(p, q).item(), 0.0f);
  EXPECT_TRUE(has_analytic_kl(p, q));
  Uniform u(0.0f, 1.0f);
  EXPECT_FALSE(has_analytic_kl(p, u));
  EXPECT_THROW(kl_divergence(p, u), Error);
}

TEST(KL, MonteCarloAgreesWithAnalytic) {
  Generator gen(29);
  Normal p(zeros({2000}), full({2000}, 0.8f));
  Normal q(full({2000}, 0.1f), ones({2000}));
  const float analytic = kl_divergence(p, q).item() / 2000.0f;
  double mc = 0.0;
  const int kReps = 20;
  for (int i = 0; i < kReps; ++i) mc += mc_kl(p, q, &gen).item() / 2000.0f;
  EXPECT_NEAR(mc / kReps, analytic, 0.01);
}

TEST(KL, PropertySweepNonNegative) {
  Generator gen(31);
  for (int rep = 0; rep < 20; ++rep) {
    Normal p(randn({4}, &gen), rand_uniform({4}, 0.2f, 2.0f, &gen));
    Normal q(randn({4}, &gen), rand_uniform({4}, 0.2f, 2.0f, &gen));
    EXPECT_GE(kl_divergence(p, q).item(), -1e-5f);
  }
}

TEST(Dist, RsampleUnavailableThrows) {
  Bernoulli b(Tensor::scalar(0.0f));
  EXPECT_THROW(b.rsample(), Error);
  EXPECT_FALSE(b.has_rsample());
}

}  // namespace
}  // namespace tx::dist
