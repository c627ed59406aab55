// Tests for the Predictive utility and HMC diagonal mass-matrix adaptation.
#include <gtest/gtest.h>

#include <cmath>

#include "dist/distributions.h"
#include "infer/infer.h"

namespace tx::infer {
namespace {

using dist::Normal;

TEST(Predictive, CollectsRequestedSitesStacked) {
  manual_seed(70);
  ppl::ParamStore store;
  Program model = [] {
    Tensor z = ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("y", std::make_shared<Normal>(z, Tensor::scalar(0.1f)));
  };
  auto guide = std::make_shared<AutoNormal>(model, AutoNormalConfig{}, "g",
                                            &store);
  Predictive predictive(model, [guide] { (*guide)(); }, 16, {"y"});
  auto out = predictive();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.at("y").dim(0), 16);
  // Unknown sites are rejected.
  Predictive bad(model, [guide] { (*guide)(); }, 2, {"nope"});
  EXPECT_THROW(bad(), Error);
}

TEST(Predictive, DefaultCollectsEverySite) {
  manual_seed(71);
  ppl::ParamStore store;
  Program model = [] {
    Tensor z = ppl::sample("z", std::make_shared<Normal>(zeros({3}), ones({3})));
    ppl::sample("obs", std::make_shared<Normal>(z, full({3}, 0.5f)),
                Tensor(Shape{3}, {1.0f, 2.0f, 3.0f}));
  };
  auto guide = std::make_shared<AutoNormal>(model, AutoNormalConfig{}, "g",
                                            &store);
  Predictive predictive(model, [guide] { (*guide)(); }, 4);
  auto out = predictive();
  EXPECT_TRUE(out.count("z"));
  EXPECT_TRUE(out.count("obs"));
  EXPECT_EQ(out.at("z").shape(), (Shape{4, 3}));
  // Observed values are constant across samples.
  EXPECT_TRUE(allclose(slice(out.at("obs"), 0, 0, 1),
                       slice(out.at("obs"), 0, 3, 4)));
  // Latent draws come from the (replayed) guide, so they vary.
  EXPECT_FALSE(allclose(slice(out.at("z"), 0, 0, 1),
                        slice(out.at("z"), 0, 3, 4)));
}

TEST(Predictive, MatchesGuidePosteriorMoments) {
  // With a trained guide, the predictive latent mean matches the guide loc.
  manual_seed(72);
  ppl::ParamStore store;
  Program model = [] {
    Tensor z = ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("x", std::make_shared<Normal>(z, Tensor::scalar(0.2f)),
                Tensor::scalar(1.0f));
  };
  auto guide = std::make_shared<AutoNormal>(model, AutoNormalConfig{}, "g",
                                            &store);
  SVI svi(model, [guide] { (*guide)(); },
          std::make_shared<ClippedAdam>(0.05, 10.0, 0.998),
          std::make_shared<TraceMeanFieldELBO>(), &store);
  for (int i = 0; i < 1200; ++i) svi.step();
  Predictive predictive(model, [guide] { (*guide)(); }, 512, {"z"});
  Tensor zs = predictive().at("z");
  double m = 0;
  for (std::int64_t i = 0; i < zs.numel(); ++i) m += zs.at(i);
  m /= static_cast<double>(zs.numel());
  EXPECT_NEAR(m, guide->site_distribution("z")->loc().item(), 0.05);
}

TEST(MassAdaptation, EstimatesScaleSeparatedPosterior) {
  // Target: independent Gaussians with stds 0.1 and 10 — terribly
  // conditioned for identity-mass HMC. The adapted inverse mass should
  // reflect the variance ratio. The estimate comes from the first 50 warmup
  // draws, so the trajectory (0.05 * 40 = 2, kept while the step size
  // adapts) must be long enough for b to move in them. Every seed of the
  // sweep must pass.
  for (std::uint64_t seed = 73; seed < 93; ++seed) {
    manual_seed(seed);
    Generator gen(seed);
    Program model = [] {
      ppl::sample("a", std::make_shared<Normal>(0.0f, 0.1f));
      ppl::sample("b", std::make_shared<Normal>(0.0f, 10.0f));
    };
    auto kernel = std::make_shared<HMC>(0.05, 40, /*adapt_step_size=*/true,
                                        0.8, /*adapt_mass_matrix=*/true);
    MCMC mcmc(kernel, /*num_samples=*/400, /*warmup=*/400);
    mcmc.run(model, &gen);
    const auto& inv_mass = kernel->inverse_mass();
    ASSERT_EQ(inv_mass.size(), 2u);
    // Inverse mass approximates the marginal variances (0.01 vs 100): at
    // least two orders of magnitude apart.
    EXPECT_GT(inv_mass[1] / inv_mass[0], 100.0) << "seed " << seed;
    // And the chain explores the wide dimension decently.
    auto b = mcmc.coordinate_chain(1);
    double mb = 0, vb = 0;
    for (double x : b) mb += x;
    mb /= static_cast<double>(b.size());
    for (double x : b) vb += (x - mb) * (x - mb);
    vb /= static_cast<double>(b.size());
    // An identity-mass chain at eps ~ 0.05 would not reach this spread.
    EXPECT_GT(std::sqrt(vb), 3.0) << "seed " << seed;
  }
}

TEST(MassAdaptation, OffByDefaultKeepsIdentity) {
  manual_seed(74);
  Generator gen(74);
  Program model = [] { ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f)); };
  auto kernel = std::make_shared<HMC>(0.2, 5);
  MCMC mcmc(kernel, 20, 60);
  mcmc.run(model, &gen);
  EXPECT_TRUE(kernel->inverse_mass().empty());
}

}  // namespace
}  // namespace tx::infer
