// Inference tests: optimizers on quadratics, ELBO correctness, SVI posterior
// recovery on conjugate models, autoguide options, HMC/NUTS sampling
// accuracy, chain diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "dist/distributions.h"
#include "infer/infer.h"

namespace tx::infer {
namespace {

using dist::Normal;

TEST(Optim, SgdMinimizesQuadratic) {
  Tensor x = Tensor::scalar(5.0f).set_requires_grad(true);
  SGD opt(0.1);
  opt.add_param(x);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    square(x - 3.0f).backward();
    opt.step();
  }
  EXPECT_NEAR(x.item(), 3.0f, 1e-3);
}

TEST(Optim, SgdMomentumConverges) {
  Tensor x = Tensor::scalar(5.0f).set_requires_grad(true);
  SGD opt(0.02, 0.9);
  opt.add_param(x);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    square(x).backward();
    opt.step();
  }
  EXPECT_NEAR(x.item(), 0.0f, 1e-3);
}

TEST(Optim, AdamMinimizesIllConditioned) {
  Tensor x = Tensor(Shape{2}, {5.0f, -5.0f}).set_requires_grad(true);
  Adam opt(0.1);
  opt.add_param(x);
  Tensor scale(Shape{2}, {100.0f, 1.0f});
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    sum(mul(scale, square(x))).backward();
    opt.step();
  }
  EXPECT_NEAR(x.at(0), 0.0f, 1e-2);
  EXPECT_NEAR(x.at(1), 0.0f, 1e-2);
}

TEST(Optim, ClippedAdamClipsAndDecays) {
  Tensor x = Tensor::scalar(1.0f).set_requires_grad(true);
  ClippedAdam opt(0.1, /*clip=*/1.0, /*lrd=*/0.5);
  opt.add_param(x);
  opt.zero_grad();
  mul(x, Tensor::scalar(1e6f)).backward();  // huge gradient
  opt.step();
  EXPECT_GT(x.item(), 0.85f);  // clipped update is about lr in magnitude
  EXPECT_NEAR(opt.lr(), 0.05, 1e-9);
}

TEST(Optim, AddParamDeduplicatesAndValidates) {
  Tensor x = Tensor::scalar(0.0f).set_requires_grad(true);
  SGD opt(0.1);
  opt.add_param(x);
  opt.add_param(x);
  EXPECT_EQ(opt.num_params(), 1u);
  Tensor y = x * 2.0f;
  EXPECT_THROW(opt.add_param(y), Error);
}

TEST(Optim, AdamStateSurvivesHandleReplacementByName) {
  // Regression: Adam moments used to be keyed by the raw TensorImpl*, so a
  // ParamStore::set()/restore() that swapped the handle silently reset the
  // optimizer state. Keyed by name, the moments must survive a rebind.
  Adam opt(0.1);
  Tensor x = Tensor::scalar(5.0f).set_requires_grad(true);
  opt.add_param("x", x);
  for (int i = 0; i < 3; ++i) {
    opt.zero_grad();
    square(x - 3.0f).backward();
    opt.step();
  }
  // Replace the handle mid-optimization, exactly what restore() does.
  Tensor x2 = Tensor::scalar(x.item()).set_requires_grad(true);
  opt.add_param("x", x2);
  EXPECT_EQ(opt.num_params(), 1u);
  opt.zero_grad();
  square(x2 - 3.0f).backward();
  opt.step();

  // Uninterrupted reference: same 4 steps with no handle swap.
  Adam ref(0.1);
  Tensor y = Tensor::scalar(5.0f).set_requires_grad(true);
  ref.add_param("y", y);
  for (int i = 0; i < 4; ++i) {
    ref.zero_grad();
    square(y - 3.0f).backward();
    ref.step();
  }
  EXPECT_EQ(x2.item(), y.item());  // bitwise: t, m, v all carried over
}

TEST(Optim, StepLRDecaysOnSchedule) {
  SGD opt(1.0);
  StepLR sched(opt, 10, 0.1);
  for (int i = 0; i < 10; ++i) sched.step();
  EXPECT_NEAR(opt.lr(), 0.1, 1e-9);
  for (int i = 0; i < 10; ++i) sched.step();
  EXPECT_NEAR(opt.lr(), 0.01, 1e-9);
}

// Conjugate Normal-Normal model: z ~ N(0, 1); x_i ~ N(z, sigma) observed.
// Posterior: N(n*xbar/(n + sigma^2), sigma^2/(n + sigma^2))... with unit
// prior variance: var = 1/(1 + n/sigma^2), mean = var * sum(x)/sigma^2.
struct ConjugateModel {
  Tensor data;
  float sigma;
  void operator()() const {
    Tensor z = ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("x",
                std::make_shared<Normal>(broadcast_to(z, data.shape()),
                                         full(data.shape(), sigma)),
                data);
  }
  float posterior_mean() const {
    const float n = static_cast<float>(data.numel());
    float s = 0.0f;
    for (std::int64_t i = 0; i < data.numel(); ++i) s += data.at(i);
    const float prec = 1.0f + n / (sigma * sigma);
    return (s / (sigma * sigma)) / prec;
  }
  float posterior_std() const {
    const float n = static_cast<float>(data.numel());
    return 1.0f / std::sqrt(1.0f + n / (sigma * sigma));
  }
};

ConjugateModel make_conjugate() {
  Tensor data(Shape{10}, {1.2f, 0.8f, 1.1f, 0.9f, 1.3f, 1.0f, 0.7f, 1.4f, 1.05f, 0.95f});
  return ConjugateModel{data, 0.5f};
}

TEST(SVI, RecoversConjugatePosteriorTraceELBO) {
  manual_seed(100);
  ppl::ParamStore store;
  auto model = make_conjugate();
  auto guide = std::make_shared<AutoNormal>([model] { model(); },
                                            AutoNormalConfig{}, "g", &store);
  SVI svi([model] { model(); }, [guide] { (*guide)(); },
          std::make_shared<ClippedAdam>(0.05, 10.0, 0.998),
          std::make_shared<TraceELBO>(1), &store);
  for (int i = 0; i < 2500; ++i) svi.step();
  auto q = guide->site_distribution("z");
  EXPECT_NEAR(q->loc().item(), model.posterior_mean(), 0.05);
  EXPECT_NEAR(q->scale().item(), model.posterior_std(), 0.05);
}

TEST(SVI, RecoversConjugatePosteriorMeanFieldELBO) {
  manual_seed(101);
  ppl::ParamStore store;
  auto model = make_conjugate();
  auto guide = std::make_shared<AutoNormal>([model] { model(); },
                                            AutoNormalConfig{}, "g", &store);
  SVI svi([model] { model(); }, [guide] { (*guide)(); },
          std::make_shared<ClippedAdam>(0.05, 10.0, 0.998),
          std::make_shared<TraceMeanFieldELBO>(1), &store);
  for (int i = 0; i < 2500; ++i) svi.step();
  auto q = guide->site_distribution("z");
  EXPECT_NEAR(q->loc().item(), model.posterior_mean(), 0.05);
  EXPECT_NEAR(q->scale().item(), model.posterior_std(), 0.05);
}

TEST(SVI, MeanFieldELBOHasLowerVarianceAtOptimum) {
  // At a fixed guide, the analytic-KL estimator's loss should vary less
  // across evaluations than the sampled estimator.
  manual_seed(102);
  ppl::ParamStore store;
  auto model = make_conjugate();
  auto guide = std::make_shared<AutoNormal>([model] { model(); },
                                            AutoNormalConfig{}, "g", &store);
  Program m = [model] { model(); };
  Program g = [guide] { (*guide)(); };
  // Touch the guide once to create params.
  TraceELBO sampled;
  TraceMeanFieldELBO analytic;
  auto variance_of = [&](ELBO& e) {
    std::vector<double> losses;
    for (int i = 0; i < 40; ++i) {
      losses.push_back(e.differentiable_loss(m, g).item());
    }
    double mean = 0;
    for (double l : losses) mean += l;
    mean /= static_cast<double>(losses.size());
    double var = 0;
    for (double l : losses) var += (l - mean) * (l - mean);
    return var / static_cast<double>(losses.size());
  };
  EXPECT_LT(variance_of(analytic), variance_of(sampled));
}

TEST(SVI, AutoDeltaFindsPosteriorModeMAP) {
  manual_seed(103);
  ppl::ParamStore store;
  auto model = make_conjugate();
  auto guide = std::make_shared<AutoDelta>([model] { model(); }, nullptr, "g",
                                           &store);
  SVI svi([model] { model(); }, [guide] { (*guide)(); },
          std::make_shared<Adam>(0.05), std::make_shared<TraceELBO>(1), &store);
  for (int i = 0; i < 800; ++i) svi.step();
  // For a Gaussian posterior the MAP equals the posterior mean.
  EXPECT_NEAR(store.get("g.loc.z").item(), model.posterior_mean(), 0.03);
}

TEST(SVI, LossDecreases) {
  manual_seed(104);
  ppl::ParamStore store;
  auto model = make_conjugate();
  auto guide = std::make_shared<AutoNormal>([model] { model(); },
                                            AutoNormalConfig{}, "g", &store);
  SVI svi([model] { model(); }, [guide] { (*guide)(); },
          std::make_shared<Adam>(0.05), std::make_shared<TraceMeanFieldELBO>(1),
          &store);
  double first_avg = 0, last_avg = 0;
  for (int i = 0; i < 50; ++i) first_avg += svi.step();
  for (int i = 0; i < 900; ++i) svi.step();
  for (int i = 0; i < 50; ++i) last_avg += svi.step();
  EXPECT_LT(last_avg, first_avg);
}

TEST(AutoNormal, MaxScaleClipsPosterior) {
  manual_seed(105);
  ppl::ParamStore store;
  // Model with a very diffuse posterior (no data): posterior == prior N(0,1),
  // so the unclipped scale would approach 1.
  Program model = [] { ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f)); };
  AutoNormalConfig cfg;
  cfg.max_scale = 0.1f;
  auto guide = std::make_shared<AutoNormal>(model, cfg, "g", &store);
  SVI svi(model, [guide] { (*guide)(); }, std::make_shared<Adam>(0.05),
          std::make_shared<TraceELBO>(1), &store);
  for (int i = 0; i < 300; ++i) svi.step();
  EXPECT_LE(guide->site_distribution("z")->scale().item(), 0.1f + 1e-5f);
}

TEST(AutoNormal, TrainLocFalseFreezesMeans) {
  manual_seed(106);
  ppl::ParamStore store;
  auto model = make_conjugate();
  AutoNormalConfig cfg;
  cfg.train_loc = false;
  cfg.init_loc = init_to_value({{"z", Tensor::scalar(0.25f)}});
  auto guide = std::make_shared<AutoNormal>([model] { model(); }, cfg, "g",
                                            &store);
  SVI svi([model] { model(); }, [guide] { (*guide)(); },
          std::make_shared<Adam>(0.05), std::make_shared<TraceELBO>(1), &store);
  for (int i = 0; i < 200; ++i) svi.step();
  // The mean never moves from its init; the scale still adapts.
  EXPECT_FLOAT_EQ(store.get("g.loc.z").item(), 0.25f);
  EXPECT_NE(guide->site_distribution("z")->scale().item(), 0.1f);
}

TEST(AutoNormal, InitToValueAndMedian) {
  ppl::ParamStore store;
  Program model = [] {
    ppl::sample("w", std::make_shared<Normal>(full({3}, 2.0f), ones({3})));
  };
  AutoNormalConfig cfg;
  cfg.init_loc = init_to_median();
  AutoNormal guide(model, cfg, "g", &store);
  guide();
  EXPECT_TRUE(allclose(store.get("g.loc.w"), full({3}, 2.0f)));

  ppl::ParamStore store2;
  AutoNormalConfig cfg2;
  cfg2.init_loc = init_to_value({{"w", Tensor(Shape{3}, {1.0f, 2.0f, 3.0f})}});
  AutoNormal guide2(model, cfg2, "g", &store2);
  guide2();
  EXPECT_FLOAT_EQ(store2.get("g.loc.w").at(2), 3.0f);
}

TEST(AutoNormal, DetachedDistributionsForVCL) {
  manual_seed(107);
  ppl::ParamStore store;
  Program model = [] { ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f)); };
  AutoNormal guide(model, AutoNormalConfig{}, "g", &store);
  guide();
  auto dists = guide.get_detached_distributions({"z"});
  ASSERT_EQ(dists.size(), 1u);
  auto* n = dynamic_cast<Normal*>(dists.at("z").get());
  ASSERT_NE(n, nullptr);
  EXPECT_FALSE(n->loc().requires_grad());
  EXPECT_FALSE(n->scale().requires_grad());
}

TEST(AutoLowRank, RecoverCorrelatedPosterior) {
  // Two latents observed only through their sum: the posterior is strongly
  // (negatively) correlated, which a full mean-field guide cannot represent
  // but the low-rank guide can.
  manual_seed(108);
  ppl::ParamStore store;
  Program model = [] {
    Tensor a = ppl::sample("a", std::make_shared<Normal>(0.0f, 1.0f));
    Tensor b = ppl::sample("b", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("obs", std::make_shared<Normal>(add(a, b), Tensor::scalar(0.1f)),
                Tensor::scalar(1.0f));
  };
  auto guide = std::make_shared<AutoLowRankMultivariateNormal>(model, 2, 0.1f,
                                                               nullptr, "g",
                                                               &store);
  SVI svi(model, [guide] { (*guide)(); }, std::make_shared<Adam>(0.02),
          std::make_shared<TraceELBO>(1), &store);
  for (int i = 0; i < 2000; ++i) svi.step();
  // Posterior mean of a + b should be close to 1 (tight likelihood).
  Tensor loc = store.get("g._loc");
  EXPECT_NEAR(loc.at(0) + loc.at(1), 1.0f, 0.1f);
  // Draws should exhibit negative correlation between a and b.
  auto dists = guide->get_detached_distributions({"a", "b"});
  EXPECT_EQ(dists.size(), 2u);
  double cov = 0.0, n_samples = 300;
  manual_seed(109);
  for (int i = 0; i < n_samples; ++i) {
    ppl::Trace tr = ppl::trace_fn([guide] { (*guide)(); });
    const float a = tr.at("a").value.item() - loc.at(0);
    const float b = tr.at("b").value.item() - loc.at(1);
    cov += a * b;
  }
  EXPECT_LT(cov / n_samples, -1e-4);
}

TEST(HMC, SamplesStandardNormal) {
  // Warmup adapts the step size to about 1.2 here. Were the ten leapfrogs
  // kept instead of the trajectory length, each trajectory would run about
  // two oscillator periods and end near its start. Every seed of the sweep
  // must pass.
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    manual_seed(seed);
    Generator gen(seed);
    Program model = [] {
      ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    };
    auto kernel = std::make_shared<HMC>(0.2, 10);
    MCMC mcmc(kernel, /*num_samples=*/600, /*warmup=*/200);
    mcmc.run(model, &gen);
    auto chain = mcmc.coordinate_chain(0);
    double m = 0, v = 0;
    for (double x : chain) m += x;
    m /= static_cast<double>(chain.size());
    for (double x : chain) v += (x - m) * (x - m);
    v /= static_cast<double>(chain.size());
    EXPECT_NEAR(m, 0.0, 0.15) << "seed " << seed;
    EXPECT_NEAR(v, 1.0, 0.25) << "seed " << seed;
    EXPECT_GT(mcmc.mean_accept_prob(), 0.5) << "seed " << seed;
  }
}

// Model runs of one transition: the start gradient, one per leapfrog, and
// the end potential.
int model_runs_per_transition(HMC& kernel, bool warmup, int& runs) {
  const std::vector<double> q = kernel.initial_position();
  runs = 0;
  kernel.step(q, warmup);
  return runs - 2;
}

TEST(HMC, PotentialGradientIgnoresNoGradGuard) {
  // U(q) = |q|^2 / 2 + const for a standard normal, so dU/dq = q.
  Potential potential([] {
    ppl::sample("z", std::make_shared<Normal>(zeros({3}), ones({3})));
  });
  const std::vector<double> q = {0.5, -1.0, 2.0};
  std::vector<double> grad;
  NoGradGuard no_grad;
  potential.value_and_grad(q, grad);
  ASSERT_EQ(grad.size(), q.size());
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_NEAR(grad[i], q[i], 1e-5);
  EXPECT_FALSE(grad_enabled());
}

TEST(HMC, FixedStepSizeTakesExactlyNumSteps) {
  // 0.01 * 29 / 0.01 is 28.999999999999996 in doubles; a kernel that does
  // not adapt must still take all 29 leapfrogs.
  Generator gen(3);
  int runs = 0;
  HMC kernel(0.01, 29, /*adapt_step_size=*/false);
  kernel.setup(
      [&runs] {
        ++runs;
        ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
      },
      &gen);
  EXPECT_EQ(model_runs_per_transition(kernel, true, runs), 29);
  EXPECT_EQ(model_runs_per_transition(kernel, false, runs), 29);
}

TEST(HMC, AdaptedStepSizeKeepsTrajectoryLength) {
  Generator gen(4);
  int runs = 0;
  HMC kernel(0.2, 10);
  kernel.setup(
      [&runs] {
        ++runs;
        ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
      },
      &gen);
  std::vector<double> q = kernel.initial_position();
  for (int i = 0; i < 100; ++i) q = kernel.step(q, /*warmup=*/true);
  const int steps = model_runs_per_transition(kernel, false, runs);
  const double eps = kernel.step_size();  // frozen by the first kept draw
  EXPECT_GT(eps, 0.5);
  EXPECT_EQ(steps, static_cast<int>(std::floor(0.2 * 10 / eps)));
  EXPECT_EQ(model_runs_per_transition(kernel, false, runs), steps);
}

TEST(HMC, EnergyConservationAtSmallStep) {
  // With a tiny step size, acceptance should be near 1 (energy conserved).
  manual_seed(111);
  Generator gen(111);
  Program model = [] {
    ppl::sample("z", std::make_shared<Normal>(zeros({4}), ones({4})));
  };
  auto kernel = std::make_shared<HMC>(0.01, 5, /*adapt=*/false);
  MCMC mcmc(kernel, 50, 0);
  mcmc.run(model, &gen);
  EXPECT_GT(mcmc.mean_accept_prob(), 0.99);
}

TEST(HMC, RecoverConjugatePosterior) {
  manual_seed(112);
  Generator gen(112);
  auto model = make_conjugate();
  auto kernel = std::make_shared<HMC>(0.1, 15);
  MCMC mcmc(kernel, 800, 300);
  mcmc.run([model] { model(); }, &gen);
  auto chain = mcmc.coordinate_chain(0);
  double m = 0;
  for (double x : chain) m += x;
  m /= static_cast<double>(chain.size());
  EXPECT_NEAR(m, model.posterior_mean(), 0.05);
  double v = 0;
  for (double x : chain) v += (x - m) * (x - m);
  v /= static_cast<double>(chain.size());
  EXPECT_NEAR(std::sqrt(v), model.posterior_std(), 0.05);
}

TEST(NUTS, SamplesCorrelatedGaussian) {
  manual_seed(113);
  Generator gen(113);
  // Funnel-free correlated target via the sum-observation model.
  Program model = [] {
    Tensor a = ppl::sample("a", std::make_shared<Normal>(0.0f, 1.0f));
    Tensor b = ppl::sample("b", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("obs", std::make_shared<Normal>(add(a, b), Tensor::scalar(0.2f)),
                Tensor::scalar(2.0f));
  };
  auto kernel = std::make_shared<NUTS>(0.1, 6);
  MCMC mcmc(kernel, 500, 300);
  mcmc.run(model, &gen);
  auto a = mcmc.coordinate_chain(0);
  auto b = mcmc.coordinate_chain(1);
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(a.size());
  mb /= static_cast<double>(a.size());
  EXPECT_NEAR(ma + mb, 2.0, 0.15);
  EXPECT_GT(mcmc.mean_accept_prob(), 0.6);
  // Negative posterior correlation between a and b.
  double cov = 0;
  for (std::size_t i = 0; i < a.size(); ++i) cov += (a[i] - ma) * (b[i] - mb);
  EXPECT_LT(cov / static_cast<double>(a.size()), 0.0);
}

TEST(MCMC, SiteAccessors) {
  manual_seed(114);
  Generator gen(114);
  Program model = [] {
    ppl::sample("w", std::make_shared<Normal>(zeros({2, 2}), ones({2, 2})));
  };
  auto kernel = std::make_shared<HMC>(0.2, 5);
  MCMC mcmc(kernel, 10, 10);
  mcmc.run(model, &gen);
  auto samples = mcmc.get_samples("w");
  EXPECT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples[0].shape(), (Shape{2, 2}));
  EXPECT_THROW(mcmc.get_samples("nope"), Error);
  auto one = mcmc.sample_at(3);
  EXPECT_TRUE(one.count("w"));
}

TEST(Diagnostics, IidChainHasHighESSAndUnitRhat) {
  Generator gen(115);
  std::vector<double> chain(1000);
  for (auto& x : chain) x = gen.normal();
  EXPECT_GT(effective_sample_size(chain), 500.0);
  EXPECT_NEAR(split_r_hat(chain), 1.0, 0.05);
}

TEST(Diagnostics, StickyChainHasLowESS) {
  Generator gen(116);
  std::vector<double> chain(1000);
  double x = 0.0;
  for (auto& v : chain) {
    x = 0.99 * x + 0.1 * gen.normal();  // strongly autocorrelated
    v = x;
  }
  EXPECT_LT(effective_sample_size(chain), 200.0);
}

TEST(Diagnostics, DriftingChainHasHighRhat) {
  std::vector<double> chain(1000);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    chain[i] = static_cast<double>(i) * 0.01;  // deterministic drift
  }
  EXPECT_GT(split_r_hat(chain), 1.5);
}

TEST(Diagnostics, ConstantChainIsDefined) {
  // Zero variance: ESS falls back to the chain length and split-R̂ to 1
  // (within-chain variance is 0, the convention Gelman et al. adopt).
  const std::vector<double> chain(64, 3.25);
  EXPECT_DOUBLE_EQ(effective_sample_size(chain), 64.0);
  EXPECT_DOUBLE_EQ(split_r_hat(chain), 1.0);
}

TEST(Diagnostics, ShortChainsReturnNaN) {
  // The documented contract: inputs too short for the estimator yield NaN —
  // no throw, no fabricated number — so incremental callers can probe
  // unconditionally and skip non-finite results.
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_TRUE(std::isnan(effective_sample_size(three)));
  EXPECT_TRUE(std::isnan(effective_sample_size(std::vector<double>{})));
  const std::vector<double> seven{1, 2, 3, 4, 5, 6, 7};
  EXPECT_TRUE(std::isnan(split_r_hat(seven)));
  // The shortest admissible inputs work.
  const std::vector<double> four{1.0, 2.0, 1.5, 2.5};
  EXPECT_GT(effective_sample_size(four), 0.0);
  const std::vector<double> eight{1, 2, 1, 2, 1, 2, 1, 2};
  EXPECT_GE(split_r_hat(eight), 0.0);
}

TEST(Diagnostics, MultiChainDegenerateInputsReturnNaN) {
  using Chains = std::vector<std::vector<double>>;
  const Chains empty;
  EXPECT_TRUE(std::isnan(effective_sample_size(empty)));
  EXPECT_TRUE(std::isnan(split_r_hat(empty)));

  // Ragged chains: the estimators require rectangular input.
  Generator gen(118);
  Chains ragged(2);
  for (int i = 0; i < 32; ++i) ragged[0].push_back(gen.normal());
  for (int i = 0; i < 16; ++i) ragged[1].push_back(gen.normal());
  EXPECT_TRUE(std::isnan(effective_sample_size(ragged)));
  EXPECT_TRUE(std::isnan(split_r_hat(ragged)));

  // Rectangular but below the single-chain minimum length.
  const Chains short_chains(3, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(std::isnan(effective_sample_size(short_chains)));
  EXPECT_TRUE(std::isnan(split_r_hat(short_chains)));

  // A healthy rectangular pair still produces finite estimates.
  Chains ok(2);
  for (int i = 0; i < 64; ++i) {
    ok[0].push_back(gen.normal());
    ok[1].push_back(gen.normal());
  }
  EXPECT_TRUE(std::isfinite(effective_sample_size(ok)));
  EXPECT_NEAR(split_r_hat(ok), 1.0, 0.1);
}

TEST(Diagnostics, Ar1ChainMatchesAnalyticEss) {
  // An AR(1) chain x_t = phi x_{t-1} + e_t has autocorrelation rho_k =
  // phi^k, so ESS/n -> (1 - phi) / (1 + phi). With phi = 0.5 that is 1/3.
  constexpr double kPhi = 0.5;
  constexpr std::size_t kN = 20000;
  Generator gen(119);
  std::vector<double> chain(kN);
  double x = 0.0;
  // Burn in so the chain starts from (near) stationarity.
  for (int i = 0; i < 100; ++i) x = kPhi * x + gen.normal();
  for (auto& v : chain) {
    x = kPhi * x + gen.normal();
    v = x;
  }
  const double expected =
      static_cast<double>(kN) * (1.0 - kPhi) / (1.0 + kPhi);
  const double ess = effective_sample_size(chain);
  EXPECT_NEAR(ess / expected, 1.0, 0.15);
}

TEST(Diagnostics, EssNeverExceedsChainLength) {
  Generator gen(117);
  // iid, sticky, drifting and anti-correlated chains all respect ESS <= n.
  std::vector<std::vector<double>> chains(4, std::vector<double>(256));
  double x = 0.0;
  for (std::size_t i = 0; i < 256; ++i) {
    chains[0][i] = gen.normal();
    x = 0.9 * x + gen.normal();
    chains[1][i] = x;
    chains[2][i] = static_cast<double>(i);
    chains[3][i] = (i % 2 == 0) ? gen.normal() : -chains[3][i - 1];
  }
  for (const auto& chain : chains) {
    EXPECT_LE(effective_sample_size(chain),
              static_cast<double>(chain.size()) + 1e-9);
  }
}

TEST(SVI, SeededGeneratorMakesRunsReproducible) {
  auto run_losses = [](std::uint64_t seed) {
    manual_seed(7);  // pin the global stream so only `gen` distinguishes runs
    Generator gen(seed);
    ppl::ParamStore store;
    auto model = make_conjugate();
    auto guide = std::make_shared<AutoNormal>([model] { model(); },
                                              AutoNormalConfig{}, "g", &store);
    SVI svi([model] { model(); }, [guide] { (*guide)(); },
            std::make_shared<Adam>(0.05), std::make_shared<TraceELBO>(1),
            &store, &gen);
    std::vector<double> losses;
    for (int i = 0; i < 20; ++i) losses.push_back(svi.step());
    losses.push_back(svi.evaluate_loss());
    return losses;
  };
  // Same seed: bit-for-bit identical loss trajectory, including the
  // no-update evaluate_loss() at the end. Different seed: diverges.
  const auto a = run_losses(42), b = run_losses(42), c = run_losses(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MCMC, EmitsProgressAndDivergenceCounters) {
  Generator gen(118);
  auto model = make_conjugate();
  MCMC mcmc(std::make_shared<HMC>(0.1, 5), /*num_samples=*/20,
            /*warmup_steps=*/10);
  std::vector<MCMCProgress> seen;
  mcmc.run([model] { model(); }, &gen,
           [&](const MCMCProgress& p) { seen.push_back(p); });
  ASSERT_EQ(seen.size(), 30u);
  EXPECT_TRUE(seen.front().warmup);
  EXPECT_FALSE(seen.back().warmup);
  EXPECT_EQ(seen.back().step, 19);
  EXPECT_EQ(seen.back().total, 20);
  EXPECT_GT(seen.back().mean_accept_prob, 0.0);
  EXPECT_GE(seen.back().divergences, 0);
  EXPECT_EQ(mcmc.divergence_count(), seen.back().divergences);
}

}  // namespace
}  // namespace tx::infer
