// End-to-end tests for the BNN classes: construction (the paper's 5-line
// Listing 1), fitting, prediction, hidden parameters, PytorchBNN drop-in use,
// MCMC_BNN, and the VCL prior update.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/tyxe.h"

namespace tyxe {
namespace {

namespace nd = tx::dist;
using tx::Shape;
using tx::Tensor;

/// The paper's regression data (Foong et al., 2019).
std::pair<Tensor, Tensor> make_regression_data(std::int64_t n,
                                               tx::Generator& gen) {
  std::vector<float> xs, ys;
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(
        i % 2 == 0 ? gen.uniform(-1.0, -0.7) : gen.uniform(0.5, 1.0));
    xs.push_back(x);
    ys.push_back(static_cast<float>(std::cos(4.0f * x + 0.8f) +
                                    gen.normal(0.0, 0.1)));
  }
  return {Tensor(Shape{n, 1}, std::move(xs)), Tensor(Shape{n, 1}, std::move(ys))};
}

std::shared_ptr<VariationalBNN> make_regression_bnn(tx::Generator& gen,
                                                    std::int64_t n_data) {
  // Listing 1 in five statements.
  auto net = tx::nn::make_mlp({1, 20, 1}, "tanh", &gen);
  auto likelihood = std::make_shared<HomoskedasticGaussian>(n_data, 0.1f);
  auto prior = std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f));
  auto guide_factory = guides::auto_normal_factory();
  return std::make_shared<VariationalBNN>(net, prior, likelihood, guide_factory);
}

TEST(BNNBase, SiteNamesFollowParamPaths) {
  tx::Generator gen(1);
  auto net = tx::nn::make_mlp({1, 4, 1}, "tanh", &gen);
  BNNBase bnn(net, std::make_shared<IIDPrior>(
                       std::make_shared<nd::Normal>(0.0f, 1.0f)));
  auto names = bnn.site_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "net.0.weight");
  EXPECT_EQ(names[3], "net.2.bias");
}

TEST(BNNBase, HiddenParamsStayDeterministic) {
  tx::Generator gen(2);
  auto net = tx::nn::make_mlp({1, 4, 1}, "tanh", &gen);
  HideExpose filter;
  filter.hide_parameters = {"bias"};
  BNNBase bnn(net, std::make_shared<IIDPrior>(
                       std::make_shared<nd::Normal>(0.0f, 1.0f), filter));
  EXPECT_EQ(bnn.sites().size(), 2u);  // weights only
  // Hidden params live in the store for the optimizer.
  EXPECT_TRUE(bnn.param_store().contains("net.0.bias"));
  EXPECT_TRUE(bnn.param_store().contains("net.2.bias"));
  EXPECT_FALSE(bnn.param_store().contains("net.0.weight"));
}

TEST(BNNBase, SampledForwardIsStochastic) {
  tx::manual_seed(3);
  tx::Generator gen(3);
  auto net = tx::nn::make_mlp({1, 8, 1}, "tanh", &gen);
  BNNBase bnn(net, std::make_shared<IIDPrior>(
                       std::make_shared<nd::Normal>(0.0f, 1.0f)));
  Tensor x = tx::ones({1, 1});
  Tensor a = bnn.sampled_forward(x);
  Tensor b = bnn.sampled_forward(x);
  EXPECT_FALSE(tx::allclose(a, b));
}

TEST(BNNBase, ResNetBatchNormHiding) {
  // The paper's Listing 3 configuration: BatchNorm params deterministic.
  tx::Generator gen(4);
  auto net = tx::nn::make_resnet8(10, 4, 3, &gen);
  HideExpose filter;
  filter.hide_module_types = {"BatchNorm2d"};
  BNNBase bnn(net, std::make_shared<IIDPrior>(
                       std::make_shared<nd::Normal>(0.0f, 1.0f), filter));
  for (const auto& name : bnn.site_names()) {
    EXPECT_EQ(name.find("bn"), std::string::npos) << name;
    EXPECT_EQ(name.find("downsample_bn"), std::string::npos) << name;
  }
  EXPECT_TRUE(bnn.param_store().contains("net.bn1.weight"));
}

TEST(BNNBase, FinalLayerOnlyInference) {
  // Lines 9-11 of Listing 3: expose only the final fully-connected layer.
  tx::Generator gen(5);
  auto net = tx::nn::make_resnet8(10, 4, 3, &gen);
  HideExpose filter;
  filter.expose_modules = {"fc"};
  BNNBase bnn(net, std::make_shared<IIDPrior>(
                       std::make_shared<nd::Normal>(0.0f, 1.0f), filter));
  ASSERT_EQ(bnn.sites().size(), 2u);
  EXPECT_EQ(bnn.sites()[0].name, "net.fc.weight");
  EXPECT_EQ(bnn.sites()[1].name, "net.fc.bias");
}

TEST(VariationalBNN, FitReducesErrorOnRegression) {
  tx::manual_seed(6);
  tx::Generator gen(6);
  auto [x, y] = make_regression_data(64, gen);
  auto bnn = make_regression_bnn(gen, 64);
  auto [ll0, err0] = bnn->evaluate({x}, y, 8);
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  std::vector<Batch> data{{{x}, y}};
  bnn->fit(data, optim, 600);
  auto [ll1, err1] = bnn->evaluate({x}, y, 8);
  EXPECT_LT(err1, err0);
  EXPECT_GT(ll1, ll0);
  EXPECT_LT(err1, 0.12);
}

TEST(VariationalBNN, PredictShapesAndAggregation) {
  tx::manual_seed(7);
  tx::Generator gen(7);
  auto bnn = make_regression_bnn(gen, 16);
  Tensor x = tx::linspace(-1.0f, 1.0f, 5).reshape({5, 1});
  Tensor stacked = bnn->predict(x, 4, /*aggregate=*/false);
  EXPECT_EQ(stacked.shape(), (Shape{4, 5, 1}));
  Tensor agg = bnn->predict(x, 4, /*aggregate=*/true);
  EXPECT_EQ(agg.shape(), (Shape{5, 1}));
  EXPECT_THROW(bnn->predict(x, 0), tx::Error);
}

TEST(VariationalBNN, CallbackStopsEarly) {
  tx::manual_seed(8);
  tx::Generator gen(8);
  auto [x, y] = make_regression_data(16, gen);
  auto bnn = make_regression_bnn(gen, 16);
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  int epochs_seen = 0;
  bnn->fit({{{x}, y}}, optim, 100, [&](int epoch, double elbo) {
    (void)elbo;
    epochs_seen = epoch + 1;
    return epoch >= 4;  // stop after 5 epochs
  });
  EXPECT_EQ(epochs_seen, 5);
}

TEST(VariationalBNN, MeanFieldElboWorksWithAnalyticKL) {
  tx::manual_seed(9);
  tx::Generator gen(9);
  auto [x, y] = make_regression_data(32, gen);
  auto bnn = make_regression_bnn(gen, 32);
  bnn->set_elbo(std::make_shared<tx::infer::TraceMeanFieldELBO>(1));
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  double elbo = -bnn->fit({{{x}, y}}, optim, 100).final_loss;
  EXPECT_TRUE(std::isfinite(elbo));
  auto [ll, err] = bnn->evaluate({x}, y, 8);
  EXPECT_LT(err, 0.3);
}

TEST(VariationalBNN, LocalReparamScopeAroundFit) {
  // The paper's Listing 2: wrap fit in the local_reparameterization context.
  tx::manual_seed(10);
  tx::Generator gen(10);
  auto [x, y] = make_regression_data(32, gen);
  auto bnn = make_regression_bnn(gen, 32);
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  {
    poutine::LocalReparameterization lr;
    bnn->fit({{{x}, y}}, optim, 150);
  }
  auto [ll, err] = bnn->evaluate({x}, y, 8);
  EXPECT_LT(err, 0.15);
}

TEST(VariationalBNN, FlipoutScopeAroundFit) {
  tx::manual_seed(11);
  tx::Generator gen(11);
  auto [x, y] = make_regression_data(32, gen);
  auto bnn = make_regression_bnn(gen, 32);
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  {
    poutine::Flipout flip;
    bnn->fit({{{x}, y}}, optim, 150);
  }
  auto [ll, err] = bnn->evaluate({x}, y, 8);
  EXPECT_LT(err, 0.15);
}

TEST(VariationalBNN, MapViaAutoDelta) {
  tx::manual_seed(12);
  tx::Generator gen(12);
  auto [x, y] = make_regression_data(32, gen);
  auto net = tx::nn::make_mlp({1, 16, 1}, "tanh", &gen);
  auto bnn = std::make_shared<VariationalBNN>(
      net, std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<HomoskedasticGaussian>(32, 0.1f),
      guides::auto_delta_factory());
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  bnn->fit({{{x}, y}}, optim, 600);
  auto [ll, err] = bnn->evaluate({x}, y, 1);
  EXPECT_LT(err, 0.06);
  // MAP predictions are deterministic: repeated draws agree.
  Tensor p = bnn->predict(x, 2, /*aggregate=*/false);
  EXPECT_TRUE(tx::allclose(tx::slice(p, 0, 0, 1), tx::slice(p, 0, 1, 2), 1e-5f));
}

TEST(VariationalBNN, LatentLikelihoodScaleIsInferred) {
  tx::manual_seed(13);
  tx::Generator gen(13);
  // Pure-noise target around a constant: true observation scale = 0.5.
  Tensor x = tx::zeros({64, 1});
  Tensor y = tx::mul(tx::randn({64, 1}, &gen), Tensor::scalar(0.5f));
  auto net = tx::nn::make_mlp({1, 4, 1}, "tanh", &gen);
  auto scale_prior = std::make_shared<nd::LogNormal>(Tensor::scalar(0.0f),
                                                     Tensor::scalar(1.0f));
  auto lik = std::make_shared<HomoskedasticGaussian>(64, scale_prior);
  auto bnn = std::make_shared<VariationalBNN>(
      net, std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      lik, guides::auto_normal_factory(), guides::lognormal_scale_factory());
  auto optim = std::make_shared<tx::infer::Adam>(2e-2);
  bnn->fit({{{x}, y}}, optim, 400);
  // Posterior mean of the scale should be near 0.5.
  const float loc =
      bnn->param_store().get("likelihood_guide.loc.likelihood.data.scale").item();
  EXPECT_NEAR(std::exp(loc), 0.5f, 0.15f);
}

TEST(PytorchBNN, DropInForwardAndKl) {
  tx::manual_seed(14);
  tx::Generator gen(14);
  auto net = tx::nn::make_mlp({2, 8, 1}, "tanh", &gen);
  PytorchBNN bnn(net, std::make_shared<IIDPrior>(
                          std::make_shared<nd::Normal>(0.0f, 1.0f)),
                 guides::auto_normal_factory());
  Tensor x = tx::randn({4, 2}, &gen);
  EXPECT_THROW(bnn.cached_kl_loss(), tx::Error);  // before any forward
  Tensor out = bnn.forward(x);
  EXPECT_EQ(out.shape(), (Shape{4, 1}));
  Tensor kl = bnn.cached_kl_loss();
  EXPECT_GE(kl.item(), 0.0f);  // analytic Normal-Normal KL
  // Stochastic: two forwards differ.
  EXPECT_FALSE(tx::allclose(out, bnn.forward(x)));
}

TEST(PytorchBNN, PytorchParametersCollectsGuideParams) {
  tx::manual_seed(15);
  tx::Generator gen(15);
  auto net = tx::nn::make_mlp({2, 4, 1}, "tanh", &gen);
  PytorchBNN bnn(net, std::make_shared<IIDPrior>(
                          std::make_shared<nd::Normal>(0.0f, 1.0f)),
                 guides::auto_normal_factory());
  auto params = bnn.pytorch_parameters({tx::randn({1, 2}, &gen)});
  // loc + scale per site, 4 sites.
  EXPECT_EQ(params.size(), 8u);
  for (const auto& p : params) EXPECT_TRUE(p.requires_grad());
}

TEST(PytorchBNN, TrainsWithPlainOptimizer) {
  // The NeRF workflow: custom loss + scaled cached KL + torch-style optimizer.
  tx::manual_seed(16);
  tx::Generator gen(16);
  Tensor x = tx::randn({32, 2}, &gen);
  Tensor targets = tx::sum(x, {1}, true).detach();  // y = x0 + x1
  auto net = tx::nn::make_mlp({2, 16, 1}, "tanh", &gen);
  PytorchBNN bnn(net, std::make_shared<IIDPrior>(
                          std::make_shared<nd::Normal>(0.0f, 1.0f)),
                 guides::auto_normal_factory());
  tx::infer::Adam optim(1e-2);
  optim.add_params(bnn.pytorch_parameters({x}));
  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 400; ++step) {
    optim.zero_grad();
    Tensor pred = bnn.forward(x);
    Tensor mse = tx::mean(tx::square(tx::sub(pred, targets)));
    Tensor loss = tx::add(mse, tx::mul(bnn.cached_kl_loss(),
                                       Tensor::scalar(1e-4f)));
    loss.backward();
    optim.step();
    if (step == 0) first_loss = loss.item();
    if (step == 399) last_loss = loss.item();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

TEST(MCMCBNN, HmcRegressionBeatsPrior) {
  tx::manual_seed(17);
  tx::Generator gen(17);
  auto [x, y] = make_regression_data(24, gen);
  auto net = tx::nn::make_mlp({1, 8, 1}, "tanh", &gen);
  MCMC_BNN bnn(net,
               std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
               std::make_shared<HomoskedasticGaussian>(24, 0.1f),
               [] { return std::make_shared<tx::infer::HMC>(0.001, 12); });
  EXPECT_THROW(bnn.predict(x, 1), tx::Error);  // before fit
  bnn.fit({x}, y, /*num_samples=*/60, /*warmup=*/60, &gen);
  auto [ll, err] = bnn.evaluate({x}, y, 20);
  EXPECT_LT(err, 0.30);
  EXPECT_GT(bnn.mcmc().mean_accept_prob(), 0.2);
}

TEST(MCMCBNN, NutsKernelRuns) {
  tx::manual_seed(18);
  tx::Generator gen(18);
  auto [x, y] = make_regression_data(12, gen);
  auto net = tx::nn::make_mlp({1, 4, 1}, "tanh", &gen);
  MCMC_BNN bnn(net,
               std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
               std::make_shared<HomoskedasticGaussian>(12, 0.1f),
               [] { return std::make_shared<tx::infer::NUTS>(0.002, 5); });
  bnn.fit({x}, y, 20, 20, &gen);
  Tensor pred = bnn.predict(x, 8, /*aggregate=*/false);
  EXPECT_EQ(pred.dim(0), 8);
}

TEST(VCL, UpdatePriorToPosterior) {
  tx::manual_seed(19);
  tx::Generator gen(19);
  auto [x, y] = make_regression_data(24, gen);
  auto bnn = make_regression_bnn(gen, 24);
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  bnn->fit({{{x}, y}}, optim, 100);
  // Listing 6: posterior becomes the new prior.
  util::update_prior_to_posterior(*bnn);
  // The new prior at each site matches the guide's detached posterior.
  auto posts = bnn->net_guide().get_detached_distributions(bnn->site_names());
  for (const auto& site : bnn->sites()) {
    auto* prior_n = dynamic_cast<nd::Normal*>(site.prior.get());
    auto* post_n = dynamic_cast<nd::Normal*>(posts.at(site.name).get());
    ASSERT_NE(prior_n, nullptr);
    ASSERT_NE(post_n, nullptr);
    EXPECT_TRUE(tx::allclose(prior_n->loc(), post_n->loc(), 1e-5f));
    EXPECT_FALSE(prior_n->loc().requires_grad());
  }
  // Fitting continues seamlessly on "task 2" data.
  auto [x2, y2] = make_regression_data(24, gen);
  double elbo = -bnn->fit({{{x2}, y2}}, optim, 20).final_loss;
  EXPECT_TRUE(std::isfinite(elbo));
}

TEST(VCL, PriorUpdateChangesRegularizationPull) {
  // After updating the prior to a posterior centred away from zero, the KL
  // at zero-centred guides should be positive and larger than before.
  tx::manual_seed(20);
  tx::Generator gen(20);
  auto net = tx::nn::make_mlp({1, 4, 1}, "tanh", &gen);
  BNNBase bnn(net, std::make_shared<IIDPrior>(
                       std::make_shared<nd::Normal>(0.0f, 1.0f)));
  std::map<std::string, nd::DistPtr> posts;
  for (const auto& site : bnn.sites()) {
    posts[site.name] = std::make_shared<nd::Normal>(
        tx::full(site.slot.slot->shape(), 3.0f),
        tx::full(site.slot.slot->shape(), 0.1f));
  }
  bnn.update_prior(std::make_shared<DictPrior>(posts));
  auto* n = dynamic_cast<nd::Normal*>(bnn.sites()[0].prior.get());
  ASSERT_NE(n, nullptr);
  EXPECT_FLOAT_EQ(n->loc().at(0), 3.0f);
}

TEST(SelectiveMask, MasksLikelihoodInBnnFit) {
  // Semi-supervised: only the first half of the batch is labelled. The
  // masked fit must ignore the (wrong) labels of the unlabelled half.
  tx::manual_seed(21);
  tx::Generator gen(21);
  Tensor x = tx::randn({32, 2}, &gen);
  // True labels: sign of x0; second half gets garbage labels.
  Tensor y = tx::zeros({32});
  for (std::int64_t i = 0; i < 32; ++i) {
    const bool pos = x.at(i * 2) > 0.0f;
    y.at(i) = i < 16 ? (pos ? 1.0f : 0.0f) : (pos ? 0.0f : 1.0f);
  }
  Tensor mask = tx::zeros({32});
  for (std::int64_t i = 0; i < 16; ++i) mask.at(i) = 1.0f;

  auto net = tx::nn::make_mlp({2, 16, 2}, "tanh", &gen);
  auto bnn = std::make_shared<VariationalBNN>(
      net, std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<Categorical>(16), guides::auto_delta_factory());
  auto optim = std::make_shared<tx::infer::Adam>(5e-2);
  {
    poutine::SelectiveMask sm(mask, {"likelihood.data"});
    bnn->fit({{{x}, y}}, optim, 400);
  }
  // The labelled half is fit well; the garbage labels of the masked-out half
  // were ignored, so the model disagrees with them (it predicts the true
  // sign, which the garbage labels flip).
  Tensor probs = bnn->predict(x, 1);
  Tensor labelled_probs = tx::slice(probs, 0, 0, 16);
  Tensor labelled_y = tx::slice(y, 0, 0, 16);
  EXPECT_LT(bnn->likelihood().error(labelled_probs, labelled_y).item(), 0.15);
  Tensor garbage_probs = tx::slice(probs, 0, 16, 32);
  Tensor garbage_y = tx::slice(y, 0, 16, 32);
  EXPECT_GT(bnn->likelihood().error(garbage_probs, garbage_y).item(), 0.7);
}

// ---- posterior-predictive draws ---------------------------------------------
//
// predict() runs one draw program per call: AutoNormal builds its site
// distributions during the first draw and only samples them afterwards;
// other guides re-run their program. Either way predict(x, S, false) must be
// the S sequential guided forwards an honest loop makes, bit for bit, and a
// later call must see the parameters as they are then.

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// S sequential guided_forward calls from the current RNG state.
Tensor sequential_draws(VariationalBNN& bnn, const Tensor& x, int s) {
  tx::NoGradGuard ng;
  std::vector<Tensor> draws;
  for (int i = 0; i < s; ++i) draws.push_back(bnn.guided_forward(x).detach());
  return tx::stack(draws, 0);
}

/// The same draws with the guide program itself traced and replayed, no
/// draw program involved.
Tensor guide_program_draws(VariationalBNN& bnn, const Tensor& x, int s) {
  tx::NoGradGuard ng;
  std::vector<Tensor> draws;
  for (int i = 0; i < s; ++i) {
    tx::ppl::Trace tr = tx::ppl::trace_fn([&] { bnn.net_guide()(); });
    tx::ppl::ReplayMessenger replay(tr);
    tx::ppl::HandlerScope scope(replay);
    draws.push_back(bnn.sampled_forward(x).detach());
  }
  return tx::stack(draws, 0);
}

struct GuideCase {
  std::string name;
  guides::GuideFactory factory;
  bool stochastic;
};

std::vector<GuideCase> guide_cases() {
  guides::AutoNormalConfig clipped;
  clipped.init_scale = 0.3f;
  clipped.max_scale = 0.2f;  // below the initial scale, so the clamp bites
  guides::AutoNormalConfig fixed_loc;
  fixed_loc.train_loc = false;
  guides::AutoNormalConfig fixed_scale;
  fixed_scale.train_scale = false;
  guides::AutoNormalConfig all = clipped;
  all.train_loc = false;
  all.train_scale = false;
  return {
      {"auto_normal", guides::auto_normal_factory(), true},
      {"max_scale", guides::auto_normal_factory(clipped), true},
      {"train_loc_false", guides::auto_normal_factory(fixed_loc), true},
      {"train_scale_false", guides::auto_normal_factory(fixed_scale), true},
      {"all_knobs", guides::auto_normal_factory(all), true},
      {"auto_delta", guides::auto_delta_factory(), false},
      {"low_rank", guides::auto_lowrank_factory(3, 0.1f), true},
  };
}

/// A fresh regression BNN from a fixed seed, optionally fit for a few steps
/// so that every parameter exists and has moved off its initial value.
struct Fixture {
  std::shared_ptr<VariationalBNN> bnn;
  Tensor x;
  std::vector<Batch> data;
  std::shared_ptr<tx::infer::Adam> optim;
};

Fixture fixture(const guides::GuideFactory& factory, int fit_steps) {
  tx::manual_seed(21);
  tx::Generator gen(21);
  Fixture f;
  auto [x, y] = make_regression_data(16, gen);
  f.x = x;
  f.data = {{{x}, y}};
  f.bnn = std::make_shared<VariationalBNN>(
      tx::nn::make_mlp({1, 12, 12, 1}, "tanh", &gen),
      std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<HomoskedasticGaussian>(16, 0.1f), factory);
  f.optim = std::make_shared<tx::infer::Adam>(1e-2);
  if (fit_steps > 0) f.bnn->fit(f.data, f.optim, fit_steps);
  return f;
}

TEST(PredictDraws, EqualSequentialGuidedForwardsBitForBit) {
  constexpr int kDraws = 5;
  for (const GuideCase& c : guide_cases()) {
    // 0 fit steps: the first draw creates the guide's parameters lazily.
    for (const int fit_steps : {0, 3}) {
      SCOPED_TRACE(c.name + " after " + std::to_string(fit_steps) + " steps");
      Fixture a = fixture(c.factory, fit_steps);
      tx::manual_seed(22);
      const Tensor hoisted = a.bnn->predict(a.x, kDraws, /*aggregate=*/false);
      Fixture b = fixture(c.factory, fit_steps);
      tx::manual_seed(22);
      const Tensor sequential = sequential_draws(*b.bnn, b.x, kDraws);
      Fixture r = fixture(c.factory, fit_steps);
      tx::manual_seed(22);
      const Tensor reference = guide_program_draws(*r.bnn, r.x, kDraws);
      ASSERT_EQ(hoisted.shape(), (Shape{kDraws, 16, 1}));
      EXPECT_TRUE(same_bits(hoisted, sequential));
      EXPECT_TRUE(same_bits(hoisted, reference));
      const bool rows_differ =
          !same_bits(tx::slice(hoisted, 0, 0, 1), tx::slice(hoisted, 0, 1, 2));
      EXPECT_EQ(rows_differ, c.stochastic);
    }
  }
}

TEST(PredictDraws, APredictAfterAnOptimizerStepSeesTheNewScales) {
  // Means frozen, so the step moves the scales only.
  guides::AutoNormalConfig cfg;
  cfg.train_loc = false;
  Fixture f = fixture(guides::auto_normal_factory(cfg), 2);
  auto& store = f.bnn->param_store();
  const std::string loc = "guide.loc.net.0.weight";
  const std::string scale = "guide.scale_unconstrained.net.0.weight";
  const Tensor loc_before = store.get(loc).clone();
  const Tensor scale_before = store.get(scale).clone();
  tx::manual_seed(30);
  const Tensor before = f.bnn->predict(f.x, 4, /*aggregate=*/false);

  f.bnn->fit(f.data, f.optim, 1);
  ASSERT_TRUE(same_bits(store.get(loc), loc_before));
  ASSERT_FALSE(same_bits(store.get(scale), scale_before));
  tx::manual_seed(30);
  const Tensor after = f.bnn->predict(f.x, 4, /*aggregate=*/false);
  tx::manual_seed(30);
  const Tensor reference = guide_program_draws(*f.bnn, f.x, 4);
  EXPECT_TRUE(same_bits(after, reference));
  EXPECT_FALSE(same_bits(after, before));
}

}  // namespace
}  // namespace tyxe
