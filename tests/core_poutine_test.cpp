// Tests for the reparameterization effect handlers: output-moment agreement
// with weight sampling, gradient-variance reduction, flipout decorrelation,
// and the pass-through behaviour on deterministic weights.
#include <gtest/gtest.h>

#include <cmath>

#include "core/poutine.h"
#include "nn/nn.h"

namespace tyxe::poutine {
namespace {

namespace nd = tx::dist;
using tx::Shape;
using tx::Tensor;

TEST(LocalReparam, OutputMomentsMatchWeightSampling) {
  tx::manual_seed(1);
  auto wd = std::make_shared<nd::Normal>(tx::randn({3, 2}),
                                         tx::rand_uniform({3, 2}, 0.1f, 0.3f));
  Tensor x = tx::randn({1, 2});
  // Analytic output moments.
  Tensor mu = tx::linear(x, wd->loc(), Tensor());
  Tensor var = tx::linear(tx::square(x), tx::square(wd->scale()), Tensor());

  const int kSamples = 4000;
  double m0 = 0.0, v0 = 0.0;
  LocalReparameterizationMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  {
    tx::ppl::HandlerScope scope(msg);
    for (int i = 0; i < kSamples; ++i) {
      Tensor w = tx::ppl::sample("w" + std::to_string(i), wd);
      Tensor out = tx::nn::functional::linear(x, w, Tensor());
      m0 += out.at(0);
      v0 += out.at(0) * out.at(0);
    }
  }
  tx::nn::functional::pop_interceptor(&msg);
  m0 /= kSamples;
  v0 = v0 / kSamples - m0 * m0;
  EXPECT_NEAR(m0, mu.at(0), 0.05);
  EXPECT_NEAR(v0, var.at(0), 0.05);
}

TEST(LocalReparam, DistinctSamplesPerRow) {
  // Two identical input rows must get different outputs (per-datapoint
  // pre-activation sampling), unlike shared weight sampling.
  tx::manual_seed(2);
  auto wd = std::make_shared<nd::Normal>(tx::zeros({1, 2}), tx::ones({1, 2}));
  Tensor x = tx::ones({2, 2});
  LocalReparameterizationMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  Tensor out;
  {
    tx::ppl::HandlerScope scope(msg);
    Tensor w = tx::ppl::sample("w", wd);
    out = tx::nn::functional::linear(x, w, Tensor());
  }
  tx::nn::functional::pop_interceptor(&msg);
  EXPECT_NE(out.at(0), out.at(1));
  // Without the messenger, identical rows share the weight sample.
  Tensor w = wd->sample();
  Tensor plain = tx::nn::functional::linear(x, w, Tensor());
  EXPECT_FLOAT_EQ(plain.at(0), plain.at(1));
}

TEST(LocalReparam, DeclinesDeterministicWeights) {
  tx::manual_seed(3);
  Tensor w = tx::randn({2, 2});
  Tensor x = tx::randn({1, 2});
  LocalReparameterizationMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  Tensor out;
  {
    tx::ppl::HandlerScope scope(msg);
    out = tx::nn::functional::linear(x, w, Tensor());  // w never sampled
  }
  tx::nn::functional::pop_interceptor(&msg);
  EXPECT_TRUE(tx::allclose(out, tx::linear(x, w, Tensor())));
}

TEST(LocalReparam, SampledBiasContributesVariance) {
  tx::manual_seed(4);
  auto wd = std::make_shared<nd::Normal>(tx::zeros({1, 1}),
                                         tx::full({1, 1}, 1e-6f));
  auto bd = std::make_shared<nd::Normal>(tx::zeros({1}), tx::ones({1}));
  Tensor x = tx::zeros({1, 1});  // only the bias can produce variance
  LocalReparameterizationMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  double var = 0.0;
  const int kSamples = 4000;
  {
    tx::ppl::HandlerScope scope(msg);
    Tensor w = tx::ppl::sample("w", wd);
    Tensor b = tx::ppl::sample("b", bd);
    for (int i = 0; i < kSamples; ++i) {
      Tensor out = tx::nn::functional::linear(x, w, b);
      var += out.at(0) * out.at(0);
    }
  }
  tx::nn::functional::pop_interceptor(&msg);
  EXPECT_NEAR(var / kSamples, 1.0, 0.1);
}

TEST(LocalReparam, Conv2dMomentsMatch) {
  tx::manual_seed(5);
  auto wd = std::make_shared<nd::Normal>(
      tx::randn({2, 1, 3, 3}), tx::rand_uniform({2, 1, 3, 3}, 0.05f, 0.2f));
  Tensor x = tx::randn({1, 1, 4, 4});
  Tensor mu = tx::conv2d(x, wd->loc(), Tensor(), 1, 1);
  Tensor var = tx::conv2d(tx::square(x), tx::square(wd->scale()), Tensor(), 1, 1);
  LocalReparameterizationMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  const int kSamples = 2000;
  double m0 = 0.0, v0 = 0.0;
  {
    tx::ppl::HandlerScope scope(msg);
    for (int i = 0; i < kSamples; ++i) {
      Tensor w = tx::ppl::sample("w" + std::to_string(i), wd);
      Tensor out = tx::nn::functional::conv2d(x, w, Tensor(), 1, 1);
      m0 += out.at(5);
      v0 += out.at(5) * out.at(5);
    }
  }
  tx::nn::functional::pop_interceptor(&msg);
  m0 /= kSamples;
  v0 = v0 / kSamples - m0 * m0;
  EXPECT_NEAR(m0, mu.at(5), 0.1);
  EXPECT_NEAR(v0 / std::max(1e-6f, var.at(5)), 1.0, 0.15);
}

TEST(Flipout, OutputMomentsMatchWeightSampling) {
  tx::manual_seed(6);
  auto wd = std::make_shared<nd::Normal>(tx::randn({3, 2}),
                                         tx::rand_uniform({3, 2}, 0.1f, 0.3f));
  Tensor x = tx::randn({1, 2});
  Tensor mu = tx::linear(x, wd->loc(), Tensor());
  Tensor var = tx::linear(tx::square(x), tx::square(wd->scale()), Tensor());
  FlipoutMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  const int kSamples = 4000;
  double m0 = 0.0, v0 = 0.0;
  {
    tx::ppl::HandlerScope scope(msg);
    for (int i = 0; i < kSamples; ++i) {
      Tensor w = tx::ppl::sample("w" + std::to_string(i), wd);
      Tensor out = tx::nn::functional::linear(x, w, Tensor());
      m0 += out.at(0);
      v0 += out.at(0) * out.at(0);
    }
  }
  tx::nn::functional::pop_interceptor(&msg);
  m0 /= kSamples;
  v0 = v0 / kSamples - m0 * m0;
  EXPECT_NEAR(m0, mu.at(0), 0.05);
  EXPECT_NEAR(v0 / var.at(0), 1.0, 0.15);
}

TEST(Flipout, PerExampleDecorrelation) {
  // With flipout, two identical rows in a batch receive different
  // perturbations; correlation across rows should be far below 1.
  tx::manual_seed(7);
  auto wd = std::make_shared<nd::Normal>(tx::zeros({1, 4}), tx::ones({1, 4}));
  Tensor x = tx::ones({2, 4});
  FlipoutMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  double cov = 0.0, var = 0.0;
  const int kSamples = 2000;
  {
    tx::ppl::HandlerScope scope(msg);
    Tensor w = tx::ppl::sample("w", wd);
    for (int i = 0; i < kSamples; ++i) {
      Tensor out = tx::nn::functional::linear(x, w, Tensor());
      cov += out.at(0) * out.at(1);
      var += out.at(0) * out.at(0);
    }
  }
  tx::nn::functional::pop_interceptor(&msg);
  EXPECT_LT(std::fabs(cov / var), 0.3);
}

TEST(Flipout, Conv2dRuns) {
  tx::manual_seed(8);
  auto wd = std::make_shared<nd::Normal>(
      tx::zeros({2, 1, 3, 3}), tx::full({2, 1, 3, 3}, 0.1f));
  auto bd = std::make_shared<nd::Normal>(tx::zeros({2}), tx::full({2}, 0.1f));
  Tensor x = tx::randn({2, 1, 5, 5});
  FlipoutMessenger msg;
  tx::nn::functional::push_interceptor(&msg);
  {
    tx::ppl::HandlerScope scope(msg);
    Tensor w = tx::ppl::sample("w", wd);
    Tensor b = tx::ppl::sample("b", bd);
    Tensor out = tx::nn::functional::conv2d(x, w, b, 1, 1);
    EXPECT_EQ(out.shape(), (Shape{2, 2, 5, 5}));
  }
  tx::nn::functional::pop_interceptor(&msg);
}

TEST(ReparamScope, RaiiBalancesBothStacks) {
  EXPECT_EQ(tx::nn::functional::interceptor_depth(), 0u);
  EXPECT_EQ(tx::ppl::handler_depth(), 0u);
  {
    LocalReparameterization lr;
    EXPECT_EQ(tx::nn::functional::interceptor_depth(), 1u);
    EXPECT_EQ(tx::ppl::handler_depth(), 1u);
    {
      Flipout f;
      EXPECT_EQ(tx::nn::functional::interceptor_depth(), 2u);
    }
    EXPECT_EQ(tx::nn::functional::interceptor_depth(), 1u);
  }
  EXPECT_EQ(tx::nn::functional::interceptor_depth(), 0u);
  EXPECT_EQ(tx::ppl::handler_depth(), 0u);
}

TEST(ReparamMessenger, FirstRegistrationWins) {
  // Simulates SVI ordering: the guide registers the posterior first, then
  // the model replays the same value under the prior. The output math must
  // use the posterior's scale.
  tx::manual_seed(9);
  LocalReparameterizationMessenger msg;
  Tensor value = tx::zeros({1, 1});
  auto posterior = std::make_shared<nd::Normal>(tx::zeros({1, 1}),
                                                tx::full({1, 1}, 1e-6f));
  auto prior = std::make_shared<nd::Normal>(tx::zeros({1, 1}), tx::ones({1, 1}));
  tx::ppl::SampleMsg qmsg;
  qmsg.name = "w";
  qmsg.distribution = posterior;
  qmsg.value = value;
  msg.postprocess_message(qmsg);
  tx::ppl::SampleMsg pmsg;
  pmsg.name = "w";
  pmsg.distribution = prior;
  pmsg.value = value;  // same tensor, replayed
  msg.postprocess_message(pmsg);
  EXPECT_EQ(msg.tracked_sites(), 1u);
  // Output variance must be ~0 (posterior), not ~1 (prior).
  tx::nn::functional::push_interceptor(&msg);
  Tensor x = tx::ones({1, 1});
  double var = 0.0;
  for (int i = 0; i < 200; ++i) {
    Tensor out = tx::nn::functional::linear(x, value, Tensor());
    var += out.at(0) * out.at(0);
  }
  tx::nn::functional::pop_interceptor(&msg);
  EXPECT_LT(var / 200.0, 1e-3);
}

TEST(GradientVariance, LocalReparamReducesEstimatorVariance) {
  // The headline claim for the effect handler: the gradient of the expected
  // loss w.r.t. the variational mean has lower variance under local
  // reparameterization than under naive weight sampling. Batch of identical
  // inputs amplifies the effect.
  tx::manual_seed(10);
  Tensor loc = tx::randn({1, 8});
  Tensor log_scale = tx::full({1, 8}, -2.0f);
  Tensor x = tx::broadcast_to(tx::randn({1, 8}), {16, 8}).detach();

  auto grad_sample = [&](bool use_lr) {
    Tensor l = loc.detach().set_requires_grad(true);
    Tensor s = tx::exp(log_scale);
    auto wd = std::make_shared<nd::Normal>(l, s);
    Tensor loss;
    if (use_lr) {
      LocalReparameterization scope;
      Tensor w = tx::ppl::sample("w", wd);
      loss = tx::mean(tx::square(tx::nn::functional::linear(x, w, Tensor())));
    } else {
      Tensor w = tx::ppl::sample("w", wd);
      loss = tx::mean(tx::square(tx::nn::functional::linear(x, w, Tensor())));
    }
    loss.backward();
    return l.grad().at(0);
  };

  const int kReps = 300;
  auto variance = [&](bool use_lr) {
    double m = 0, v = 0;
    std::vector<double> g(kReps);
    for (int i = 0; i < kReps; ++i) g[i] = grad_sample(use_lr);
    for (double gi : g) m += gi;
    m /= kReps;
    for (double gi : g) v += (gi - m) * (gi - m);
    return v / kReps;
  };
  EXPECT_LT(variance(true), variance(false));
}

}  // namespace
}  // namespace tyxe::poutine
