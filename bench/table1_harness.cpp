#include "table1_harness.h"

#include <cstdio>
#include <memory>

#include "metrics/metrics.h"
#include "metrics/pq_feed.h"
#include "obs/obs.h"
#include "session.h"

namespace bench {

namespace {

namespace nd = tx::dist;
namespace obs = tx::obs;
using tx::Tensor;
using tyxe::guides::AutoNormalConfig;

struct Data {
  tx::data::ImageDataset train, test, ood;
};

Data make_data(const Table1Config& cfg, tx::Generator& gen) {
  tx::data::SyntheticImageConfig img;
  img.num_classes = cfg.num_classes;
  img.per_class = cfg.per_class_train;
  img.size = cfg.image_size;
  img.noise = cfg.noise;
  Data data;
  data.train = tx::data::make_pattern_images(img, gen);
  img.per_class = cfg.per_class_test;
  data.test = tx::data::make_pattern_images(img, gen);
  // OOD: blend of unseen class patterns (fresh pattern seed) with seen ones
  // — plausible, semantically *related* images whose content the classifier
  // has never seen, the analogue of SVHN-vs-CIFAR relatedness.
  img.per_class = cfg.num_ood / cfg.num_classes;
  tx::data::ImageDataset seen_like = tx::data::make_pattern_images(img, gen);
  img.pattern_seed += 9999;
  tx::data::ImageDataset unseen = tx::data::make_pattern_images(img, gen);
  data.ood = unseen;
  for (std::int64_t i = 0; i < data.ood.images.numel(); ++i) {
    data.ood.images.at(i) =
        0.5f * data.ood.images.at(i) + 0.5f * seen_like.images.at(i);
  }
  return data;
}

/// Plain maximum-likelihood training; returns the trained network.
std::shared_ptr<tx::nn::ResNet> train_ml(const Table1Config& cfg,
                                         const Data& data,
                                         tx::Generator& gen) {
  auto net = tx::nn::make_resnet8(cfg.num_classes, cfg.base_width, 3, &gen);
  tx::infer::Adam optim(1e-3);
  for (auto& slot : net->named_parameter_slots()) optim.add_param(*slot.slot);
  tx::data::DataLoader loader(data.train.images, data.train.labels,
                              cfg.batch_size);
  net->train();
  for (int epoch = 0; epoch < cfg.ml_epochs; ++epoch) {
    for (auto& [inputs, targets] : loader.batches(&gen)) {
      optim.zero_grad();
      Tensor logits = net->forward(inputs[0]);
      Tensor loss =
          tx::neg(tx::mean(tx::gather_last(tx::log_softmax(logits, -1), targets)));
      loss.backward();
      optim.step();
    }
  }
  return net;
}

Tensor ml_probs(tx::nn::ResNet& net, const Tensor& images) {
  tx::NoGradGuard ng;
  net.eval();
  return tx::softmax(net.forward(images), -1).detach();
}

/// Evaluate any probability table against labels + OOD probabilities.
/// `streamed_via_predict` says the predict path already fed the label-free
/// pq streams "<name>/test" and "<name>/ood" (false for point-estimate
/// strategies whose probabilities bypass BNN::predict).
StrategyResult finish(std::string name, Tensor test_probs, Tensor ood_probs,
                      const Tensor& labels, bool streamed_via_predict) {
  StrategyResult r;
  r.name = std::move(name);
  r.test_probs = test_probs;
  r.ood_probs = ood_probs;
  r.nll = tx::metrics::nll(test_probs, labels);
  r.accuracy = tx::metrics::accuracy(test_probs, labels);
  r.ece = tx::metrics::expected_calibration_error(test_probs, labels);
  r.ood_auroc = tx::metrics::auroc(tx::metrics::max_probability(test_probs),
                                   tx::metrics::max_probability(ood_probs));
  if (tx::obs::pq::enabled()) {
    if (!streamed_via_predict) {
      tx::obs::pq::StreamScope test_scope(r.name + "/test");
      tx::metrics::pq_observe_probs(test_probs);
      tx::obs::pq::StreamScope ood_scope(r.name + "/ood");
      tx::metrics::pq_observe_probs(ood_probs);
    }
    const std::string stream = r.name + "/test";
    {
      tx::obs::pq::StreamScope scope(stream);
      tx::metrics::pq_observe_labeled(test_probs, labels);
    }
    // Self-enforcing contract: the streaming aggregates must equal the batch
    // metrics *bitwise* on the same data (this is what makes the telemetry
    // trustworthy as a live stand-in for the paper's table values).
    TX_CHECK(tx::obs::pq::streaming_ece(stream) == r.ece,
             "pq: streaming ECE diverged from batch ECE");
    TX_CHECK(tx::obs::pq::streaming_nll(stream) == r.nll,
             "pq: streaming NLL diverged from batch NLL");
    TX_CHECK(tx::obs::pq::streaming_accuracy(stream) == r.accuracy,
             "pq: streaming accuracy diverged from batch accuracy");
  }
  return r;
}

/// Builds, fits and evaluates one Bayesian strategy on top of the pretrained
/// network weights.
StrategyResult run_bayesian(const std::string& name, const Table1Config& cfg,
                            const Data& data, tx::Generator& gen,
                            const std::vector<std::pair<std::string, Tensor>>&
                                pretrained_state,
                            const tyxe::HideExpose& filter,
                            const tyxe::guides::GuideFactory& guide_factory,
                            int epochs, bool freeze_hidden,
                            bool use_local_reparam, obs::EventSink* sink,
                            std::map<std::string, std::vector<double>>* series) {
  auto net = tx::nn::make_resnet8(cfg.num_classes, cfg.base_width, 3, &gen);
  net->load_state_dict(pretrained_state);
  auto prior = std::make_shared<tyxe::IIDPrior>(
      std::make_shared<nd::Normal>(0.0f, 1.0f), filter);
  auto likelihood =
      std::make_shared<tyxe::Categorical>(data.train.labels.numel());
  tyxe::VariationalBNN bnn(net, prior, likelihood, guide_factory);
  if (freeze_hidden) {
    // Last-layer strategies keep the pretrained body fixed.
    for (auto& [pname, p] : bnn.param_store().items()) {
      if (pname.rfind("net.", 0) == 0 &&
          pname.find(".fc.") == std::string::npos) {
        p.set_requires_grad(false);
      }
    }
  }
  auto optim = std::make_shared<tx::infer::Adam>(1e-3);
  tx::data::DataLoader loader(data.train.images, data.train.labels,
                              cfg.batch_size);
  net->train();
  std::vector<double> losses;
  bnn.set_step_callback([&](const tx::infer::SVIStepInfo& s) {
    losses.push_back(s.loss);
    if (sink) {
      obs::Event e;
      e.set("strategy", name)
          .set("step", s.step)
          .set("loss", s.loss)
          .set("grad_norm", s.grad_norm)
          .set("seconds", s.seconds);
      sink->emit(e);
    }
  });
  {
    obs::ScopedTimer span("table1.fit");
    if (use_local_reparam) {
      tyxe::poutine::LocalReparameterization lr;
      bnn.fit([&] { return loader.batches(&gen); }, optim, epochs);
    } else {
      bnn.fit([&] { return loader.batches(&gen); }, optim, epochs);
    }
  }
  if (series) (*series)["loss." + name] = std::move(losses);
  net->eval();
  // Label the pq streams so the predict path lands test and OOD telemetry
  // in per-strategy buckets ("MF/test", "MF/ood", ...).
  Tensor test_probs = [&] {
    tx::obs::pq::StreamScope scope(name + "/test");
    return bnn.predict(data.test.images, cfg.num_pred_samples);
  }();
  Tensor ood_probs = [&] {
    tx::obs::pq::StreamScope scope(name + "/ood");
    return bnn.predict(data.ood.images, cfg.num_pred_samples);
  }();
  return finish(name, test_probs, ood_probs, data.test.labels,
                /*streamed_via_predict=*/true);
}

}  // namespace

Table1Run run_table1(const Table1Config& cfg) {
  tx::manual_seed(cfg.seed);
  tx::Generator gen(cfg.seed);
  Data data = make_data(cfg, gen);

  Table1Run run;
  run.test_labels = data.test.labels;

  // Observability: every strategy streams its per-step loss through one JSONL
  // sink, and the final registry snapshot (timing histograms + loss series)
  // goes to cfg.metrics_path.
  std::unique_ptr<obs::EventSink> sink;
  if (!cfg.events_path.empty()) {
    sink = std::make_unique<obs::EventSink>(cfg.events_path);
  }
  std::map<std::string, std::vector<double>> series;

  // --- ML: the deterministic baseline and the pretrained initialization.
  auto ml_net = [&] {
    obs::ScopedTimer span("table1.train_ml");
    return train_ml(cfg, data, gen);
  }();
  const auto pretrained_state = ml_net->state_dict();
  run.strategies.push_back(finish("ML", ml_probs(*ml_net, data.test.images),
                                  ml_probs(*ml_net, data.ood.images),
                                  data.test.labels,
                                  /*streamed_via_predict=*/false));
  std::printf("  [done] ML\n");

  tyxe::HideExpose hide_bn;
  hide_bn.hide_module_types = {"BatchNorm2d"};
  const auto pretrained_init = [&] {
    // Site names are "net.<path>"; build the init map once per strategy from
    // the pretrained state dict.
    std::map<std::string, Tensor> init;
    for (const auto& [name, value] : pretrained_state) {
      init.emplace("net." + name, value);
    }
    return tyxe::guides::init_to_value(std::move(init));
  }();

  // --- MAP: point-mass guide initialized at the pretrained weights.
  run.strategies.push_back(run_bayesian(
      "MAP", cfg, data, gen, pretrained_state, hide_bn,
      tyxe::guides::auto_delta_factory(pretrained_init), cfg.map_epochs,
      /*freeze_hidden=*/false, /*use_local_reparam=*/false, sink.get(),
      &series));
  std::printf("  [done] MAP\n");

  // --- MF (sd only): means pinned to pretrained weights, fit variances.
  {
    AutoNormalConfig g;
    g.init_loc = pretrained_init;
    g.init_scale = 1e-4f;
    g.max_scale = 0.1f;
    g.train_loc = false;
    run.strategies.push_back(run_bayesian(
        "MF (sd only)", cfg, data, gen, pretrained_state, hide_bn,
        tyxe::guides::auto_normal_factory(g), cfg.vi_epochs, false, true,
        sink.get(), &series));
    std::printf("  [done] MF (sd only)\n");
  }

  // --- MF: free means (pretrained init) with clipped scales.
  {
    AutoNormalConfig g;
    g.init_loc = pretrained_init;
    g.init_scale = 1e-4f;
    g.max_scale = 0.1f;
    run.strategies.push_back(run_bayesian(
        "MF", cfg, data, gen, pretrained_state, hide_bn,
        tyxe::guides::auto_normal_factory(g), cfg.vi_epochs, false, true,
        sink.get(), &series));
    std::printf("  [done] MF\n");
  }

  // --- Last-layer strategies: inference over fc only, body frozen.
  tyxe::HideExpose expose_fc;
  expose_fc.expose_modules = {"fc"};
  {
    AutoNormalConfig g;
    g.init_loc = pretrained_init;
    g.init_scale = 1e-4f;
    run.strategies.push_back(run_bayesian(
        "LL MF", cfg, data, gen, pretrained_state, expose_fc,
        tyxe::guides::auto_normal_factory(g), cfg.vi_epochs, true, true,
        sink.get(), &series));
    std::printf("  [done] LL MF\n");
  }
  {
    run.strategies.push_back(run_bayesian(
        "LL low rank", cfg, data, gen, pretrained_state, expose_fc,
        tyxe::guides::auto_lowrank_factory(10, 1e-2f, pretrained_init),
        cfg.vi_epochs, true, false, sink.get(), &series));
    std::printf("  [done] LL low rank\n");
  }

  if (sink) {
    for (const auto& r : run.strategies) {
      obs::Event e;
      e.set("event", "strategy_result")
          .set("strategy", r.name)
          .set("nll", r.nll)
          .set("accuracy", r.accuracy)
          .set("ece", r.ece)
          .set("ood_auroc", r.ood_auroc);
      sink->emit(e);
    }
    std::printf("  events:  %s (%lld lines)\n", sink->path().c_str(),
                static_cast<long long>(sink->events_written()));
  }
  if (!cfg.metrics_path.empty()) {
    run.metrics_written =
        write_snapshot(cfg.metrics_path, "table1_harness", series);
    std::printf("  metrics: %s\n", cfg.metrics_path.c_str());
  }

  return run;
}

}  // namespace bench
