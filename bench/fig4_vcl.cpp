// Reproduces Figure 4 of the paper: mean accuracy over tasks seen so far for
// variational continual learning (VCL) vs maximum likelihood on Split-MNIST
// and Split-CIFAR analogues (5 tasks x 2 classes). Protocol: multi-head, as
// in Nguyen et al. (2018) / Swaroop et al. (2019) — a shared body with one
// output head per task. Sequential ML training drifts the shared body and
// forgets old tasks; VCL's posterior-to-prior update anchors it
// (DESIGN.md, FIG4).
#include <cstdio>
#include <map>

#include "core/tyxe.h"
#include "data/datasets.h"
#include "metrics/metrics.h"
#include "obs/manifest.h"
#include "session.h"
#include "util/stats.h"

using tx::Tensor;

namespace {

constexpr int kTasks = 5;
constexpr int kClasses = 10;

struct Curve {
  std::array<double, kTasks> mean_acc{};  // over tasks seen so far
};

Tensor flat(const Tensor& images) { return images.flatten(1); }

Curve run_vcl(const std::vector<tx::data::SplitTask>& tasks,
              std::int64_t input_dim, std::uint64_t seed, int epochs) {
  tx::manual_seed(seed);
  tx::Generator gen(seed);
  // A narrow shared body: the capacity-pressure regime in which the
  // continual-learning problem is non-trivial at this scale.
  auto body = tx::nn::make_mlp({input_dim, 8}, "relu", &gen);
  auto net = std::make_shared<tx::nn::MultiHeadNet>(body, 8, 2, kTasks, &gen);
  auto likelihood = std::make_shared<tyxe::Categorical>(1);
  tyxe::guides::AutoNormalConfig g;
  g.init_scale = 0.05f;  // scales must be trainable within the epoch budget
                          // (1e-4 would freeze the VCL prior artificially)
  tyxe::VariationalBNN bnn(net,
                           std::make_shared<tyxe::IIDPrior>(
                               std::make_shared<tx::dist::Normal>(0.0f, 1.0f)),
                           likelihood, tyxe::guides::auto_normal_factory(g));
  Curve curve;
  for (int t = 0; t < kTasks; ++t) {
    const auto& task = tasks[static_cast<std::size_t>(t)];
    net->set_active_head(t);
    likelihood->set_dataset_size(task.train.labels.numel());
    auto optim = std::make_shared<tx::infer::Adam>(1e-3);  // paper A.4
    tx::data::DataLoader loader(flat(task.train.images), task.train.labels, 32);
    bnn.fit([&] { return loader.batches(&gen); }, optim, epochs);

    // Posterior -> prior; heads of unseen tasks keep their fresh N(0, 1)
    // prior (their variational posteriors are untrained artifacts).
    auto posteriors =
        bnn.net_guide().get_detached_distributions(bnn.site_names());
    for (auto& [name, d] : posteriors) {
      for (int future = t + 1; future < kTasks; ++future) {
        if (name.find("head" + std::to_string(future) + ".") !=
            std::string::npos) {
          d = std::make_shared<tx::dist::Normal>(tx::zeros(d->shape()),
                                                 tx::ones(d->shape()));
        }
      }
    }
    bnn.update_prior(std::make_shared<tyxe::DictPrior>(posteriors));

    double total = 0.0;
    for (int s = 0; s <= t; ++s) {
      net->set_active_head(s);
      Tensor probs =
          bnn.predict(flat(tasks[static_cast<std::size_t>(s)].test.images), 8);
      total += tx::metrics::accuracy(
          probs, tasks[static_cast<std::size_t>(s)].test.labels);
    }
    curve.mean_acc[static_cast<std::size_t>(t)] = total / (t + 1);
  }
  return curve;
}

Curve run_ml(const std::vector<tx::data::SplitTask>& tasks,
             std::int64_t input_dim, std::uint64_t seed, int epochs) {
  tx::manual_seed(seed);
  tx::Generator gen(seed);
  auto body = tx::nn::make_mlp({input_dim, 8}, "relu", &gen);
  auto net = std::make_shared<tx::nn::MultiHeadNet>(body, 8, 2, kTasks, &gen);
  tx::infer::Adam optim(1e-3);  // paper A.4
  for (auto& slot : net->named_parameter_slots()) optim.add_param(*slot.slot);
  Curve curve;
  for (int t = 0; t < kTasks; ++t) {
    const auto& task = tasks[static_cast<std::size_t>(t)];
    net->set_active_head(t);
    tx::data::DataLoader loader(flat(task.train.images), task.train.labels, 32);
    for (int epoch = 0; epoch < epochs; ++epoch) {
      for (auto& [inputs, targets] : loader.batches(&gen)) {
        optim.zero_grad();
        Tensor logits = net->forward(inputs[0]);
        tx::neg(tx::mean(tx::gather_last(tx::log_softmax(logits, -1), targets)))
            .backward();
        optim.step();
      }
    }
    double total = 0.0;
    for (int s = 0; s <= t; ++s) {
      net->set_active_head(s);
      tx::NoGradGuard ng;
      Tensor probs = tx::softmax(
          net->forward(flat(tasks[static_cast<std::size_t>(s)].test.images)),
          -1);
      total += tx::metrics::accuracy(
          probs.detach(), tasks[static_cast<std::size_t>(s)].test.labels);
    }
    curve.mean_acc[static_cast<std::size_t>(t)] = total / (t + 1);
  }
  return curve;
}

/// Mean-over-runs accuracy curve, one point per task, for the BENCH
/// snapshot's series section.
void append_series(std::map<std::string, std::vector<double>>& series,
                   const std::string& name, const std::vector<Curve>& curves) {
  std::vector<double> mean;
  for (int t = 0; t < kTasks; ++t) {
    std::vector<double> at_t;
    for (const auto& c : curves) {
      at_t.push_back(c.mean_acc[static_cast<std::size_t>(t)]);
    }
    mean.push_back(tx::mean_of(at_t));
  }
  series[name] = std::move(mean);
}

void report(const char* title, const std::vector<Curve>& vcl,
            const std::vector<Curve>& ml) {
  std::printf("\n%s — mean accuracy on tasks seen so far (± 2 s.e., %zu runs)\n",
              title, vcl.size());
  std::printf("%12s %18s %18s\n", "after task", "VCL", "ML");
  for (int t = 0; t < kTasks; ++t) {
    std::vector<double> v, m;
    for (const auto& c : vcl) v.push_back(c.mean_acc[static_cast<std::size_t>(t)]);
    for (const auto& c : ml) m.push_back(c.mean_acc[static_cast<std::size_t>(t)]);
    std::printf("%12d %10.3f ±%.3f %10.3f ±%.3f\n", t + 1, tx::mean_of(v),
                tx::two_stderr_of(v), tx::mean_of(m), tx::two_stderr_of(m));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Shared observability flags (bench/session.h, docs/observability.md).
  bench::Session session(argc, argv, "fig4_vcl");
  // Base data seed of run 0; per-run seeds derive from it (+run offsets).
  tx::obs::manifest::set_field("seed", static_cast<std::int64_t>(500));

  const int kRuns = 3;
  std::printf("Figure 4 reproduction: VCL vs ML, multi-head split "
              "streams (%d runs each)\n",
              kRuns);
  std::map<std::string, std::vector<double>> series;

  // Split-MNIST analogue: 8x8 single-channel patterns, MLP(64, 100, 10).
  {
    std::vector<Curve> vcl, ml;
    for (int run = 0; run < kRuns; ++run) {
      tx::Generator data_gen(500 + static_cast<std::uint64_t>(run));
      tx::data::SyntheticImageConfig cfg;
      cfg.num_classes = kClasses;
      cfg.channels = 1;
      cfg.size = 8;
      cfg.noise = 1.5f;
      cfg.pattern_seed = 900 + static_cast<std::uint64_t>(run);
      auto tasks = tx::data::make_split_tasks(cfg, kTasks, 250, 50, data_gen);
      vcl.push_back(run_vcl(tasks, 64, 10 + static_cast<std::uint64_t>(run), 200));
      ml.push_back(run_ml(tasks, 64, 10 + static_cast<std::uint64_t>(run), 200));
    }
    report("Split-MNIST analogue", vcl, ml);
    append_series(series, "vcl_mean_acc.split_mnist", vcl);
    append_series(series, "ml_mean_acc.split_mnist", ml);
  }

  // Split-CIFAR analogue: 3-channel 8x8 colour patterns.
  {
    std::vector<Curve> vcl, ml;
    for (int run = 0; run < kRuns; ++run) {
      tx::Generator data_gen(700 + static_cast<std::uint64_t>(run));
      tx::data::SyntheticImageConfig cfg;
      cfg.num_classes = kClasses;
      cfg.channels = 3;
      cfg.size = 8;
      cfg.noise = 2.4f;
      cfg.pattern_seed = 1700 + static_cast<std::uint64_t>(run);
      auto tasks = tx::data::make_split_tasks(cfg, kTasks, 250, 50, data_gen);
      vcl.push_back(run_vcl(tasks, 192, 20 + static_cast<std::uint64_t>(run), 300));
      ml.push_back(run_ml(tasks, 192, 20 + static_cast<std::uint64_t>(run), 300));
    }
    report("Split-CIFAR analogue", vcl, ml);
    append_series(series, "vcl_mean_acc.split_cifar", vcl);
    append_series(series, "ml_mean_acc.split_cifar", ml);
  }

  std::printf("\npaper shape: ML's mean accuracy decays across tasks "
              "(forgetting); VCL degrades far more slowly.\n");
  if (!bench::write_snapshot("BENCH_fig4_vcl.json", "fig4_vcl", series)) {
    return 1;
  }
  std::printf("metrics: BENCH_fig4_vcl.json\n");
  return session.finish() ? 0 : 1;
}
