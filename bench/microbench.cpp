// Google-benchmark microbenchmarks for the substrate hot paths: tensor ops,
// autograd round trips, the ELBO step, and the local-reparameterization
// overhead the paper discusses ("they double the computational cost").
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/tyxe.h"
#include "data/datasets.h"
#include "obs/diag.h"
#include "obs/event_sink.h"
#include "obs/flags.h"
#include "par/par.h"
#include "ppl/diag.h"
#include "resil/io.h"

using tx::Tensor;
namespace nd = tx::dist;

namespace {

void BM_MatMul(benchmark::State& state) {
  const auto n = state.range(0);
  tx::Generator gen(0);
  Tensor a = tx::randn({n, n}, &gen);
  Tensor b = tx::randn({n, n}, &gen);
  tx::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2d(benchmark::State& state) {
  const auto c = state.range(0);
  tx::Generator gen(0);
  Tensor x = tx::randn({8, c, 16, 16}, &gen);
  Tensor w = tx::randn({c, c, 3, 3}, &gen);
  tx::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx::conv2d(x, w, Tensor(), 1, 1));
  }
}
BENCHMARK(BM_Conv2d)->Arg(8)->Arg(16);

void BM_MlpForwardBackward(benchmark::State& state) {
  tx::Generator gen(0);
  auto net = tx::nn::make_mlp({64, 128, 128, 10}, "relu", &gen);
  Tensor x = tx::randn({64, 64}, &gen);
  for (auto _ : state) {
    for (auto& s : net->named_parameter_slots()) s.slot->zero_grad();
    tx::sum(tx::square(net->forward(x))).backward();
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_SviStepRegressionBnn(benchmark::State& state) {
  tx::manual_seed(0);
  tx::Generator gen(0);
  auto data = tx::data::make_foong_regression(64, gen);
  auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
  auto bnn = std::make_shared<tyxe::VariationalBNN>(
      net,
      std::make_shared<tyxe::IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<tyxe::HomoskedasticGaussian>(64, 0.1f),
      tyxe::guides::auto_normal_factory());
  auto optim = std::make_shared<tx::infer::Adam>(1e-3);
  std::vector<tyxe::Batch> batch{{{data.x}, data.y}};
  for (auto _ : state) {
    bnn->fit(batch, optim, 1);
  }
}
BENCHMARK(BM_SviStepRegressionBnn);

void BM_SviStepLocalReparam(benchmark::State& state) {
  tx::manual_seed(0);
  tx::Generator gen(0);
  auto data = tx::data::make_foong_regression(64, gen);
  auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
  auto bnn = std::make_shared<tyxe::VariationalBNN>(
      net,
      std::make_shared<tyxe::IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<tyxe::HomoskedasticGaussian>(64, 0.1f),
      tyxe::guides::auto_normal_factory());
  auto optim = std::make_shared<tx::infer::Adam>(1e-3);
  std::vector<tyxe::Batch> batch{{{data.x}, data.y}};
  tyxe::poutine::LocalReparameterization lr;
  for (auto _ : state) {
    bnn->fit(batch, optim, 1);
  }
}
BENCHMARK(BM_SviStepLocalReparam);

// Same step as BM_SviStepRegressionBnn with inference-health diagnostics
// explicitly off (the default): the difference against that baseline is the
// cost of the disabled hooks — one relaxed atomic load per step — and should
// be indistinguishable from noise. The DiagOn variant (attached messenger,
// full per-site stream) bounds the enabled cost.
void BM_SviStepDiagOff(benchmark::State& state) {
  tx::manual_seed(0);
  tx::Generator gen(0);
  auto data = tx::data::make_foong_regression(64, gen);
  auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
  auto bnn = std::make_shared<tyxe::VariationalBNN>(
      net,
      std::make_shared<tyxe::IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<tyxe::HomoskedasticGaussian>(64, 0.1f),
      tyxe::guides::auto_normal_factory());
  auto optim = std::make_shared<tx::infer::Adam>(1e-3);
  std::vector<tyxe::Batch> batch{{{data.x}, data.y}};
  tx::obs::diag::set_enabled(false);
  for (auto _ : state) {
    bnn->fit(batch, optim, 1);
  }
}
BENCHMARK(BM_SviStepDiagOff);

void BM_SviStepDiagOn(benchmark::State& state) {
  tx::manual_seed(0);
  tx::Generator gen(0);
  auto data = tx::data::make_foong_regression(64, gen);
  auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
  auto bnn = std::make_shared<tyxe::VariationalBNN>(
      net,
      std::make_shared<tyxe::IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<tyxe::HomoskedasticGaussian>(64, 0.1f),
      tyxe::guides::auto_normal_factory());
  auto optim = std::make_shared<tx::infer::Adam>(1e-3);
  std::vector<tyxe::Batch> batch{{{data.x}, data.y}};
  tx::obs::diag::reset();
  tx::obs::diag::set_enabled(true);
  tx::ppl::DiagnosticsMessenger diag_messenger;
  tx::ppl::HandlerScope diag_scope(diag_messenger);
  for (auto _ : state) {
    bnn->fit(batch, optim, 1);
  }
  tx::obs::diag::set_enabled(false);
  tx::obs::diag::reset();
}
BENCHMARK(BM_SviStepDiagOn);

void BM_HmcLeapfrogStep(benchmark::State& state) {
  tx::manual_seed(0);
  tx::Generator gen(0);
  auto data = tx::data::make_foong_regression(32, gen);
  auto net = tx::nn::make_mlp({1, 16, 1}, "tanh", &gen);
  tyxe::BNNBase bnn(net, std::make_shared<tyxe::IIDPrior>(
                             std::make_shared<nd::Normal>(0.0f, 1.0f)));
  auto lik = std::make_shared<tyxe::HomoskedasticGaussian>(32, 0.1f);
  tx::infer::Potential potential([&] {
    Tensor out = bnn.sampled_forward(data.x);
    lik->data_program(out, data.y);
  });
  std::vector<double> q = potential.initial_position(&gen);
  std::vector<double> grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(potential.value_and_grad(q, grad));
  }
}
BENCHMARK(BM_HmcLeapfrogStep);

void BM_PredictPosteriorSample(benchmark::State& state) {
  tx::manual_seed(0);
  tx::Generator gen(0);
  auto net = tx::nn::make_resnet8(10, 8, 3, &gen);
  tyxe::HideExpose hide_bn;
  hide_bn.hide_module_types = {"BatchNorm2d"};
  tyxe::VariationalBNN bnn(
      net,
      std::make_shared<tyxe::IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f),
                                       hide_bn),
      std::make_shared<tyxe::Categorical>(100),
      tyxe::guides::auto_normal_factory());
  Tensor x = tx::randn({8, 3, 16, 16}, &gen);
  net->eval();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnn.predict(x, 1));
  }
}
BENCHMARK(BM_PredictPosteriorSample);

// --- tx.ckpt.v1 checkpoint cost: what a RetryPolicy with checkpoint_every=K
// amortizes over K SVI steps. The fixture is a store of 8 tensors totalling
// range(0) floats plus an Adam with live moments and a generator — the same
// three sections SVI::fit snapshots.

struct CheckpointFixture {
  tx::ppl::ParamStore store;
  tx::infer::Adam opt{1e-3};
  tx::Generator gen{0};

  explicit CheckpointFixture(std::int64_t total_floats) {
    for (int i = 0; i < 8; ++i) {
      const std::string name = "layer" + std::to_string(i) + ".w";
      store.set(name,
                tx::randn({total_floats / 8}, &gen).set_requires_grad(true));
      opt.add_param(name, store.get(name));
      tx::sum(tx::square(store.get(name))).backward();
    }
    opt.step();  // populate the Adam moment buffers
  }

  tx::resil::Bundle bundle() const {
    tx::resil::Bundle b;
    b.set("store", tx::ppl::param_store_bytes(store));
    b.set("optim", tx::infer::optimizer_bytes(opt));
    b.set("gen", tx::resil::generator_bytes(gen));
    return b;
  }
};

void BM_CheckpointSave(benchmark::State& state) {
  CheckpointFixture fx(state.range(0));
  const std::string path = "BENCH_checkpoint.ckpt";
  const std::size_t bytes = fx.bundle().serialize().size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.bundle().write_file(path));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointSave)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_CheckpointLoad(benchmark::State& state) {
  CheckpointFixture fx(state.range(0));
  const std::string path = "BENCH_checkpoint.ckpt";
  fx.bundle().write_file(path);
  const std::size_t bytes = fx.bundle().serialize().size();
  for (auto _ : state) {
    tx::resil::Bundle b = tx::resil::Bundle::read_file(path);
    tx::ppl::apply_param_store_bytes(b.get("store"), fx.store,
                                     /*prune_extra=*/true);
    tx::infer::apply_optimizer_bytes(b.get("optim"), fx.opt);
    tx::resil::apply_generator_bytes(b.get("gen"), fx.gen);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointLoad)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// --- tx::par thread-scaling variants: the argument is the pool size, so one
// run shows how each hot path scales (results are bitwise-identical across
// arguments by the tx::par determinism contract).

void BM_MatMulThreads(benchmark::State& state) {
  tx::par::set_num_threads(static_cast<int>(state.range(0)));
  tx::Generator gen(0);
  Tensor a = tx::randn({512, 512}, &gen);
  Tensor b = tx::randn({512, 512}, &gen);
  tx::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512 * 512);
  tx::par::set_num_threads(1);
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_Conv2dThreads(benchmark::State& state) {
  tx::par::set_num_threads(static_cast<int>(state.range(0)));
  tx::Generator gen(0);
  Tensor x = tx::randn({8, 16, 16, 16}, &gen);
  Tensor w = tx::randn({16, 16, 3, 3}, &gen);
  tx::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx::conv2d(x, w, Tensor(), 1, 1));
  }
  tx::par::set_num_threads(1);
}
BENCHMARK(BM_Conv2dThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_MultiParticleElboThreads(benchmark::State& state) {
  tx::par::set_num_threads(static_cast<int>(state.range(0)));
  tx::manual_seed(0);
  tx::ppl::ParamStore store;
  Tensor data = tx::randn({32}, nullptr);
  tx::infer::Program model = [data] {
    Tensor z = tx::ppl::sample("z", std::make_shared<nd::Normal>(0.0f, 1.0f));
    tx::ppl::sample("obs", std::make_shared<nd::Normal>(z, Tensor::scalar(0.5f)),
                    data);
  };
  auto guide = std::make_shared<tx::infer::AutoNormal>(
      model, tx::infer::AutoNormalConfig{}, "g", &store);
  tx::infer::TraceELBO elbo(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        elbo.differentiable_loss(model, [guide] { (*guide)(); }));
  }
  tx::par::set_num_threads(1);
}
BENCHMARK(BM_MultiParticleElboThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the shared obs flags (--prof etc.)
// are parsed and *stripped* first so google-benchmark never sees them, and
// the run ends by writing BENCH_microbench.json in the tx.obs.v1 snapshot
// schema — the same snapshot/diff pipeline as the figure benches. Iteration
// counts are time-adaptive, so prof aggregates here are machine-dependent;
// scripts/bench_diff.py compares this file with --no-gate-counts.
int main(int argc, char** argv) {
  tx::obs::parse_bench_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!tx::obs::EventSink::write_snapshot("BENCH_microbench.json",
                                          "microbench")) {
    std::fprintf(stderr, "microbench: snapshot write failed\n");
    return 1;
  }
  std::printf("metrics: BENCH_microbench.json\n");
  return 0;
}
