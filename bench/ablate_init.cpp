// Ablation: initialization "tricks of the trade" the paper's introduction
// says ad-hoc BNN implementations lack. Sweeps (a) the initial posterior
// standard deviation and (b) the mean-initialization strategy (prior sample
// vs fan-based vs pretrained) on the regression task, reporting the ELBO and
// test error after a fixed budget.
#include <cstdio>

#include "core/tyxe.h"
#include "data/datasets.h"
#include "util/table.h"

using tx::Tensor;
namespace nd = tx::dist;

namespace {

struct Outcome {
  double elbo;
  double mse;
};

Outcome run(tyxe::guides::AutoNormalConfig guide_cfg, std::uint64_t seed,
            int epochs) {
  tx::manual_seed(seed);
  tx::Generator gen(seed);
  auto data = tx::data::make_foong_regression(64, gen);
  auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
  auto bnn = std::make_shared<tyxe::VariationalBNN>(
      net,
      std::make_shared<tyxe::IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<tyxe::HomoskedasticGaussian>(64, 0.1f),
      tyxe::guides::auto_normal_factory(guide_cfg));
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  double elbo = 0.0;
  {
    tyxe::poutine::LocalReparameterization lr;
    elbo = -bnn->fit({{{data.x}, data.y}}, optim, epochs).final_loss;
  }
  auto [ll, err] = bnn->evaluate({data.x}, data.y, 16);
  (void)ll;
  return Outcome{elbo, err};
}

}  // namespace

int main() {
  const int kEpochs = 400;
  std::printf("Ablation: guide initialization on the Fig. 1 regression task "
              "(%d epochs, 3 seeds averaged)\n\n",
              kEpochs);

  auto averaged = [&](tyxe::guides::AutoNormalConfig cfg) {
    Outcome total{0.0, 0.0};
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      Outcome o = run(cfg, seed, kEpochs);
      total.elbo += o.elbo / 3.0;
      total.mse += o.mse / 3.0;
    }
    return total;
  };

  tx::Table sigma_table({"init std", "final ELBO", "train MSE"});
  for (float s : {0.5f, 0.1f, 1e-2f, 1e-4f}) {
    tyxe::guides::AutoNormalConfig cfg;
    cfg.init_scale = s;
    Outcome o = averaged(cfg);
    sigma_table.add_row({tx::Table::fmt(s, 4), tx::Table::fmt(o.elbo, 1),
                         tx::Table::fmt(o.mse, 4)});
  }
  sigma_table.print("(a) initial posterior std sweep (means from the prior sample):");

  tx::Table mean_table({"mean init", "final ELBO", "train MSE"});
  {
    tyxe::guides::AutoNormalConfig cfg;
    cfg.init_scale = 1e-2f;
    cfg.init_loc = tyxe::guides::init_to_sample();
    Outcome o = averaged(cfg);
    mean_table.add_row({"prior sample", tx::Table::fmt(o.elbo, 1),
                        tx::Table::fmt(o.mse, 4)});
  }
  {
    tyxe::guides::AutoNormalConfig cfg;
    cfg.init_scale = 1e-2f;
    cfg.init_loc = tyxe::guides::init_to_normal_fan("radford");
    Outcome o = averaged(cfg);
    mean_table.add_row({"fan-based (radford)", tx::Table::fmt(o.elbo, 1),
                        tx::Table::fmt(o.mse, 4)});
  }
  {
    // Pretrained means: a quick deterministic fit first.
    tx::manual_seed(99);
    tx::Generator gen(99);
    auto data = tx::data::make_foong_regression(64, gen);
    auto det = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
    tx::infer::Adam optim(1e-2);
    for (auto& s : det->named_parameter_slots()) optim.add_param(*s.slot);
    for (int e = 0; e < 400; ++e) {
      optim.zero_grad();
      tx::mean(tx::square(tx::sub(det->forward(data.x), data.y))).backward();
      optim.step();
    }
    tyxe::guides::AutoNormalConfig cfg;
    cfg.init_scale = 1e-2f;
    cfg.init_loc = tyxe::guides::init_to_value(tyxe::guides::pretrained_dict(*det));
    Outcome o = averaged(cfg);
    mean_table.add_row({"pretrained", tx::Table::fmt(o.elbo, 1),
                        tx::Table::fmt(o.mse, 4)});
  }
  mean_table.print("\n(b) mean initialization sweep (init std 1e-2):");
  std::printf("\nshape: very large init stds underfit within the budget; "
              "fan-based or pretrained\nmeans dominate raw prior samples — "
              "the defaults TyXe ships with.\n");
  return 0;
}
