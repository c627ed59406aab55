// Crash-safe training with tx::resil: the quickstart regression fit under a
// RetryPolicy. Run it once and it trains to completion, writing a tx.ckpt.v1
// checkpoint every 200 steps; kill it mid-run (Ctrl-C, SIGKILL, power loss —
// the atomic writer makes no difference which) and the next invocation
// resumes from the last checkpoint and produces bitwise-identical results to
// a run that was never interrupted. Delete resume.ckpt to start over.
//
// Try it with fault injection, too:
//
//   TYXE_FAULT='nan-grad=net@50x2' ./resume    # poisoned grads -> rollback
//   TYXE_FAULT='write-open=2'      ./resume    # failed writes  -> keep going
#include <cstdio>

#include "core/tyxe.h"
#include "data/datasets.h"
#include "resil/fault.h"

int main() {
  tx::manual_seed(0);
  tx::Generator gen(0);
  const std::int64_t n = 64;
  auto data = tx::data::make_foong_regression(n, gen);

  auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
  auto likelihood = std::make_shared<tyxe::HomoskedasticGaussian>(n, 0.1f);
  auto prior = std::make_shared<tyxe::IIDPrior>(
      std::make_shared<tx::dist::Normal>(0.0f, 1.0f));
  tyxe::VariationalBNN bnn(net, prior, likelihood,
                           tyxe::guides::auto_normal_factory());

  // Bitwise resume needs the fit's sampling pinned to a private generator —
  // its engine state rides along in the checkpoint (docs/robustness.md).
  tx::Generator fit_gen(1);
  bnn.set_generator(&fit_gen);

  if (tx::fault::install_from_env()) {
    std::printf("fault plan installed from TYXE_FAULT\n");
  }

  tx::infer::RetryPolicy policy;
  policy.checkpoint_path = "resume.ckpt";
  policy.checkpoint_every = 200;  // steps between tx.ckpt.v1 snapshots
  policy.max_retries = 3;         // rollbacks per segment before giving up
  policy.lr_decay = 0.5;          // lr multiplier applied on each rollback

  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  tx::infer::FitReport report = bnn.fit({{{data.x}, data.y}}, optim,
                                        /*epochs=*/2000, policy);

  std::printf("%s at step %lld/%lld: %lld steps this run, %lld checkpoints, "
              "%lld rollbacks\n",
              report.resumed ? "resumed" : "started fresh",
              static_cast<long long>(report.steps_completed), 2000LL,
              static_cast<long long>(report.steps_run),
              static_cast<long long>(report.checkpoints),
              static_cast<long long>(report.rollbacks));
  if (report.exhausted) {
    std::printf("retries exhausted: %s\n", report.failure_reason.c_str());
    return 1;
  }

  // Posterior-predictive check, as in the quickstart.
  tx::Tensor grid = tx::linspace(-1.5f, 1.5f, 7).reshape({7, 1});
  tx::Tensor stacked = bnn.predict(grid, /*num_predictions=*/32,
                                   /*aggregate=*/false);
  tx::Tensor mean = likelihood->aggregate_predictions(stacked);
  tx::Tensor std = likelihood->predictive_std(stacked);
  for (std::int64_t i = 0; i < grid.numel(); ++i) {
    std::printf("x=%6.2f  mean=%7.3f  std=%6.3f\n", grid.at(i), mean.at(i),
                std.at(i));
  }
  std::printf("final loss %.4f; checkpoint left at %s\n", report.final_loss,
              policy.checkpoint_path.c_str());
  return 0;
}
