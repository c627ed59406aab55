// Top-level BNN classes (tyxe/bnn.py). The class hierarchy follows the
// paper's Appendix C:
//
//   BNNBase (_BNN)        — turns an nn::Module into a probabilistic model by
//                           replacing its (non-hidden) parameters with sample
//                           sites named "<name>.<param path>".
//   GuidedBNN             — adds an automatically constructed guide and a
//                           forward pass under a posterior sample.
//   PytorchBNN            — drop-in nn::Module replacement: stochastic
//                           forward plus a cached KL term, trained with an
//                           ordinary optimizer (the NeRF workflow).
//   SupervisedBNN         — adds a Likelihood; defines predict/evaluate.
//   VariationalBNN        — SVI-based fit(): every form (batch list, batch
//                           function, RetryPolicy) runs one body and returns
//                           an infer::FitReport.
//   MCMC_BNN              — HMC/NUTS-based fit() over the full dataset; its
//                           predict/evaluate share SupervisedBNN's tails.
#pragma once

#include <functional>
#include <optional>

#include "core/guides.h"
#include "core/likelihoods.h"
#include "core/priors.h"
#include "infer/infer.h"
#include "nn/nn.h"

namespace tyxe {

using tx::Shape;
using tx::Tensor;

/// One network parameter converted to a random variable.
struct BayesSite {
  std::string name;       // full site name, e.g. "net.fc.weight"
  tx::nn::ParamSlot slot; // where the sampled value is written
  tx::dist::DistPtr prior;
  Tensor initial_value;   // the deterministic initialization (pretrained init)
};

class BNNBase {
 public:
  /// Applies `prior` to every parameter of `net`. Hidden parameters stay
  /// deterministic leaves and are registered in the BNN's param store (they
  /// are fit to maximize the likelihood, like BatchNorm in the paper).
  BNNBase(tx::nn::ModulePtr net, PriorPtr prior, std::string name = "net");
  virtual ~BNNBase() = default;

  tx::nn::Module& net() { return *net_; }
  tx::ppl::ParamStore& param_store() { return store_; }
  const std::vector<BayesSite>& sites() const { return sites_; }
  /// Names of all sample sites (tyxe.util.pyro_sample_sites).
  std::vector<std::string> site_names() const;

  /// Forward pass with fresh prior samples in the weight slots. When run
  /// under a ReplayMessenger (as in SVI) the values come from the guide.
  Tensor sampled_forward(const std::vector<Tensor>& inputs);
  Tensor sampled_forward(const Tensor& x) {
    return sampled_forward(std::vector<Tensor>{x});
  }

  /// Replace the prior of every Bayesian site (variational continual
  /// learning: pass a DictPrior built from the guide's detached posteriors).
  void update_prior(const PriorPtr& new_prior);

  /// The sample-sites-only program (no likelihood, no forward): used to
  /// build guides without needing data.
  void sample_sites_program();

  void train(bool mode = true) { net_->train(mode); }
  void eval() { net_->eval(); }

 protected:
  tx::nn::ModulePtr net_;
  PriorPtr prior_;
  std::string name_;
  std::vector<BayesSite> sites_;
  tx::ppl::ParamStore store_;
};

class GuidedBNN : public BNNBase {
 public:
  GuidedBNN(tx::nn::ModulePtr net, PriorPtr prior,
            guides::GuideFactory guide_factory, std::string name = "net");

  guides::Guide& net_guide() { return *guide_; }
  guides::GuidePtr net_guide_ptr() { return guide_; }

  /// Forward pass with weights drawn from the (current) guide posterior.
  Tensor guided_forward(const std::vector<Tensor>& inputs);
  Tensor guided_forward(const Tensor& x) {
    return guided_forward(std::vector<Tensor>{x});
  }

 protected:
  /// Forward pass with weights drawn by `draw`, one of the guide's draw
  /// programs (predict reuses one across its posterior samples).
  Tensor guided_forward(const std::vector<Tensor>& inputs,
                        const tx::infer::Program& draw);

  guides::GuidePtr guide_;
};

/// Low-level drop-in module replacement (Sec. 4.2). forward() is stochastic
/// (one posterior sample per call) and refreshes cached_kl_loss(); training
/// happens with a plain optimizer over pytorch_parameters().
class PytorchBNN : public GuidedBNN {
 public:
  PytorchBNN(tx::nn::ModulePtr net, PriorPtr prior,
             guides::GuideFactory guide_factory, std::string name = "net");

  /// Stochastic forward; updates the cached KL estimate.
  Tensor forward(const std::vector<Tensor>& inputs);
  Tensor forward(const Tensor& x) { return forward(std::vector<Tensor>{x}); }
  Tensor operator()(const Tensor& x) { return forward(x); }

  /// KL(q || p) for the most recent forward pass — analytic per site when
  /// both distributions are Normal, otherwise the single-sample estimate.
  Tensor cached_kl_loss() const;

  /// Collect every optimizable parameter; requires one tracing forward pass
  /// because guide parameters initialize lazily (paper Listing 5, line 2).
  std::vector<Tensor> pytorch_parameters(const std::vector<Tensor>& dummy_inputs);

 private:
  Tensor cached_kl_;
};

/// Everything shared by supervised BNNs: likelihood plumbing and the
/// predict/evaluate API.
class SupervisedBNN : public GuidedBNN {
 public:
  SupervisedBNN(tx::nn::ModulePtr net, PriorPtr prior, LikelihoodPtr likelihood,
                guides::GuideFactory guide_factory, std::string name = "net");

  Likelihood& likelihood() { return *likelihood_; }

  /// The full model program for one batch.
  void model(const std::vector<Tensor>& inputs, const Tensor& targets);

  /// Posterior-predictive sampling: runs num_predictions guided forwards.
  /// aggregate=true combines them via the likelihood (mean probabilities /
  /// mean prediction); aggregate=false returns them stacked along dim 0.
  virtual Tensor predict(const std::vector<Tensor>& inputs,
                         int num_predictions = 1, bool aggregate = true) = 0;
  Tensor predict(const Tensor& x, int num_predictions = 1,
                 bool aggregate = true) {
    return predict(std::vector<Tensor>{x}, num_predictions, aggregate);
  }

  /// (total predictive log-likelihood, error measure) on labelled data.
  std::pair<double, double> evaluate(const std::vector<Tensor>& inputs,
                                     const Tensor& targets,
                                     int num_predictions = 1);

 protected:
  LikelihoodPtr likelihood_;
};

/// A mini-batch: (network inputs, likelihood targets).
using Batch = std::pair<std::vector<Tensor>, Tensor>;
/// Callback invoked after each epoch with (epoch index, mean ELBO); return
/// true to stop training early.
using FitCallback = std::function<bool(int, double)>;

class VariationalBNN : public SupervisedBNN {
 public:
  /// `likelihood_guide_factory` is optional and only needed when the
  /// likelihood itself has latent variables (e.g. an unknown Gaussian scale).
  VariationalBNN(tx::nn::ModulePtr net, PriorPtr prior,
                 LikelihoodPtr likelihood, guides::GuideFactory guide_factory,
                 guides::GuideFactory likelihood_guide_factory = nullptr,
                 std::string name = "net");

  /// scikit-learn-style fit: `epochs` passes over the batches `data()`
  /// returns at the start of each epoch, optimizing the ELBO; `callback`
  /// sees each epoch's mean ELBO and may stop early. The report's final_loss
  /// is the last step's loss, so on a single batch -final_loss is the last
  /// epoch's mean ELBO.
  tx::infer::FitReport fit(const std::function<std::vector<Batch>()>& data,
                           std::shared_ptr<tx::infer::Optimizer> optimizer,
                           int epochs, const FitCallback& callback = nullptr) {
    return run_fit(data, std::move(optimizer), epochs, callback, nullptr);
  }
  /// Convenience overload for a fixed batch list.
  tx::infer::FitReport fit(const std::vector<Batch>& data,
                           std::shared_ptr<tx::infer::Optimizer> optimizer,
                           int epochs, const FitCallback& callback = nullptr) {
    return run_fit([&data] { return data; }, std::move(optimizer), epochs,
                   callback, nullptr);
  }
  /// Fault-tolerant fit: epochs * data.size() steps of SVI::fit — periodic
  /// tx.ckpt.v1 checkpoints, resume from policy.checkpoint_path, and
  /// rollback + lr decay on non-finite loss/gradients. The batch for each
  /// step is chosen from the SVI step counter, so a resumed run replays the
  /// identical schedule; with set_generator() also set, an interrupted and
  /// resumed run is bitwise-identical to an uninterrupted one (see
  /// docs/robustness.md).
  tx::infer::FitReport fit(const std::vector<Batch>& data,
                           std::shared_ptr<tx::infer::Optimizer> optimizer,
                           int epochs, const tx::infer::RetryPolicy& policy) {
    return run_fit([&data] { return data; }, std::move(optimizer), epochs,
                   nullptr, &policy);
  }

  Tensor predict(const std::vector<Tensor>& inputs, int num_predictions = 1,
                 bool aggregate = true) override;
  using SupervisedBNN::predict;

  /// Swap the ELBO estimator (default TraceELBO with one particle).
  void set_elbo(std::shared_ptr<tx::infer::ELBO> elbo) { elbo_ = std::move(elbo); }

  /// Per-SVI-step instrumentation (loss / grad-norm / wall-time) forwarded
  /// to the SVI driver that fit() builds.
  void set_step_callback(tx::infer::StepCallback cb) {
    step_callback_ = std::move(cb);
  }
  /// Seed control: with a generator set, every sample drawn during fit()
  /// comes from it, so instrumented runs replay exactly.
  void set_generator(tx::Generator* gen) { generator_ = gen; }

  /// Full guide program (net guide + likelihood guide if present).
  void guide_program();

 private:
  /// The one body behind every fit form. Without a policy: the plain epoch
  /// loop (data() at each epoch start, callback at each epoch end). With
  /// one: warm the guide, then svi.fit(epochs * n, *policy) on step-indexed
  /// batches.
  tx::infer::FitReport run_fit(const std::function<std::vector<Batch>()>& data,
                               std::shared_ptr<tx::infer::Optimizer> optimizer,
                               int epochs, const FitCallback& callback,
                               const tx::infer::RetryPolicy* policy);

  guides::GuidePtr likelihood_guide_;
  std::shared_ptr<tx::infer::ELBO> elbo_;
  tx::infer::StepCallback step_callback_;
  tx::Generator* generator_ = nullptr;
};

/// MCMC-based BNN with the same predict interface; fit runs the kernel on
/// the full dataset (paper Sec. 2.1.3).
class MCMC_BNN : public BNNBase {
 public:
  MCMC_BNN(tx::nn::ModulePtr net, PriorPtr prior, LikelihoodPtr likelihood,
           tx::infer::KernelFactory kernel_factory,
           std::string name = "net");

  Likelihood& likelihood() { return *likelihood_; }

  /// Run the chain on the full dataset. `progress` (if set) fires after
  /// every warmup/sampling transition with accept-prob and divergences.
  void fit(const std::vector<Tensor>& inputs, const Tensor& targets,
           int num_samples, int warmup_steps, tx::Generator* gen = nullptr,
           const tx::infer::ProgressCallback& progress = nullptr);

  /// Predictions using stored posterior samples (cycled when
  /// num_predictions exceeds the stored draws).
  Tensor predict(const std::vector<Tensor>& inputs, int num_predictions = 1,
                 bool aggregate = true);
  Tensor predict(const Tensor& x, int num_predictions = 1,
                 bool aggregate = true) {
    return predict(std::vector<Tensor>{x}, num_predictions, aggregate);
  }

  std::pair<double, double> evaluate(const std::vector<Tensor>& inputs,
                                     const Tensor& targets,
                                     int num_predictions = 1);

  const tx::infer::MCMC& mcmc() const;

 private:
  LikelihoodPtr likelihood_;
  tx::infer::KernelFactory kernel_factory_;
  std::unique_ptr<tx::infer::MCMC> mcmc_;
};

}  // namespace tyxe
