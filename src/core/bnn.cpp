#include "core/bnn.h"

#include <algorithm>
#include <limits>

#include "dist/kl.h"
#include "obs/pq.h"
#include "obs/registry.h"
#include "obs/watchdog.h"
#include "resil/guard.h"

namespace tyxe {

namespace {

/// Draw up to `num_predictions` posterior samples via `draw_fn`, degrading
/// gracefully when the installed guard budget expires: the loop stops at the
/// sample boundary (or when a mid-sample hook threw guard::Cancelled) and
/// the prefix of completed draws is what gets aggregated. Sample 0 always
/// runs — an empty prediction is not a degradation, so a budget that is
/// already spent before the first draw only truncates to k = 1 (a hard
/// cancel mid-sample-0 still propagates). Publishes the DegradedResult for
/// the caller to pick up via guard::last_predict_status().
template <typename DrawFn>
std::vector<tx::Tensor> draw_guarded(int num_predictions, DrawFn&& draw_fn) {
  std::vector<tx::Tensor> draws;
  draws.reserve(static_cast<std::size_t>(num_predictions));
  const bool guarded = tx::guard::active();
  tx::guard::DegradedResult status;
  status.requested = num_predictions;
  for (int i = 0; i < num_predictions; ++i) {
    if (guarded && tx::guard::begin_sample("predict.sample") && i > 0) {
      status.degraded = true;
      status.reason = tx::guard::current()->exhausted();
      break;
    }
    try {
      draws.push_back(draw_fn());
    } catch (const tx::guard::Cancelled& c) {
      if (draws.empty()) throw;
      status.degraded = true;
      status.reason = c.reason();
      break;
    }
  }
  if (guarded) {
    status.completed = static_cast<int>(draws.size());
    status.elapsed_seconds = tx::guard::current()->elapsed_seconds();
    tx::guard::set_last_predict_status(status);
    if (status.degraded && tx::obs::enabled()) {
      auto& reg = tx::obs::registry();
      reg.counter("guard.predict.degraded").add(1);
      reg.counter("guard.predict.samples_dropped")
          .add(status.requested - status.completed);
    }
  }
  return draws;
}

/// pq degraded-batch tagging: quality streams must never silently mix a
/// truncated batch into full-quality aggregates.
void tag_degraded_pq_batch() {
  // The active() gate keeps this inert without a budget AND prevents a stale
  // thread-local status (from an earlier guarded predict) from tagging an
  // unguarded batch; every guarded predict republishes its status first.
  if (!tx::obs::pq::enabled() || !tx::guard::active()) return;
  if (tx::guard::last_predict_status().degraded) {
    tx::obs::pq::record_degraded_batch();
  }
}

/// The tail every predict shares: stack the draws, touch the heartbeat, and
/// aggregate them via the likelihood (recording pq telemetry) when asked.
Tensor finish_predict(const std::vector<Tensor>& draws, Likelihood& likelihood,
                      bool aggregate) {
  Tensor stacked = tx::stack(draws, 0);
  // A predict-only workload (a serving loop) must keep /healthz fresh the
  // same way SVI steps and MCMC transitions do.
  if (tx::obs::enabled()) tx::obs::heartbeat();
  if (!aggregate) return stacked;
  Tensor aggregated = likelihood.aggregate_predictions(stacked);
  if (tx::obs::pq::enabled()) {
    likelihood.record_predictive_quality(stacked, aggregated, nullptr);
    tag_degraded_pq_batch();
  }
  return aggregated;
}

/// (total predictive log-likelihood, error measure) of stacked predictions
/// against labelled targets, recording pq telemetry when enabled.
std::pair<double, double> score_predictions(const Tensor& stacked,
                                            Likelihood& likelihood,
                                            const Tensor& targets) {
  const double ll = likelihood.log_predictive(stacked, targets).item();
  Tensor aggregated = likelihood.aggregate_predictions(stacked);
  const double err = likelihood.error(aggregated, targets).item();
  if (tx::obs::pq::enabled()) {
    likelihood.record_predictive_quality(stacked, aggregated, &targets);
    tag_degraded_pq_batch();
  }
  return {ll, err};
}

/// Owner module path of a parameter slot ("" for root-owned parameters).
std::string module_path_of(const tx::nn::ParamSlot& slot) {
  const std::string& full = slot.name;
  if (full.size() > slot.local_name.size()) {
    return full.substr(0, full.size() - slot.local_name.size() - 1);
  }
  return "";
}

}  // namespace

BNNBase::BNNBase(tx::nn::ModulePtr net, PriorPtr prior, std::string name)
    : net_(std::move(net)), prior_(std::move(prior)), name_(std::move(name)) {
  TX_CHECK(net_ != nullptr && prior_ != nullptr, "BNNBase: null net or prior");
  for (const auto& slot : net_->named_parameter_slots()) {
    const std::string site_name = name_ + "." + slot.name;
    const std::string mod_path = module_path_of(slot);
    const std::string mod_type = slot.owner->type_name();
    if (prior_->filter().hidden(site_name, mod_path, mod_type,
                                slot.local_name)) {
      // Deterministic parameter: keep the leaf and let the optimizer see it.
      store_.set(site_name, *slot.slot);
      continue;
    }
    BayesSite site;
    site.name = site_name;
    site.slot = slot;
    site.initial_value = slot.slot->detach();
    site.prior = prior_->prior_dist(site_name, slot.slot->shape(),
                                    site.initial_value);
    TX_CHECK(site.prior->shape() == slot.slot->shape(),
             "prior shape mismatch at site ", site_name);
    sites_.push_back(std::move(site));
  }
}

std::vector<std::string> BNNBase::site_names() const {
  std::vector<std::string> out;
  out.reserve(sites_.size());
  for (const auto& s : sites_) out.push_back(s.name);
  return out;
}

void BNNBase::sample_sites_program() {
  for (auto& site : sites_) {
    *site.slot.slot = tx::ppl::sample(site.name, site.prior);
  }
}

Tensor BNNBase::sampled_forward(const std::vector<Tensor>& inputs) {
  sample_sites_program();
  return net_->forward(inputs);
}

void BNNBase::update_prior(const PriorPtr& new_prior) {
  TX_CHECK(new_prior != nullptr, "update_prior: null prior");
  for (auto& site : sites_) {
    site.prior = new_prior->prior_dist(site.name, site.slot.slot->shape(),
                                       site.initial_value);
    TX_CHECK(site.prior->shape() == site.slot.slot->shape(),
             "update_prior: shape mismatch at site ", site.name);
  }
  prior_ = new_prior;
}

GuidedBNN::GuidedBNN(tx::nn::ModulePtr net, PriorPtr prior,
                     guides::GuideFactory guide_factory, std::string name)
    : BNNBase(std::move(net), std::move(prior), std::move(name)) {
  TX_CHECK(guide_factory != nullptr, "GuidedBNN: null guide factory");
  guide_ = guide_factory([this] { sample_sites_program(); }, &store_);
  TX_CHECK(guide_ != nullptr, "GuidedBNN: guide factory returned null");
}

Tensor GuidedBNN::guided_forward(const std::vector<Tensor>& inputs) {
  return guided_forward(inputs, guide_->draw_program());
}

Tensor GuidedBNN::guided_forward(const std::vector<Tensor>& inputs,
                                 const tx::infer::Program& draw) {
  tx::ppl::Trace guide_trace = tx::ppl::trace_fn(draw);
  tx::ppl::ReplayMessenger replay(guide_trace);
  tx::ppl::HandlerScope scope(replay);
  return sampled_forward(inputs);
}

PytorchBNN::PytorchBNN(tx::nn::ModulePtr net, PriorPtr prior,
                       guides::GuideFactory guide_factory, std::string name)
    : GuidedBNN(std::move(net), std::move(prior), std::move(guide_factory),
                std::move(name)) {}

Tensor PytorchBNN::forward(const std::vector<Tensor>& inputs) {
  tx::ppl::Trace guide_trace = tx::ppl::trace_fn([this] { (*guide_)(); });
  // KL(q || p): analytic per site where possible, else the single-sample
  // difference of log-densities at the guide draw.
  Tensor kl = Tensor::scalar(0.0f);
  for (const auto& qsite : guide_trace.sites()) {
    const BayesSite* model_site = nullptr;
    for (const auto& s : sites_) {
      if (s.name == qsite.name) {
        model_site = &s;
        break;
      }
    }
    if (model_site == nullptr) {
      // Guide-only auxiliary site (low-rank joint): -log q contribution.
      kl = tx::add(kl, qsite.log_prob_sum());
      continue;
    }
    if (tx::dist::has_analytic_kl(*qsite.distribution, *model_site->prior)) {
      kl = tx::add(kl, tx::dist::kl_divergence(*qsite.distribution,
                                               *model_site->prior));
    } else {
      kl = tx::add(kl, tx::sub(qsite.log_prob_sum(),
                               model_site->prior->log_prob_sum(qsite.value)));
    }
  }
  cached_kl_ = kl;
  tx::ppl::ReplayMessenger replay(guide_trace);
  tx::ppl::HandlerScope scope(replay);
  return sampled_forward(inputs);
}

Tensor PytorchBNN::cached_kl_loss() const {
  TX_CHECK(cached_kl_.defined(),
           "cached_kl_loss: call forward() at least once first");
  return cached_kl_;
}

std::vector<Tensor> PytorchBNN::pytorch_parameters(
    const std::vector<Tensor>& dummy_inputs) {
  forward(dummy_inputs);  // trigger lazy parameter creation
  std::vector<Tensor> params;
  for (auto& [name, p] : store_.items()) params.push_back(p);
  return params;
}

SupervisedBNN::SupervisedBNN(tx::nn::ModulePtr net, PriorPtr prior,
                             LikelihoodPtr likelihood,
                             guides::GuideFactory guide_factory,
                             std::string name)
    : GuidedBNN(std::move(net), std::move(prior), std::move(guide_factory),
                std::move(name)),
      likelihood_(std::move(likelihood)) {
  TX_CHECK(likelihood_ != nullptr, "SupervisedBNN: null likelihood");
}

void SupervisedBNN::model(const std::vector<Tensor>& inputs,
                          const Tensor& targets) {
  Tensor predictions = sampled_forward(inputs);
  likelihood_->data_program(predictions, targets);
}

std::pair<double, double> SupervisedBNN::evaluate(
    const std::vector<Tensor>& inputs, const Tensor& targets,
    int num_predictions) {
  tx::NoGradGuard ng;
  return score_predictions(
      predict(inputs, num_predictions, /*aggregate=*/false), *likelihood_,
      targets);
}

VariationalBNN::VariationalBNN(tx::nn::ModulePtr net, PriorPtr prior,
                               LikelihoodPtr likelihood,
                               guides::GuideFactory guide_factory,
                               guides::GuideFactory likelihood_guide_factory,
                               std::string name)
    : SupervisedBNN(std::move(net), std::move(prior), std::move(likelihood),
                    std::move(guide_factory), std::move(name)),
      elbo_(std::make_shared<tx::infer::TraceELBO>(1)) {
  if (likelihood_guide_factory) {
    // The likelihood-only model: run the latent sites of the likelihood by
    // conditioning the data program on a dummy 1-element batch.
    auto* lik = likelihood_.get();
    likelihood_guide_ = likelihood_guide_factory(
        [lik] {
          Tensor dummy = tx::zeros({1});
          tx::ppl::BlockMessenger hide_data =
              tx::ppl::BlockMessenger::hiding({lik->site_name()});
          tx::ppl::HandlerScope scope(hide_data);
          lik->data_program(dummy, dummy);
        },
        &store_);
  }
}

void VariationalBNN::guide_program() {
  (*guide_)();
  if (likelihood_guide_) (*likelihood_guide_)();
}

tx::infer::FitReport VariationalBNN::run_fit(
    const std::function<std::vector<Batch>()>& data,
    std::shared_ptr<tx::infer::Optimizer> optimizer, int epochs,
    const FitCallback& callback, const tx::infer::RetryPolicy* policy) {
  TX_CHECK(optimizer != nullptr, "fit: null optimizer");
  // A policy run fixes its batch list up front and picks the batch for each
  // step from the step counter, not an external loop, so a run resumed at
  // step t scores exactly the batch the original run would have scored at
  // step t.
  std::vector<Batch> schedule;
  if (policy != nullptr) {
    schedule = data();
    TX_CHECK(!schedule.empty(), "fit: empty batch list");
  }
  // One SVI driver for the whole fit; the model program scores the batch
  // `cur` points at, so each step sees fresh data while the driver keeps its
  // step counter / instrumentation across epochs.
  const Batch* cur = nullptr;
  tx::infer::SVI svi(
      [&] {
        if (policy != nullptr) {
          cur = &schedule[static_cast<std::size_t>(
              svi.steps_taken() % static_cast<std::int64_t>(schedule.size()))];
        }
        model(cur->first, cur->second);
      },
      [this] { guide_program(); }, std::move(optimizer), elbo_, &store_,
      generator_);
  if (step_callback_) svi.set_step_callback(step_callback_);

  if (policy != nullptr) {
    // Warm the guide before SVI::fit can resume: lazy site discovery during
    // the first post-resume step would consume restored-generator draws the
    // original run never made, breaking bitwise resume determinism.
    guide_program();
    return svi.fit(static_cast<std::int64_t>(epochs) *
                       static_cast<std::int64_t>(schedule.size()),
                   *policy);
  }

  tx::infer::FitReport report;
  report.final_loss = std::numeric_limits<double>::quiet_NaN();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    double epoch_loss = 0.0;
    std::int64_t batches = 0;
    for (const Batch& batch : data()) {
      cur = &batch;
      report.final_loss = svi.step();
      epoch_loss += report.final_loss;
      ++batches;
    }
    report.steps_run += batches;
    const double mean_elbo =
        -epoch_loss / static_cast<double>(std::max<std::int64_t>(batches, 1));
    if (callback && callback(epoch, mean_elbo)) break;
  }
  report.steps_completed = svi.steps_taken();
  return report;
}

Tensor VariationalBNN::predict(const std::vector<Tensor>& inputs,
                               int num_predictions, bool aggregate) {
  TX_CHECK(num_predictions >= 1, "predict: num_predictions must be >= 1");
  tx::NoGradGuard ng;
  // Sequential draws: a budget-truncated run aggregates exactly the k draws
  // an honest num_predictions=k run would make (same seed, same RNG stream
  // prefix), which is the bitwise prefix-truncation contract guard_test
  // pins down. The likelihood guide (if any) plays no role in the forward.
  // One draw program serves every sample: the parameters cannot change
  // under the NoGradGuard, so the guide may build its distributions once,
  // and they die with this call.
  const tx::infer::Program draw = guide_->draw_program();
  std::vector<Tensor> draws = draw_guarded(
      num_predictions, [&] { return guided_forward(inputs, draw).detach(); });
  return finish_predict(draws, *likelihood_, aggregate);
}

MCMC_BNN::MCMC_BNN(tx::nn::ModulePtr net, PriorPtr prior,
                   LikelihoodPtr likelihood,
                   tx::infer::KernelFactory kernel_factory, std::string name)
    : BNNBase(std::move(net), std::move(prior), std::move(name)),
      likelihood_(std::move(likelihood)),
      kernel_factory_(std::move(kernel_factory)) {
  TX_CHECK(likelihood_ != nullptr && kernel_factory_ != nullptr,
           "MCMC_BNN: null likelihood or kernel factory");
}

void MCMC_BNN::fit(const std::vector<Tensor>& inputs, const Tensor& targets,
                   int num_samples, int warmup_steps, tx::Generator* gen,
                   const tx::infer::ProgressCallback& progress) {
  mcmc_ = std::make_unique<tx::infer::MCMC>(kernel_factory_(), num_samples,
                                            warmup_steps);
  mcmc_->run(
      [this, inputs, targets] {
        Tensor predictions = sampled_forward(inputs);
        likelihood_->data_program(predictions, targets);
      },
      gen, progress);
}

Tensor MCMC_BNN::predict(const std::vector<Tensor>& inputs,
                         int num_predictions, bool aggregate) {
  TX_CHECK(mcmc_ != nullptr, "MCMC_BNN::predict: call fit() first");
  tx::NoGradGuard ng;
  const std::size_t stored = mcmc_->num_samples();
  // Spread the requested predictions across the stored chain. A budget
  // truncation keeps the first k draws of *this* spread — deterministic,
  // but (unlike VariationalBNN) not bitwise-equal to an honest k-run,
  // because the chain indices depend on num_predictions (docs/robustness.md
  // spells out the contract difference).
  int i = 0;
  std::vector<Tensor> draws = draw_guarded(num_predictions, [&] {
    const std::size_t idx = (static_cast<std::size_t>(i++) * stored) /
                            static_cast<std::size_t>(num_predictions);
    auto values = mcmc_->sample_at(idx);
    tx::ppl::ConditionMessenger cond(values);
    tx::ppl::HandlerScope scope(cond);
    return sampled_forward(inputs).detach();
  });
  return finish_predict(draws, *likelihood_, aggregate);
}

std::pair<double, double> MCMC_BNN::evaluate(const std::vector<Tensor>& inputs,
                                             const Tensor& targets,
                                             int num_predictions) {
  tx::NoGradGuard ng;
  return score_predictions(
      predict(inputs, num_predictions, /*aggregate=*/false), *likelihood_,
      targets);
}

const tx::infer::MCMC& MCMC_BNN::mcmc() const {
  TX_CHECK(mcmc_ != nullptr, "MCMC_BNN::mcmc: call fit() first");
  return *mcmc_;
}

}  // namespace tyxe
