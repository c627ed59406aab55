#include "infer/elbo.h"

#include "dist/kl.h"
#include "obs/timer.h"
#include "par/pool.h"

namespace tx::infer {

namespace {

/// Mean of `term()` over `num_particles` evaluations.
///
/// num_particles == 1 keeps the exact legacy path: one inline evaluation
/// under the ambient generator. With more particles each evaluation gets its
/// own Generator seeded sequentially from the ambient stream, so the
/// estimate is a pure function of the ambient generator state — not of the
/// thread count. Particle 0 runs inline first so any lazily created guide
/// params are initialized deterministically from its stream; the remaining
/// particles fan out via tx::par and the terms combine in particle order.
Tensor particle_mean(int num_particles, const std::function<Tensor()>& term) {
  if (num_particles == 1) return term();
  Generator& ambient =
      ppl::current_generator() ? *ppl::current_generator() : global_generator();
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(num_particles));
  for (auto& s : seeds) s = ambient.engine()();
  std::vector<Tensor> terms(static_cast<std::size_t>(num_particles));
  const auto run_particle = [&](int p) {
    Generator g(seeds[static_cast<std::size_t>(p)]);
    ppl::GeneratorScope scope(&g);
    terms[static_cast<std::size_t>(p)] = term();
  };
  run_particle(0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(num_particles - 1));
  for (int p = 1; p < num_particles; ++p) {
    tasks.push_back([&run_particle, p] { run_particle(p); });
  }
  par::run_tasks(tasks);
  Tensor elbo = terms[0];
  for (int p = 1; p < num_particles; ++p) {
    elbo = add(elbo, terms[static_cast<std::size_t>(p)]);
  }
  return div(elbo, Tensor::scalar(static_cast<float>(num_particles)));
}

}  // namespace

std::pair<ppl::Trace, ppl::Trace> trace_model_guide(const Program& model,
                                                    const Program& guide) {
  // Guide vs. model wall-time per trace ("span.elbo.guide" /
  // "span.elbo.model" histograms).
  ppl::Trace guide_trace = [&] {
    obs::ScopedTimer span("elbo.guide");
    return ppl::trace_fn(guide);
  }();
  ppl::ReplayMessenger replay(guide_trace);
  ppl::TraceMessenger model_tracer;
  {
    obs::ScopedTimer span("elbo.model");
    ppl::HandlerScope r(replay);
    ppl::HandlerScope t(model_tracer);
    model();
  }
  return {std::move(model_tracer.trace()), std::move(guide_trace)};
}

Tensor TraceELBO::differentiable_loss(const Program& model,
                                      const Program& guide) {
  return neg(particle_mean(num_particles_, [&] {
    auto [model_trace, guide_trace] = trace_model_guide(model, guide);
    return sub(model_trace.log_prob_sum(), guide_trace.log_prob_sum());
  }));
}

Tensor TraceMeanFieldELBO::differentiable_loss(const Program& model,
                                               const Program& guide) {
  return neg(particle_mean(num_particles_, [&] {
    auto [model_trace, guide_trace] = trace_model_guide(model, guide);
    // Observed sites contribute their (scaled) log-likelihood.
    Tensor elbo = model_trace.log_prob_sum(/*observed_only=*/true);
    // Latent sites contribute -KL(q || p), analytic where possible.
    for (const auto& qsite : guide_trace.sites()) {
      if (qsite.is_observed) continue;
      Tensor site_term;
      if (model_trace.contains(qsite.name)) {
        const auto& psite = model_trace.at(qsite.name);
        if (dist::has_analytic_kl(*qsite.distribution, *psite.distribution)) {
          site_term = neg(dist::kl_divergence(*qsite.distribution,
                                              *psite.distribution));
        } else {
          site_term = sub(psite.distribution->log_prob_sum(psite.value),
                          qsite.log_prob_sum());
        }
        if (psite.scale != 1.0) {
          site_term =
              mul(site_term, Tensor::scalar(static_cast<float>(psite.scale)));
        }
      } else {
        // Guide-only auxiliary site: only its entropy-like -log q term.
        site_term = neg(qsite.log_prob_sum());
      }
      elbo = add(elbo, site_term);
    }
    return elbo;
  }));
}

}  // namespace tx::infer
